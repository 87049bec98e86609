"""Direct property identification from excitation and feedback data.

All verdicts here are guaranteed.  The target and the design come from a
validated `Problem`, and a plan equal to the design reuses the design's Q.
Any other plan takes one elimination of [X-; U-]^T beside X+^T
(`ratmat.read_span`), and that one read decides every property: its rank
and its product with the target decide richness (`richness.target_gaps`),
its transposed solve Z exists exactly when some linear system reproduces the
data, and Z^T target is the [A, B] target that every such system shares.
So a zero pattern checks entries, a scalar state's controllability reads B
and a whole-space target reads the model [A, B] off that one read, without
solving for Q, and a structure reads its traces from the two factors, X+
and the design's q or Z^T and the target, without forming their product;
the Q a report shows is solved when first read.  The read reduces the plan
alone and X+'s columns follow it only when the model is read (see
`ratmat.eliminate`), so a deficient plan's verdict never touches X+: it
raises `NotSufficientlyRich` with the target columns that span's left kernel
finds missed, the missing directions picked from them, and the span itself,
from which the counterexample recipe reads its certificate.  Model recovery
decides by the rank of its read alone, and alone reads X+ on a deficient
plan, as no system may reproduce the data (`InconsistentDataset`);
`NotIdentifiable` carries the span the same way, its model read once for the
pair of models.  Zero tests are exact; floats appear only in the spectral
radius of a synthesized closed loop, computed when first read.  That radius
and the exact stability verdict share one characteristic polynomial of the
loop.

One table maps each property class to its identifier and its counterexample
recipe, every recipe taking (section, problem, seed, span, gaps);
`identify_property` and `counterexample_report` take a validated `Problem`
and look its class up there, as `counterexample_for` does for a property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, NamedTuple, Optional, Union

from .adversary import (
    CounterexamplePair,
    counterexample_controllability,
    counterexample_sparsity,
    counterexample_stabilizability,
    counterexample_structure,
    distinct_consistent_pair,
)
from .errors import GainNotApplicable, NotSufficientlyRich
from .properties import (
    Controllability,
    Identifiability,
    LinearStructure,
    Problem,
    PropertySpec,
    Sparsity,
    Stabilizability,
    SystemPair,
    block_traces,
    evaluate_expr,
    is_controllable,
    is_stabilizable,
    sparsity_columns,
)
from .ratmat import (
    EIG_MARGIN,
    Mat,
    Span,
    characteristic_polynomial,
    format_matrix,
    format_rational,
    invert,
    read_span,
    root_radius,
    schur_stable,
    solve_right,
)
from .richness import Dataset, InputSection, consistent_set_contains, missing_directions, target_gaps


class Verdict(Enum):
    HAS_PROPERTY = "has_property"
    LACKS_PROPERTY = "lacks_property"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.HAS_PROPERTY if flag else cls.LACKS_PROPERTY


@dataclass(frozen=True)
class CheckedEntry:
    """One zero test: entry (row, col) of [A, B] evaluated to `value`."""

    row: int
    col: int
    value: Fraction


@dataclass(frozen=True)
class SparsityReport:
    """The verdict and the checked entries; `q`, with [X-; U-] Q = target, is read through `_q`."""

    verdict: Verdict
    checked: tuple
    _q: Callable[[], Mat] = field(repr=False, compare=False)

    q = property(lambda self: self._q())


@dataclass(frozen=True)
class StructureReport:
    """The verdict, the constraint values and their memberships; `q` as in `SparsityReport`."""

    verdict: Verdict
    values: tuple
    satisfied: tuple
    _q: Callable[[], Mat] = field(repr=False, compare=False)

    q = property(lambda self: self._q())


@dataclass(frozen=True)
class NotIdentifiable:
    """Model recovery failed: the stacked plan is rank deficient.  `span` is the
    read of the plan and its data that found it, and takes no part in equality."""

    stacked_rank: int
    deficit: int
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GainResult:
    """Feedback gain read off square invertible state data.

    Each figure is computed on first read, from one exact characteristic polynomial of
    the closed loop.  `stabilizing`, exact, says every root lies strictly inside the unit
    disc.  For display only, `radius` is the largest root modulus, Newton-polished on the
    polynomial's square-free part, and `marginal` is set when it lies within EIG_MARGIN of 1."""

    gain: Mat
    closed_loop: Mat

    @cached_property
    def _polynomial(self) -> list:
        return characteristic_polynomial(self.closed_loop)

    @cached_property
    def stabilizing(self) -> bool:
        return schur_stable(self._polynomial)

    @cached_property
    def radius(self) -> float:
        return root_radius(self._polynomial)

    @property
    def marginal(self) -> bool:
        return abs(self.radius - 1.0) <= EIG_MARGIN


class _Read(NamedTuple):
    left: Mat  # X+ on the design, else Z^T, the [A, B] of the transposed solve
    right: Mat  # the design's q, else the target
    q: Callable[[], Mat]  # the Q with [X-; U-] Q = target: the design's, or one solve made on first call

    def values(self) -> Mat:
        """[A, B] target, the same for every system consistent with the data: the one
        product of the factors, formed only by the readers of the whole matrix."""
        return self.left @ self.right


def _read(d: Dataset, problem: Problem) -> _Read:
    """The factors of the values and the Q of a rich plan, from the design's q or one
    read of the plan beside its data (see the module docstring); InconsistentDataset
    when no system reproduces the data.  A deficient plan raises NotSufficientlyRich
    with the span, the gaps `target_gaps` finds on it and the directions picked from them."""
    stacked = d.section.stacked()
    if stacked == problem.basis:
        return _Read(d.x_plus, problem.q, lambda: problem.q)
    span = read_span(stacked, d.x_plus)
    if gaps := target_gaps(span, problem):
        missing = missing_directions(d.section, problem.prop, problem, gaps)
        message = f"plan spans too little: {len(missing)} direction(s) of the minimum subspace missing"
        raise NotSufficientlyRich(message, missing=missing, span=span, gaps=gaps)
    return _Read(span.model, problem.target, cache(lambda: solve_right(stacked, problem.target)))


def identify_sparsity(d: Dataset, p: Sparsity, problem: Optional[Problem] = None) -> SparsityReport:
    """Decide a zero pattern directly from data.

    The target is [e_i for affected columns i]; the pattern holds exactly
    when every queried entry of [A, B] target, which is X+ Q, vanishes.  Every
    identifier takes `problem` when the caller has already validated `p` for
    the data.
    """
    problem = problem or Problem.of(p, d.section.dims)
    read = _read(d, problem)
    values, position = read.values(), {c: l for l, c in enumerate(sparsity_columns(p, problem.dims))}
    checked = [CheckedEntry(r, c, values[r - 1, position[c - 1]]) for r, c in p.positions(problem.dims.n)]
    return SparsityReport(Verdict.of(all(e.value == 0 for e in checked)), tuple(checked), read.q)


def identify_linear_structure(
    d: Dataset, p: LinearStructure, problem: Optional[Problem] = None
) -> StructureReport:
    """Decide an and/or combination of linear constraints from data.

    With the constraint matrix as the target, the trace of the i-th n-column
    block of [A, B] target is exactly the i-th constraint value of the
    unknown system, read from the two factors without forming the product;
    each value is tested for set membership and the results are folded
    through the expression.
    """
    read = _read(d, problem or Problem.of(p, d.section.dims))
    values = block_traces(read.left, read.right, d.section.n)
    satisfied = tuple(c.values.contains(v) for c, v in zip(p.constraints, values))
    return StructureReport(Verdict.of(evaluate_expr(p.expr, satisfied)), values, satisfied, read.q)


def recover_model(d: Dataset, problem: Optional[Problem] = None) -> Union[SystemPair, NotIdentifiable]:
    """Unique exact model when the plan is persistently exciting, else NotIdentifiable.

    Raises InconsistentDataset when no linear system reproduces the data,
    which can only happen on corrupted input, on a deficient plan too: the
    one read carries X+, so its transposed solve decides, and its rank decides
    identifiability.  The design, S = I, is its own model's plan: [A, B] is X+.
    """
    problem, stacked = problem or Problem.of(Identifiability(), d.section.dims), d.section.stacked()
    if stacked == problem.basis:
        return SystemPair.from_ab(d.x_plus)
    span = read_span(stacked, d.x_plus)
    model, deficit = span.model, d.section.dims.total - span.rank
    return NotIdentifiable(span.rank, deficit, span) if deficit else SystemPair.from_ab(model)


def identify_stabilizability(d: Dataset, problem: Optional[Problem] = None) -> Verdict:
    """Stabilizability needs full excitation, so recover and test the model."""
    read = _read(d, problem or Problem.of(Stabilizability(), d.section.dims))
    return Verdict.of(is_stabilizable(SystemPair.from_ab(read.values())))


def identify_controllability(d: Dataset, problem: Optional[Problem] = None) -> Verdict:
    """Controllability test; for a scalar state only the input block matters.

    With one state the target is [e_2, ..., e_(m+1)], so the plan need not
    be persistently exciting: [A, B] target is the B every consistent model
    shares, and controllability is B != 0.
    """
    values = _read(d, problem or Problem.of(Controllability(), d.section.dims)).values()
    if d.section.n > 1:
        return Verdict.of(is_controllable(SystemPair.from_ab(values)))
    return Verdict.of(not values.is_zero())


def gain_from_data(d: Dataset) -> GainResult:
    """Feedback gain U- X-^{-1} and the closed loop X+ X-^{-1}, exactly.

    Only applicable when the state block is square and invertible; the
    result's `stabilizing` and float spectral radius are read on demand.
    """
    n = d.section.n
    if d.section.k != n:
        raise GainNotApplicable(f"need k = n = {n} excitations, plan has {d.section.k}")
    x_inv = invert(d.section.x_minus)
    if x_inv is None:
        raise GainNotApplicable("the state block is singular")
    return GainResult(d.section.u_minus @ x_inv, d.x_plus @ x_inv)


# -- one table for every property ---------------------------------------------

@dataclass(frozen=True)
class Identification:
    """What `identify_property` or `counterexample_report` found, one shape for every property.

    `outcome` is has_property, lacks_property, identified, not_identifiable
    or counterexample.  `facts()` gives the (name, value) rows that always
    go with the outcome and `certificate()` the rows that show how the
    verdict was reached; both format only when called.  `q()` gives the Q of
    a zero pattern or a structure, solved on the first call on a plan other
    than the design, and None for the other properties.  A not_identifiable
    outcome of data carries the `span` read that found it, from which
    `distinct_consistent_pair` builds its pair.
    """

    outcome: str
    verdict: Optional[Verdict] = None
    q: Callable[[], Optional[Mat]] = lambda: None
    recovered: Optional[SystemPair] = None
    pair: Optional[CounterexamplePair] = None
    span: Optional[Span] = None
    facts: Callable[[], list] = list
    certificate: Callable[[], list] = list


def system_rows(prefix: str, sys: SystemPair) -> list:
    """The (name, value) rows `<prefix>A` and `<prefix>B` of a system."""
    return [(f"{prefix}A", format_matrix(sys.a)), (f"{prefix}B", format_matrix(sys.b))]


def _identify_model(d: Dataset, problem: Problem) -> Identification:
    result = recover_model(d, problem)
    if isinstance(result, NotIdentifiable):
        return Identification(
            "not_identifiable",
            span=result.span,
            facts=lambda: [("rank", result.stacked_rank), ("deficit", result.deficit)],
        )
    return Identification("identified", recovered=result, facts=lambda: system_rows("", result))


def _of_verdict(verdict: Verdict) -> Identification:
    return Identification(verdict.value, verdict)


def _of_report(res: Union[SparsityReport, StructureReport], checked: Callable[[], list]) -> Identification:
    return Identification(
        res.verdict.value, res.verdict, lambda: res.q, certificate=lambda: [("Q", format_matrix(res.q)), *checked()]
    )


def _identify_pattern(d: Dataset, problem: Problem) -> Identification:
    res = identify_sparsity(d, problem.prop, problem)
    return _of_report(res, lambda: [(f"entry_{e.row}_{e.col}", format_rational(e.value)) for e in res.checked])


def _identify_structure(d: Dataset, problem: Problem) -> Identification:
    res = identify_linear_structure(d, problem.prop, problem)
    return _of_report(
        res,
        lambda: [
            (f"constraint_{i}", f"{format_rational(v)} ({'in' if ok else 'out'})")
            for i, (v, ok) in enumerate(zip(res.values, res.satisfied), start=1)
        ],
    )


class _Entry(NamedTuple):
    identify: Callable[[Dataset, Problem], Identification]
    # the property-split recipe; None for identifiability, a question about data, not one system
    counterexample: Optional[Callable[[InputSection, Problem, int, Span, list], CounterexamplePair]]


_PROPERTIES = {
    Identifiability: _Entry(_identify_model, None),
    Stabilizability: _Entry(lambda d, pb: _of_verdict(identify_stabilizability(d, pb)), counterexample_stabilizability),
    Controllability: _Entry(lambda d, pb: _of_verdict(identify_controllability(d, pb)), counterexample_controllability),
    Sparsity: _Entry(_identify_pattern, counterexample_sparsity),
    LinearStructure: _Entry(_identify_structure, counterexample_structure),
}


def identify_property(d: Dataset, problem: Problem) -> Identification:
    """Apply the identifier that matches the class of the validated problem's property."""
    return _PROPERTIES[type(problem.prop)].identify(d, problem)


def counterexample_report(
    section: InputSection, problem: Problem, seed: int = 0, span: Optional[Span] = None, gaps: Optional[list] = None
) -> Identification:
    """Proof that `section` cannot decide the problem's property: a property-split
    pair, or for identifiability two models sharing zero feedback; SectionIsRich if
    it can.  `span` and `gaps` are what `NotSufficientlyRich` carries, when the identifier
    has read the plan; otherwise the recipe gets one read made here and its `target_gaps`.
    The pair of models reads its zero feedback itself."""
    recipe = _PROPERTIES[type(problem.prop)].counterexample
    if recipe is None:
        zero = Dataset(section, Mat.zeros(section.n, section.k))
        first, second = distinct_consistent_pair(zero)
        return Identification(
            "not_identifiable",
            facts=lambda: [
                *system_rows("system_1_", first),
                *system_rows("system_2_", second),
                ("shared_Xp", format_matrix(zero.x_plus)),
            ],
        )
    span = span or read_span(section.stacked())
    pair = recipe(section, problem, seed, span, target_gaps(span, problem) if gaps is None else gaps)
    shared = Dataset(pair.section, pair.shared_feedback)
    return Identification(
        "counterexample",
        pair=pair,
        facts=lambda: [
            ("seed", seed),
            *system_rows("with_", pair.sys_with),
            *system_rows("without_", pair.sys_without),
            ("shared_Xp", format_matrix(pair.shared_feedback)),
        ],
        certificate=lambda: [
            ("with_consistent", consistent_set_contains(shared, pair.sys_with)),
            ("without_consistent", consistent_set_contains(shared, pair.sys_without)),
            ("with_has_property", problem.holds(pair.sys_with)),
            ("without_has_property", problem.holds(pair.sys_without)),
        ],
    )


def counterexample_for(section: InputSection, p: PropertySpec, seed: int = 0) -> CounterexamplePair:
    """The property-split pair the table's recipe builds for `p`; ValueError for a
    property with no recipe, identifiability, whatever the plan."""
    if _PROPERTIES[type(p)].counterexample is None:
        raise ValueError("identifiability admits no property-split pair; use distinct_consistent_pair")
    return counterexample_report(section, Problem.of(p, section.dims), seed).pair

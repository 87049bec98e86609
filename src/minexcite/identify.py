"""Direct property identification from excitation and feedback data.

All verdicts here are guaranteed.  The target and the design come from a
validated `Problem`, and a plan equal to the design reuses the design's Q.
On any other plan, a zero pattern, a structure or a scalar state's
controllability solves [X-; U-] Q = target once, and that solve is the
richness test; with rich data the property is decided without recovering
the model, by checking entries or traces of X+ Q.  A target of the whole
space (identifiability, stabilizability, controllability) takes one
elimination of [X-; U-]^T beside X+^T instead (`ratmat.read_span`): its
rank decides richness and its transposed solve is the model [A, B], or
shows that no system reproduces the data.  A deficient plan raises
`NotSufficientlyRich` with the missing directions, read off that span's
left kernel, and the span itself, from which the counterexample recipe
reads its certificate; `NotIdentifiable` carries it the same way.
Zero tests are exact; floats appear only in the spectral radius of a
synthesized closed loop, computed when first read.  That radius and the
exact stability verdict share one characteristic polynomial of the loop.

One table maps each property class to its identifier and its
counterexample recipe, every recipe taking (section, problem, seed, span);
`identify_property` and `counterexample_report` take a validated `Problem`
and look its class up there, as `counterexample_for` does for a property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, NoReturn, Optional, Union

from .adversary import (
    CounterexamplePair,
    counterexample_controllability,
    counterexample_sparsity,
    counterexample_stabilizability,
    counterexample_structure,
    distinct_consistent_pair,
)
from .errors import GainNotApplicable, InconsistentDataset, NotSufficientlyRich
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
    Mat,
    SpectralInfo,
    Span,
    characteristic_polynomial,
    format_matrix,
    format_rational,
    invert,
    read_span,
    root_radius_info,
    schur_stable,
    solve_right,
)
from .richness import Dataset, InputSection, consistent_set_contains, missing_directions


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
    verdict: Verdict
    q: Mat
    checked: tuple


@dataclass(frozen=True)
class StructureReport:
    verdict: Verdict
    q: Mat
    values: tuple
    satisfied: tuple


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

    Each is computed on first read, from one exact characteristic polynomial of the closed
    loop.  `stabilizing`, exact, says every root lies strictly inside the unit disc.  For
    display only, `radius` is Newton-polished on the polynomial's square-free part, and
    `marginal` is set when it lies within EIG_MARGIN of 1."""

    gain: Mat
    closed_loop: Mat

    @cached_property
    def _polynomial(self) -> list:
        return characteristic_polynomial(self.closed_loop)

    @cached_property
    def _spectrum(self) -> SpectralInfo:
        return root_radius_info(self._polynomial)

    @cached_property
    def stabilizing(self) -> bool:
        return schur_stable(self._polynomial)

    @property
    def radius(self) -> float:
        return self._spectrum.radius

    @property
    def marginal(self) -> bool:
        return self._spectrum.marginal


def _not_rich(section: InputSection, problem: Problem, span: Span) -> NoReturn:
    """Raise NotSufficientlyRich with the directions `span`, the plan's read, misses."""
    missing = missing_directions(section, problem.prop, problem, span)
    raise NotSufficientlyRich(
        f"plan spans too little: {len(missing)} direction(s) of the minimum subspace missing",
        missing=missing,
        span=span,
    )


def _solve_onto(d: Dataset, problem: Problem) -> Mat:
    """Q with [X-; U-] Q = target, the problem's spanning set of the minimum subspace.

    A plan equal to the design's basis takes the design's q, the only
    solution.  Any other plan takes one solve, which is the richness test:
    no solution means the plan misses a direction of the minimum subspace,
    and one read of the plan's span names them.
    """
    stacked = d.section.stacked()
    if stacked == problem.basis:
        return problem.q
    q = solve_right(stacked, problem.target)
    if q is None:
        _not_rich(d.section, problem, read_span(stacked))
    return q


def identify_sparsity(d: Dataset, p: Sparsity, problem: Optional[Problem] = None) -> SparsityReport:
    """Decide a zero pattern directly from data.

    Q solves [X-; U-] Q = [e_i for affected columns i]; the pattern holds
    exactly when every queried entry of X+ Q vanishes.  Every identifier
    takes `problem` when the caller has already validated `p` for the data.
    """
    problem = problem or Problem.of(p, d.section.dims)
    q = _solve_onto(d, problem)
    product = d.x_plus @ q
    position = {c: l for l, c in enumerate(sparsity_columns(p, problem.dims))}
    checked = [CheckedEntry(r, c, product[r - 1, position[c - 1]]) for r, c in p.positions(problem.dims.n)]
    verdict = Verdict.of(all(e.value == 0 for e in checked))
    return SparsityReport(verdict, q, tuple(checked))


def identify_linear_structure(
    d: Dataset, p: LinearStructure, problem: Optional[Problem] = None
) -> StructureReport:
    """Decide an and/or combination of linear constraints from data.

    With [X-; U-] Q equal to the constraint matrix, the trace of the i-th
    n-column block of X+ Q is exactly the i-th constraint value of the
    unknown system; each value is tested for set membership and the
    results are folded through the expression.
    """
    q = _solve_onto(d, problem or Problem.of(p, d.section.dims))
    values = block_traces(d.x_plus @ q, d.section.n)
    satisfied = tuple(c.values.contains(v) for c, v in zip(p.constraints, values))
    verdict = Verdict.of(evaluate_expr(p.expr, satisfied))
    return StructureReport(verdict, q, values, satisfied)


def recover_model(d: Dataset, problem: Optional[Problem] = None) -> Union[SystemPair, NotIdentifiable]:
    """Unique exact model when the plan is persistently exciting.

    Raises InconsistentDataset when no linear system reproduces the data,
    which can only happen on corrupted input.
    """
    model = _model_or_span(d, problem or Problem.of(Identifiability(), d.section.dims))
    if isinstance(model, Span):
        return NotIdentifiable(model.rank, d.section.dims.total - model.rank, model)
    return model


def _model_or_span(d: Dataset, problem: Problem) -> Union[SystemPair, Span]:
    """The one consistent model for a target of I, or the plan's span when it is deficient.

    The designed plan I gives [A, B] = X+ Q.  Any other plan takes one
    elimination of [X-; U-]^T beside X+^T: a rank short of n+m is returned as
    the span read, else [A, B] is the transposed solve Z^T, which exists
    exactly when some linear system reproduces the data.
    """
    stacked = d.section.stacked()
    if stacked == problem.basis:
        return SystemPair.from_ab(d.x_plus @ problem.q)
    span = read_span(stacked, d.x_plus)
    if span.rank < stacked.rows:
        return span
    if span.solution is None:
        raise InconsistentDataset("no linear system reproduces this dataset")
    return SystemPair.from_ab(span.solution.T)


def _full_model(d: Dataset, problem: Problem) -> SystemPair:
    """The one consistent model; NotSufficientlyRich when the plan is deficient."""
    model = _model_or_span(d, problem)
    if isinstance(model, Span):
        _not_rich(d.section, problem, model)
    return model


def identify_stabilizability(d: Dataset, problem: Optional[Problem] = None) -> Verdict:
    """Stabilizability needs full excitation, so recover and test the model."""
    problem = problem or Problem.of(Stabilizability(), d.section.dims)
    return Verdict.of(is_stabilizable(_full_model(d, problem)))


def identify_controllability(d: Dataset, problem: Optional[Problem] = None) -> Verdict:
    """Controllability test; for a scalar state only the input block matters.

    With one state the plan need not be persistently exciting: X+ Q =
    [A, B] [e_2, ..., e_(m+1)] is the B every consistent model shares, and
    controllability is B != 0.  Some model is consistent exactly when
    X+ - B U- is a multiple a X- of the state row, with A = a.
    """
    problem = problem or Problem.of(Controllability(), d.section.dims)
    if d.section.n > 1:
        return Verdict.of(is_controllable(_full_model(d, problem)))
    b = d.x_plus @ _solve_onto(d, problem)
    x, rest = d.section.x_minus, d.x_plus - b @ d.section.u_minus
    a = next((r / v for r, v in zip(rest.row_list(0), x.row_list(0)) if v), 0)
    if rest != x * a:
        raise InconsistentDataset("no linear system reproduces this dataset")
    return Verdict.of(not b.is_zero())


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
    verdict was reached; both format only when called.  A not_identifiable
    outcome of data carries the `span` read that found it, from which
    `distinct_consistent_pair` builds its pair.
    """

    outcome: str
    verdict: Optional[Verdict] = None
    q: Optional[Mat] = None
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
        res.verdict.value, res.verdict, res.q, certificate=lambda: [("Q", format_matrix(res.q)), *checked()]
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
    counterexample: Optional[Callable[[InputSection, Problem, int, Span], CounterexamplePair]]


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
    section: InputSection, problem: Problem, seed: int = 0, span: Optional[Span] = None
) -> Identification:
    """Proof that `section` cannot decide the problem's property: a property-split
    pair, or for identifiability two models sharing zero feedback; SectionIsRich if
    it can.  `span` is the plan's read that `NotSufficientlyRich` carries, when the
    identifier has made one; otherwise the recipe gets one read made here.  The
    pair of models reads its zero feedback itself."""
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
    pair = recipe(section, problem, seed, span or read_span(section.stacked()))
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

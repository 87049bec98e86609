"""Direct property identification from excitation and feedback data.

All verdicts here are guaranteed.  Each identifier solves
[X-; U-] Q = target once, for a target that spans the property's minimum
subspace, and that solve is the richness test: when it has no solution
the plan is not sufficiently rich and `NotSufficientlyRich` is raised
with the unspanned directions.  With rich data a structure is decided
without recovering the model, by checking entries or traces of X+ Q.
Zero tests are exact; floats appear only in the spectral radius of a
synthesized closed loop and in the stabilizability test.  That radius is
Newton-polished on the square-free part of the closed loop's exact
characteristic polynomial, so repeated eigenvalues keep full accuracy.

One table maps each property class to its identifier and its
counterexample recipe; `identify_property`, `counterexample_report` and
`counterexample_for` look the class up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
    PropertySpec,
    Sparsity,
    Stabilizability,
    SystemPair,
    build_constraint_matrix,
    evaluate_expr,
    has_property,
    is_controllable,
    is_stabilizable,
    minimum_subspace,
    sparsity_columns,
    validate_property,
)
from .ratmat import Mat, format_matrix, format_rational, invert, rank, solve_right, spectral_radius_info
from .richness import (
    Dataset,
    InputSection,
    _any_consistent_model,
    consistent_set_contains,
    missing_directions,
)


class Verdict(Enum):
    HAS_PROPERTY = "has_property"
    LACKS_PROPERTY = "lacks_property"

    @property
    def holds(self) -> bool:
        return self is Verdict.HAS_PROPERTY

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
    """Model recovery failed: the stacked plan is rank deficient."""

    stacked_rank: int
    deficit: int


@dataclass(frozen=True)
class GainResult:
    """Feedback gain read off square invertible state data.

    `radius` is the spectral radius of the closed loop, Newton-polished on
    the square-free part of its exact characteristic polynomial at every
    size; the caller decides success, conventionally radius < 1 - margin,
    and should distrust any verdict when `marginal` is set.
    """

    gain: Mat
    closed_loop: Mat
    radius: float
    marginal: bool


def _solve_onto(d: Dataset, p: PropertySpec, target: Mat) -> Mat:
    """Q with [X-; U-] Q = target, a spanning set of the minimum subspace of p.

    The solve is the richness test: no solution means the plan misses a
    direction of the minimum subspace.
    """
    q = solve_right(d.section.stacked(), target)
    if q is None:
        missing = missing_directions(d.section, p)
        raise NotSufficientlyRich(
            f"plan spans too little: {len(missing)} direction(s) of the minimum subspace missing",
            missing=missing,
        )
    return q


def identify_sparsity(d: Dataset, p: Sparsity) -> SparsityReport:
    """Decide a zero pattern directly from data.

    Q solves [X-; U-] Q = [e_i for affected columns i]; the pattern holds
    exactly when every queried entry of X+ Q vanishes.
    """
    dims = d.section.dims
    validate_property(p, dims)
    cols = sparsity_columns(p, dims)
    q = _solve_onto(d, p, Mat.hstack([Mat.unit_column(dims.total, i) for i in cols]))
    product = d.x_plus @ q
    position = {c: l for l, c in enumerate(cols)}
    checked = [CheckedEntry(r, c, product[r - 1, position[c - 1]]) for r, c in p.positions(dims.n)]
    verdict = Verdict.of(all(e.value == 0 for e in checked))
    return SparsityReport(verdict, q, tuple(checked))


def identify_linear_structure(d: Dataset, p: LinearStructure) -> StructureReport:
    """Decide an and/or combination of linear constraints from data.

    With [X-; U-] Q equal to the constraint matrix, the trace of the i-th
    n-column block of X+ Q is exactly the i-th constraint value of the
    unknown system; each value is tested for set membership and the
    results are folded through the expression.
    """
    dims = d.section.dims
    validate_property(p, dims)
    q = _solve_onto(d, p, build_constraint_matrix(p.constraints, dims))
    product = d.x_plus @ q
    n = dims.n
    values = []
    for i in range(len(p.constraints)):
        block = product.take_cols(range(i * n, (i + 1) * n))
        values.append(block.trace())
    satisfied = tuple(c.values.contains(v) for c, v in zip(p.constraints, values))
    verdict = Verdict.of(evaluate_expr(p.expr, satisfied))
    return StructureReport(verdict, q, tuple(values), satisfied)


def recover_model(d: Dataset) -> Union[SystemPair, NotIdentifiable]:
    """Unique exact model when the plan is persistently exciting.

    Raises InconsistentDataset when no linear system reproduces the data,
    which can only happen on corrupted input.
    """
    stacked = d.section.stacked()
    r = rank(stacked)
    total = d.section.dims.total
    if r < total:
        return NotIdentifiable(stacked_rank=r, deficit=total - r)
    return _any_consistent_model(d)


def _consistent_model_if_rich(d: Dataset, p: PropertySpec) -> SystemPair:
    """A consistent model, once the plan is found rich for `p`.

    The minimum subspace of `p` is the whole space or, for one state, the
    input block; either way every consistent model is equal where `p` looks.
    """
    _solve_onto(d, p, minimum_subspace(p, d.section.dims).basis)
    return _any_consistent_model(d)


def identify_stabilizability(d: Dataset) -> Verdict:
    """Stabilizability needs full excitation, so recover and test the model."""
    return Verdict.of(is_stabilizable(_consistent_model_if_rich(d, Stabilizability())))


def identify_controllability(d: Dataset) -> Verdict:
    """Controllability test; for a scalar state only the input block matters.

    With one state the plan need not be persistently exciting: any
    consistent model shares its B, and controllability is B != 0.
    """
    sys = _consistent_model_if_rich(d, Controllability())
    if d.section.n == 1:
        return Verdict.of(not sys.b.is_zero())
    return Verdict.of(is_controllable(sys))


def gain_from_data(d: Dataset) -> GainResult:
    """Feedback gain U- X-^{-1} and the closed loop X+ X-^{-1}, exactly.

    Only applicable when the state block is square and invertible; the
    spectral radius of the closed loop is computed in floating point.
    """
    n = d.section.n
    if d.section.k != n:
        raise GainNotApplicable(f"need k = n = {n} excitations, plan has {d.section.k}")
    x_inv = invert(d.section.x_minus)
    if x_inv is None:
        raise GainNotApplicable("the state block is singular")
    closed_loop = d.x_plus @ x_inv
    info = spectral_radius_info(closed_loop)
    return GainResult(d.section.u_minus @ x_inv, closed_loop, info.radius, info.marginal)


# -- one table for every property ---------------------------------------------

@dataclass(frozen=True)
class Identification:
    """What `identify_property` or `counterexample_report` found, one shape for every property.

    `outcome` is has_property, lacks_property, identified, not_identifiable
    or counterexample.  `facts()` gives the (name, value) rows that always
    go with the outcome and `certificate()` the rows that show how the
    verdict was reached; both format only when called.
    """

    outcome: str
    verdict: Optional[Verdict] = None
    q: Optional[Mat] = None
    recovered: Optional[SystemPair] = None
    pair: Optional[CounterexamplePair] = None
    facts: Callable[[], list] = list
    certificate: Callable[[], list] = list


def system_rows(prefix: str, sys: SystemPair) -> list:
    """The (name, value) rows `<prefix>A` and `<prefix>B` of a system."""
    return [(f"{prefix}A", format_matrix(sys.a)), (f"{prefix}B", format_matrix(sys.b))]


def _identify_model(d: Dataset, p: Identifiability) -> Identification:
    result = recover_model(d)
    if isinstance(result, NotIdentifiable):
        return Identification(
            "not_identifiable", facts=lambda: [("rank", result.stacked_rank), ("deficit", result.deficit)]
        )
    return Identification("identified", recovered=result, facts=lambda: system_rows("", result))


def _of_verdict(verdict: Verdict) -> Identification:
    return Identification(verdict.value, verdict)


def _of_report(res: Union[SparsityReport, StructureReport], checked: Callable[[], list]) -> Identification:
    return Identification(
        res.verdict.value, res.verdict, res.q, certificate=lambda: [("Q", format_matrix(res.q)), *checked()]
    )


def _identify_pattern(d: Dataset, p: Sparsity) -> Identification:
    res = identify_sparsity(d, p)
    return _of_report(
        res, lambda: [(f"entry_{e.row}_{e.col}", format_rational(e.value)) for e in res.checked]
    )


def _identify_structure(d: Dataset, p: LinearStructure) -> Identification:
    res = identify_linear_structure(d, p)
    return _of_report(
        res,
        lambda: [
            (f"constraint_{i}", f"{format_rational(v)} ({'in' if ok else 'out'})")
            for i, (v, ok) in enumerate(zip(res.values, res.satisfied), start=1)
        ],
    )


def _model_pair(section: InputSection, p: Identifiability, seed: int) -> Identification:
    """Two distinct systems sharing the feedback of the zero system."""
    shared = Dataset(section, Mat.zeros(section.n, section.k))
    first, second = distinct_consistent_pair(shared)
    return Identification(
        "not_identifiable",
        facts=lambda: [
            *system_rows("system_1_", first),
            *system_rows("system_2_", second),
            ("shared_Xp", format_matrix(shared.x_plus)),
        ],
    )


def _split(pair: CounterexamplePair, p: PropertySpec, seed: int) -> Identification:
    """The report of a pair that shares one dataset and of which exactly one system has `p`."""
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
            ("with_has_property", has_property(pair.sys_with, p)),
            ("without_has_property", has_property(pair.sys_without, p)),
        ],
    )


class _Entry(NamedTuple):
    identify: Callable[[Dataset, PropertySpec], Identification]
    counterexample: Callable[[InputSection, PropertySpec, int], Identification]


_PROPERTIES = {
    Identifiability: _Entry(_identify_model, _model_pair),
    Stabilizability: _Entry(
        lambda d, p: _of_verdict(identify_stabilizability(d)),
        lambda s, p, seed: _split(counterexample_stabilizability(s), p, seed),
    ),
    Controllability: _Entry(
        lambda d, p: _of_verdict(identify_controllability(d)),
        lambda s, p, seed: _split(counterexample_controllability(s), p, seed),
    ),
    Sparsity: _Entry(
        _identify_pattern, lambda s, p, seed: _split(counterexample_sparsity(s, p, seed), p, seed)
    ),
    LinearStructure: _Entry(
        _identify_structure, lambda s, p, seed: _split(counterexample_structure(s, p, seed), p, seed)
    ),
}


def identify_property(d: Dataset, p: PropertySpec) -> Identification:
    """Apply the identifier that matches the class of `p`."""
    return _PROPERTIES[type(p)].identify(d, p)


def counterexample_report(section: InputSection, p: PropertySpec, seed: int = 0) -> Identification:
    """Proof that `section` cannot decide `p`: a property-split pair, or for
    identifiability two models sharing zero feedback; SectionIsRich if it can."""
    return _PROPERTIES[type(p)].counterexample(section, p, seed)


def counterexample_for(section: InputSection, p: PropertySpec, seed: int = 0) -> CounterexamplePair:
    """The property-split pair the table's recipe builds for `p`."""
    pair = counterexample_report(section, p, seed).pair
    if pair is None:
        raise ValueError("identifiability admits no property-split pair; use distinct_consistent_pair")
    return pair

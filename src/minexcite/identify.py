"""Direct property identification from excitation and feedback data.

All verdicts here are guaranteed.  Each identifier solves
[X-; U-] Q = target once, for a target that spans the property's minimum
subspace, and that solve is the richness test: when it has no solution
the plan is not sufficiently rich and `NotSufficientlyRich` is raised
with the unspanned directions.  With rich data a structure is decided
without recovering the model, by checking entries or traces of X+ Q.
Zero tests are exact; floats appear only in the spectral radius of a
synthesized closed loop and in the stabilizability test.

`identify_property` dispatches on the property class through one table
and returns an `Identification`, the same shape for every property.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    DimensionMismatch,
    GainNotApplicable,
    InconsistentDataset,
    NotSufficientlyRich,
)
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
    is_controllable,
    is_stabilizable,
    minimum_subspace,
    sparsity_columns,
    validate_property,
)
from .ratmat import (
    Mat,
    as_rational,
    format_matrix,
    format_rational,
    invert,
    rank,
    solve_right,
    spectral_radius_info,
)
from .richness import Dataset, missing_directions


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

    `radius` is the spectral radius of the closed loop; the caller decides
    success, conventionally radius < 1 - margin, and should distrust any
    verdict when `marginal` is set.
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


def consistent_set_contains(d: Dataset, sys: SystemPair) -> bool:
    """True when the candidate reproduces the dataset exactly."""
    if sys.n != d.section.n or sys.m != d.section.m:
        raise DimensionMismatch("candidate dimensions do not match the data")
    return sys.a @ d.section.x_minus + sys.b @ d.section.u_minus == d.x_plus


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
    checked = []
    for r, c in sorted(p.zeros_a):
        checked.append(CheckedEntry(r, c, product[r - 1, position[c - 1]]))
    for r, c in sorted(p.zeros_b):
        checked.append(CheckedEntry(r, dims.n + c, product[r - 1, position[dims.n + c - 1]]))
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


def _any_consistent_model(d: Dataset) -> SystemPair:
    """Some exact member of the consistent set (free directions set to 0)."""
    z = solve_right(d.section.stacked().T, d.x_plus.T)
    if z is None:
        raise InconsistentDataset("no linear system reproduces this dataset")
    ab = z.T
    n, m = d.section.n, d.section.m
    return SystemPair(ab.take_cols(range(n)), ab.take_cols(range(n, n + m)))


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


def dataset_rank_test(d: Dataset, lam) -> int:
    """Exact rank of X+ - lambda X- for a rational lambda.

    A value of at most n-1 at some |lambda| >= 1 certifies that this
    dataset cannot establish stabilizability.
    """
    lam = as_rational(lam)
    return rank(d.x_plus - lam * d.section.x_minus)


# -- one table for every property ---------------------------------------------

@dataclass(frozen=True)
class Identification:
    """What `identify_property` decided, in one shape for every property.

    `outcome` is has_property, lacks_property, identified or
    not_identifiable.  `facts()` gives the (name, value) rows that always go
    with the outcome and `certificate()` the rows that show how the verdict
    was reached; both format only when called.
    """

    outcome: str
    verdict: Optional[Verdict] = None
    q: Optional[Mat] = None
    recovered: Optional[SystemPair] = None
    facts: Callable[[], list] = list
    certificate: Callable[[], list] = list


def _identify_model(d: Dataset, p: Identifiability) -> Identification:
    result = recover_model(d)
    if isinstance(result, NotIdentifiable):
        return Identification(
            "not_identifiable", facts=lambda: [("rank", result.stacked_rank), ("deficit", result.deficit)]
        )
    return Identification(
        "identified",
        recovered=result,
        facts=lambda: [("A", format_matrix(result.a)), ("B", format_matrix(result.b))],
    )


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


class _Entry(NamedTuple):
    label: Callable[[PropertySpec], str]
    identify: Callable[[Dataset, PropertySpec], Identification]


_PROPERTIES = {
    Identifiability: _Entry(lambda p: "identifiability", _identify_model),
    Stabilizability: _Entry(
        lambda p: "stabilizability", lambda d, p: _of_verdict(identify_stabilizability(d))
    ),
    Controllability: _Entry(
        lambda p: "controllability", lambda d, p: _of_verdict(identify_controllability(d))
    ),
    Sparsity: _Entry(lambda p: f"sparsity({len(p.zeros_a) + len(p.zeros_b)} zeros)", _identify_pattern),
    LinearStructure: _Entry(
        lambda p: f"structure({len(p.constraints)} constraints, {p.mode.value})", _identify_structure
    ),
}


def property_label(p: PropertySpec) -> str:
    return _PROPERTIES[type(p)].label(p)


def identify_property(d: Dataset, p: PropertySpec) -> Identification:
    """Apply the identifier that matches the class of `p`."""
    return _PROPERTIES[type(p)].identify(d, p)

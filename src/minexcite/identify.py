"""Direct property identification from excitation and feedback data.

All verdicts here are guaranteed: the plan must be sufficiently rich for
the queried property, otherwise `NotSufficientlyRich` is raised with the
unspanned directions.  With rich data a structure is decided without
recovering the model, by checking entries or traces of X+ Q where Q maps
the excitation columns onto the relevant basis vectors.  Zero tests are
exact; floats appear only in the spectral radius of a synthesized closed
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import (
    DimensionMismatch,
    GainNotApplicable,
    InconsistentDataset,
    InternalFault,
    NotSufficientlyRich,
)
from .properties import (
    Controllability,
    LinearStructure,
    PropertySpec,
    Sparsity,
    Stabilizability,
    SystemPair,
    build_constraint_matrix,
    evaluate_expr,
    is_controllable,
    is_stabilizable,
    sparsity_columns,
    validate_property,
)
from .ratmat import (
    Mat,
    as_rational,
    rank,
    solve_right,
    spectral_radius_info,
)
from .richness import Dataset, is_sufficiently_rich, missing_directions


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


def _require_rich(d: Dataset, p: PropertySpec) -> None:
    if not is_sufficiently_rich(d.section, p):
        missing = missing_directions(d.section, p)
        raise NotSufficientlyRich(
            f"plan spans too little: {len(missing)} direction(s) of the minimum subspace missing",
            missing=missing,
        )


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
    _require_rich(d, p)
    cols = sparsity_columns(p, dims)
    targets = Mat.hstack([Mat.unit_column(dims.total, i) for i in cols])
    q = solve_right(d.section.stacked(), targets)
    if q is None:
        raise InternalFault("rich data must map onto the affected unit directions")
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
    _require_rich(d, p)
    target = build_constraint_matrix(p.constraints, dims)
    q = solve_right(d.section.stacked(), target)
    if q is None:
        raise InternalFault("rich data must map onto the constraint matrix")
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


def identify_stabilizability(d: Dataset) -> Verdict:
    """Stabilizability needs full excitation, so recover and test the model."""
    _require_rich(d, Stabilizability())
    sys = recover_model(d)
    if isinstance(sys, NotIdentifiable):
        raise InternalFault("full-span data must identify the model")
    return Verdict.of(is_stabilizable(sys))


def identify_controllability(d: Dataset) -> Verdict:
    """Controllability test; for a scalar state only the input block matters.

    With one state the plan need not be persistently exciting: any
    consistent model shares its B, and controllability is B != 0.
    """
    dims = d.section.dims
    validate_property(Controllability(), dims)
    _require_rich(d, Controllability())
    if dims.n == 1:
        sys = _any_consistent_model(d)
        return Verdict.of(not sys.b.is_zero())
    sys = recover_model(d)
    if isinstance(sys, NotIdentifiable):
        raise InternalFault("full-span data must identify the model")
    return Verdict.of(is_controllable(sys))


def gain_from_data(d: Dataset) -> GainResult:
    """Feedback gain U- X-^{-1} and the closed loop X+ X-^{-1}, exactly.

    Only applicable when the state block is square and invertible; the
    spectral radius of the closed loop is computed in floating point.
    """
    n = d.section.n
    x = d.section.x_minus
    if d.section.k != n:
        raise GainNotApplicable(f"need k = n = {n} excitations, plan has {d.section.k}")
    if rank(x) < n:
        raise GainNotApplicable("the state block is singular")
    gain_t = solve_right(x.T, d.section.u_minus.T)
    loop_t = solve_right(x.T, d.x_plus.T)
    if gain_t is None or loop_t is None:
        raise InternalFault("invertible state block must admit exact solves")
    closed_loop = loop_t.T
    info = spectral_radius_info(closed_loop)
    return GainResult(gain_t.T, closed_loop, info.radius, info.marginal)


def dataset_rank_test(d: Dataset, lam) -> int:
    """Exact rank of X+ - lambda X- for a rational lambda.

    A value of at most n-1 at some |lambda| >= 1 certifies that this
    dataset cannot establish stabilizability.
    """
    lam = as_rational(lam)
    return rank(d.x_plus - lam * d.section.x_minus)

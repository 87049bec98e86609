"""Sufficient richness checks and minimum excitation design.

An excitation plan is a set of k one-step experiments, each a pair of
initial state and input; stacked, the columns span a subspace of
R^(n+m).  A plan can decide a property for every system consistent with
the resulting data exactly when that subspace contains the property's
minimum subspace, and any basis of the minimum subspace is a minimum
excitation.  So the richness test is one solve: the plan is rich exactly
when [X-; U-] Q = target has a solution, for a `Problem`'s target that
spans that subspace; it is the solve each identifier makes anyway.  Design
is picking a basis, and its elimination also gives the q with basis q =
target, so a plan equal to the design reuses that q with no solve.  The
missing directions of a deficient plan are the basis columns that the
left kernel Y of the plan does not annihilate: a product Y^T basis once
an identifier has read the plan (`ratmat.read_span`), else one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch
from .properties import Dims, Problem, PropertySpec, SystemPair
from .ratmat import Mat, Span, unspanned_columns


@dataclass(frozen=True)
class InputSection:
    """Excitation plan: column i holds the i-th experiment's state and input."""

    x_minus: Mat
    u_minus: Mat

    def __post_init__(self):
        if self.x_minus.cols != self.u_minus.cols:
            raise DimensionMismatch("state and input blocks need equal column counts")
        if self.x_minus.cols < 1:
            raise DimensionMismatch("an excitation plan needs at least one column")

    @property
    def n(self) -> int:
        return self.x_minus.rows

    @property
    def m(self) -> int:
        return self.u_minus.rows

    @property
    def k(self) -> int:
        return self.x_minus.cols

    @property
    def dims(self) -> Dims:
        return Dims(self.n, self.m)

    def stacked(self) -> Mat:
        return Mat.vstack([self.x_minus, self.u_minus])


@dataclass(frozen=True)
class Dataset:
    """Excitation plan together with the observed one-step responses."""

    section: InputSection
    x_plus: Mat

    def __post_init__(self):
        if self.x_plus.cols != self.section.k:
            raise DimensionMismatch("responses must be column-aligned with the plan")
        if self.x_plus.rows != self.section.n:
            raise DimensionMismatch("responses live in the state space")


def consistent_set_contains(d: Dataset, sys: SystemPair) -> bool:
    """True when the candidate reproduces the dataset exactly."""
    if sys.n != d.section.n or sys.m != d.section.m:
        raise DimensionMismatch("candidate dimensions do not match the data")
    return sys.a @ d.section.x_minus + sys.b @ d.section.u_minus == d.x_plus


def is_sufficiently_rich(section: InputSection, p: PropertySpec, problem: Optional[Problem] = None) -> bool:
    """True when the plan decides `p` no matter what responses come back."""
    return not unspanned_columns(section.stacked(), (problem or Problem.of(p, section.dims)).target)


def missing_directions(
    section: InputSection, p: PropertySpec, problem: Optional[Problem] = None, span: Optional[Span] = None
) -> list:
    """Basis columns of the minimum subspace the plan fails to span: a product
    with `span`, the caller's read of the plan, else one elimination."""
    basis = (problem or Problem.of(p, section.dims)).minimum_basis()
    missed = span.unspanned(basis) if span else unspanned_columns(section.stacked(), basis)
    return [basis.col(j) for j in missed]


def split_stacked(stacked: Mat, dims: Dims) -> InputSection:
    """Partition an (n+m) x k matrix into its state and input blocks."""
    if stacked.rows != dims.total:
        raise DimensionMismatch(f"expected {dims.total} rows, got {stacked.rows}")
    k, cut, nums, den = stacked.cols, dims.n * stacked.cols, stacked._nums, stacked._den
    return InputSection(Mat._make(dims.n, k, nums[:cut], den), Mat._make(dims.m, k, nums[cut:], den))


def design_minimum_input(p: PropertySpec, dims: Dims, problem: Optional[Problem] = None) -> InputSection:
    """Smallest excitation plan that is sufficiently rich for `p`.

    The plan is the design's basis of the minimum subspace: unit vectors
    when that subspace is coordinate-aligned, the pivot columns of the
    constraint matrix otherwise, so designs are reproducible.
    """
    return split_stacked((problem or Problem.of(p, dims)).minimum_basis(), dims)

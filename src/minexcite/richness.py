"""Sufficient richness checks and minimum excitation design.

An excitation plan is a set of k one-step experiments, each a pair of
initial state and input; stacked, the columns span a subspace of R^(n+m).
A system on a plan is one product, X+ = [A, B] [X-; U-] (`feedback`), of
blocks the pair and the plan each build once; consistency is that product
equal to the data.  A plan decides a property for every consistent system
exactly when its span contains the property's minimum subspace, and any
basis of that subspace is a minimum excitation.  So a plan is rich exactly
when [X-; U-] Q = target is solvable, for a `Problem`'s target spanning
that subspace.  Richness is one read of the plan (`ratmat.read_span`), the
one an identifier also makes beside its data, and `spans_target` is its one
test: rank n+m for the target I, else a left kernel Y that annihilates every
target column.  Design picks a basis, whose elimination also gives q with
basis q = target, so a plan equal to the design reuses that q.  The missing
directions of a deficient plan are the basis columns Y does not annihilate,
on the caller's read or one made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import DimensionMismatch
from .properties import Dims, Problem, PropertySpec, SystemPair
from .ratmat import Mat, Span, read_span


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

    _stacked = cached_property(lambda self: Mat.vstack([self.x_minus, self.u_minus]))

    def stacked(self) -> Mat:
        """The (n+m) x k plan [X-; U-], built once and kept outside equality, hash and repr."""
        return self._stacked


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


def feedback(sys: SystemPair, section: InputSection) -> Mat:
    """The data equation X+ = [A, B] [X-; U-]: one product of the kept blocks."""
    if sys.n != section.n or sys.m != section.m:
        raise DimensionMismatch("system and plan dimensions do not match")
    return sys.ab() @ section.stacked()


def consistent_set_contains(d: Dataset, sys: SystemPair) -> bool:
    """True when the candidate reproduces the dataset exactly."""
    return feedback(sys, d.section) == d.x_plus


def spans_target(span: Span, problem: Problem) -> bool:
    """True when the plan read as `span` holds every column of the problem's target: for the
    target I by the rank alone, else, even for n+m columns of lower rank, by the product of
    its left kernel with the target."""
    if problem.target == Mat.identity(problem.dims.total):
        return span.rank == problem.dims.total
    return not span.unspanned(problem.target)


def is_sufficiently_rich(section: InputSection, p: PropertySpec) -> bool:
    """True when the plan decides `p` no matter what responses come back."""
    return spans_target(read_span(section.stacked()), Problem.of(p, section.dims))


def missing_directions(
    section: InputSection, p: PropertySpec, problem: Optional[Problem] = None, span: Optional[Span] = None
) -> list:
    """Basis columns of the minimum subspace the plan fails to span: a product
    with `span`, the caller's read of the plan, else with one read made here."""
    basis = (problem or Problem.of(p, section.dims)).minimum_basis()
    return [basis.col(j) for j in (span or read_span(section.stacked())).unspanned(basis)]


def split_stacked(stacked: Mat, dims: Dims) -> InputSection:
    """Partition an (n+m) x k matrix into its state and input blocks."""
    if stacked.rows != dims.total:
        raise DimensionMismatch(f"expected {dims.total} rows, got {stacked.rows}")
    k, cut, nums, den = stacked.cols, dims.n * stacked.cols, stacked._nums, stacked._den
    section = InputSection(Mat._make(dims.n, k, nums[:cut], den), Mat._make(dims.m, k, nums[cut:], den))
    section.__dict__["_stacked"] = stacked
    return section


def design_minimum_input(p: PropertySpec, dims: Dims, problem: Optional[Problem] = None) -> InputSection:
    """Smallest excitation plan that is sufficiently rich for `p`.

    The plan is the design's basis of the minimum subspace: unit vectors
    when that subspace is coordinate-aligned, the pivot columns of the
    constraint matrix otherwise, so designs are reproducible.
    """
    return split_stacked((problem or Problem.of(p, dims)).minimum_basis(), dims)

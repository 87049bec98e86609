"""Sufficient richness checks and minimum excitation design.

An excitation plan is a set of k one-step experiments, each a pair of
initial state and input; stacked, the columns span a subspace of R^(n+m).
A system on a plan is one product, X+ = [A, B] [X-; U-] (`feedback`), of
the matrices the pair and the plan each keep whole; consistency is that
product equal to the data.  A plan decides a property for every consistent system
exactly when its span contains the property's minimum subspace, and any
basis of that subspace is a minimum excitation.  So a plan is rich exactly
when [X-; U-] Q = target is solvable, for a `Problem`'s target spanning
that subspace.  Richness is one read of the plan (`ratmat.read_span`), the
one an identifier also makes beside its data, and `target_gaps` its one
test, for every property: the list of target columns that the plan's left
kernel Y does not annihilate, empty at rank n+m.  Design picks a basis, whose
elimination also gives q with basis q = target, so a plan equal to the design
reuses that q.  The basis is some of the target's columns, so the missing
directions of a deficient plan are a selection from those gaps, the caller's
or those of one read made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import DimensionMismatch
from .properties import Dims, Problem, PropertySpec, SystemPair, Whole
from .ratmat import Mat, Span, read_span


class InputSection(Whole):
    """Excitation plan, kept as its one (n+m) x k matrix [X-; U-], column i the i-th experiment's
    state and input, so `split_stacked` copies nothing and a run reads [X-; U-] alone."""

    _blocks = ("x_minus", "u_minus")

    def __init__(self, x_minus: Mat, u_minus: Mat):
        if x_minus.cols != u_minus.cols:
            raise DimensionMismatch("state and input blocks need equal column counts")
        self._keep(Mat.vstack([x_minus, u_minus]), x_minus.rows)
        self.__dict__.update(x_minus=x_minus, u_minus=u_minus)

    def _keep(self, stacked: Mat, n: int) -> None:
        if stacked.cols < 1:
            raise DimensionMismatch("an excitation plan needs at least one column")
        self.__dict__.update(_whole=stacked, n=n)

    def _cut(self, lo: int, hi: int) -> Mat:  # rows lo to hi of [X-; U-]
        return Mat._make(hi - lo, self.k, self._whole._nums[lo * self.k : hi * self.k], self._whole._den)

    x_minus = cached_property(lambda self: self._cut(0, self.n))
    u_minus = cached_property(lambda self: self._cut(self.n, self._whole.rows))
    m = property(lambda self: self._whole.rows - self.n)
    k = property(lambda self: self._whole.cols)

    def stacked(self) -> Mat:
        """The (n+m) x k plan [X-; U-]."""
        return self._whole


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


def target_gaps(span: Span, problem: Problem) -> list:
    """Indices of the target's columns outside the plan read as `span`, ascending: none at
    rank n+m, else those its left kernel does not annihilate."""
    return [] if span.rank == problem.dims.total else span.unspanned(problem.target)


def is_sufficiently_rich(section: InputSection, p: PropertySpec) -> bool:
    """True when the plan decides `p` no matter what responses come back."""
    return not target_gaps(read_span(section.stacked()), Problem.of(p, section.dims))


def missing_directions(
    section: InputSection, p: PropertySpec, problem: Optional[Problem] = None, gaps: Optional[list] = None
) -> list:
    """Basis columns of the minimum subspace the plan fails to span: the target columns at
    `Problem.basis_columns` among `gaps`, the caller's `target_gaps` of the plan, or those of
    one read made here; the basis columns are found only when some gap exists."""
    problem = problem or Problem.of(p, section.dims)
    if gaps is None:
        gaps = target_gaps(read_span(section.stacked()), problem)
    return [problem.target.col(j) for j in gaps if j in problem.basis_columns]


def split_stacked(stacked: Mat, dims: Dims) -> InputSection:
    """The plan whose matrix [X-; U-] is `stacked`, which it keeps, with n = dims.n state rows."""
    if stacked.rows != dims.total:
        raise DimensionMismatch(f"expected {dims.total} rows, got {stacked.rows}")
    section = InputSection.__new__(InputSection)
    section._keep(stacked, dims.n)
    return section


def design_minimum_input(p: PropertySpec, dims: Dims, problem: Optional[Problem] = None) -> InputSection:
    """Smallest excitation plan that is sufficiently rich for `p`.

    The plan is the design's basis of the minimum subspace: unit vectors
    when that subspace is coordinate-aligned, the pivot columns of the
    constraint matrix otherwise, so designs are reproducible.
    """
    return split_stacked((problem or Problem.of(p, dims)).minimum_basis(), dims)

"""Property descriptions and their minimum excitation subspaces.

A property is a subset of the linear systems (A, B) with A of size n x n
and B of size n x m.  The catalog covers parameter identifiability,
stabilizability, controllability, sparsity patterns of [A, B], and
linearly constrained structures combined with intersections and unions.

Each property determines the smallest subspace of R^(n+m) that a set of
one-step excitations must span before the property can be decided from
input and feedback data alone.  `Problem.of` validates a property once and
gives the target its identifier solves onto, a spanning set of that
subspace, and on request the design: a basis of it with the target's
coordinates in that basis.  `has_property` is the ground-truth membership
oracle used by tests and by counterexample validation; a structure's values
are the block traces of [A, B] times its target, the identifier's formula.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, SpecValidationError
from .ratmat import (
    EIG_MARGIN,
    Mat,
    Subspace,
    _augmented_rref,
    as_rational,
    format_rational,
    image,
    nonnegative_solve,
    numeric_rank,
    pivot_basis,
    rank,
)

import numpy as np


@dataclass(frozen=True)
class Dims:
    """State and input dimensions.

    m = 0 is allowed so that autonomous systems (no input channel) can be
    described; the input block of every stacked object is then empty.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecValidationError("state dimension must be at least 1")
        if self.m < 0:
            raise SpecValidationError("input dimension must be nonnegative")

    @property
    def total(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class SystemPair:
    """A concrete candidate model (A, B)."""

    a: Mat
    b: Mat

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatch("A must be square")
        if self.b.rows != self.a.rows:
            raise DimensionMismatch("B must have as many rows as A")

    @property
    def n(self) -> int:
        return self.a.rows

    @property
    def m(self) -> int:
        return self.b.cols

    @property
    def dims(self) -> Dims:
        return Dims(self.n, self.m)

    def ab(self) -> Mat:
        """The n x (n+m) block [A, B]."""
        return Mat.hstack([self.a, self.b])

    @classmethod
    def from_ab(cls, ab: Mat) -> "SystemPair":
        """The pair whose block [A, B] is `ab`."""
        return cls(ab.take_cols(range(ab.rows)), ab.take_cols(range(ab.rows, ab.cols)))


# -- value sets ----------------------------------------------------------

@dataclass(frozen=True)
class BoundedSet:
    """Finite union of closed rational intervals, sorted and disjoint.

    Points are intervals with equal endpoints.  Being a finite union of
    closed bounded intervals, the set is always bounded, non-empty, and a
    proper subset of the reals, and a point outside it is computable.
    """

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise SpecValidationError("value set must be non-empty")
        prev_hi = None
        for lo, hi in self.pieces:
            if lo > hi:
                raise SpecValidationError(f"interval [{lo}, {hi}] is empty")
            if prev_hi is not None and lo <= prev_hi:
                raise SpecValidationError("intervals must be sorted and disjoint")
            prev_hi = hi

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "BoundedSet":
        """Normalize arbitrary (lo, hi) pairs: sort and merge overlaps."""
        items = sorted((as_rational(lo), as_rational(hi)) for lo, hi in pairs)
        merged = []
        for lo, hi in items:
            if lo > hi:
                raise SpecValidationError(f"interval [{lo}, {hi}] is empty")
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    @classmethod
    def singleton(cls, value) -> "BoundedSet":
        v = as_rational(value)
        return cls(((v, v),))

    def contains(self, x: Fraction) -> bool:
        return any(lo <= x <= hi for lo, hi in self.pieces)

    def point_inside(self) -> Fraction:
        """Fixed representative: midpoint of the first interval."""
        lo, hi = self.pieces[0]
        return (lo + hi) / 2

    def point_outside(self) -> Fraction:
        """Fixed point not in the set: one past the largest endpoint."""
        return max(hi for _, hi in self.pieces) + 1

    def magnitude_bound(self) -> Fraction:
        """A rational B with the set contained in [-B, B]."""
        return max(max(abs(lo), abs(hi)) for lo, hi in self.pieces)

    def __str__(self) -> str:
        return " u ".join(f"[{format_rational(lo)}, {format_rational(hi)}]" for lo, hi in self.pieces)


@dataclass(frozen=True)
class LinearConstraint:
    """Requirement that h . vec([A, B]) lies in a bounded value set.

    `h` has length n*(n+m) and indexes vec([A, B]) column-major: the first
    n entries weigh column 1 of [A, B], the next n weigh column 2, and so
    on.
    """

    h: tuple
    values: BoundedSet

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(as_rational(v) for v in self.h))
        if all(v == 0 for v in self.h):
            raise SpecValidationError("constraint vector must be nonzero")


# -- and/or expression trees ----------------------------------------------

class SetExpr:
    """Node of an and/or combination over constraint indices (1-based)."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(SetExpr):
    index: int


@dataclass(frozen=True)
class And(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class Or(SetExpr):
    left: SetExpr
    right: SetExpr


def expr_leaves(expr: SetExpr) -> list:
    """Leaf indices in left-to-right order."""
    if isinstance(expr, Leaf):
        return [expr.index]
    return expr_leaves(expr.left) + expr_leaves(expr.right)


def evaluate_expr(expr: SetExpr, truth: Sequence[bool]) -> bool:
    """Evaluate with truth[i-1] giving the i-th constraint's verdict."""
    if isinstance(expr, Leaf):
        return truth[expr.index - 1]
    if isinstance(expr, And):
        return evaluate_expr(expr.left, truth) and evaluate_expr(expr.right, truth)
    return evaluate_expr(expr.left, truth) or evaluate_expr(expr.right, truth)


def chain_expr(count: int, ops: Sequence[str]) -> SetExpr:
    """Left-associated chain 1 op[0] 2 op[1] 3 ... over `count` leaves."""
    if len(ops) != count - 1:
        raise SpecValidationError("need one operator between consecutive constraints")
    node: SetExpr = Leaf(1)
    for i, op in enumerate(ops, start=2):
        node = And(node, Leaf(i)) if op == "&" else Or(node, Leaf(i))
    return node


def flat_chain_ops(expr: SetExpr) -> Optional[list]:
    """Operators of a left-associated chain over leaves 1..count, else None.

    The i-th returned operator ('&' or '|') is the one applied just before
    constraint i+1 when the expression is read left to right without
    brackets.
    """
    ops = []
    node = expr
    while not isinstance(node, Leaf):
        if not isinstance(node.right, Leaf):
            return None
        ops.append("&" if isinstance(node, And) else "|")
        node = node.left
    ops.reverse()
    if expr_leaves(expr) != list(range(1, len(ops) + 2)):
        return None
    return ops


def parse_expr(text: str) -> SetExpr:
    """Parse `1 & (2 | 3)` style expressions over 1-based constraint indices.

    `&` and `|` have equal precedence and associate to the left, matching
    the unbracketed chain form; use parentheses to change the order.
    """
    tokens = []
    # an index has at most 9 digits; a longer run reads as adjacent indices and fails, not in int()
    for number, op, other in re.findall(r"([0-9]{1,9})|([&|()])|(\S)", text):
        if other:
            raise SpecValidationError(f"unexpected character {other!r} in expression")
        tokens.append(int(number) if number else op)
    pos = 0

    def atom() -> SetExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise SpecValidationError("expression ended unexpectedly")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            node = chain()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise SpecValidationError("missing closing parenthesis")
            pos += 1
            return node
        if isinstance(tok, int):
            pos += 1
            return Leaf(tok)
        raise SpecValidationError(f"unexpected token {tok!r}")

    def chain() -> SetExpr:
        nonlocal pos
        node = atom()
        while pos < len(tokens) and tokens[pos] in ("&", "|"):
            op = tokens[pos]
            pos += 1
            rhs = atom()
            node = And(node, rhs) if op == "&" else Or(node, rhs)
        return node

    result = chain()
    if pos != len(tokens):
        raise SpecValidationError("trailing tokens after expression")
    return result


def format_expr(expr: SetExpr) -> str:
    def fmt(node: SetExpr) -> str:
        if isinstance(node, Leaf):
            return str(node.index)
        left, right = (fmt(c) if isinstance(c, Leaf) else f"({fmt(c)})" for c in (node.left, node.right))
        return f"{left} {'&' if isinstance(node, And) else '|'} {right}"

    return fmt(expr)


# -- the property catalog --------------------------------------------------

class Mode(Enum):
    INTERSECTION = "intersection"
    EXPRESSION = "expression"


class PropertySpec:
    """One kind of property: its document `type` name, label, validation,
    target, design and membership oracle.  The defaults fit identifiability
    and stabilizability: nothing to validate and the whole space as minimum.
    """

    type_name: str
    aliases = ()  # more document `type` names read as this kind

    def label(self) -> str:
        return self.type_name

    def _validate(self, dims: Dims) -> Optional[list]:
        """Raise SpecValidationError on a broken invariant; a dependent intersection returns its point."""

    def _target(self, dims: Dims) -> Mat:
        """The spanning set of the minimum subspace that identification solves onto."""
        return Mat.identity(dims.total)

    def _design(self, target: Mat, eliminate: bool) -> tuple:
        """(basis, q) with basis @ q == target; a target of independent columns is its own basis."""
        return target, Mat.identity(target.cols)

    def _holds(self, sys: SystemPair, target: Mat) -> bool:
        """Membership of `sys`, given the target of its dimensions."""
        raise SpecValidationError(f"{self.type_name} is a property of data, not of a single system")


@dataclass(frozen=True)
class Identifiability(PropertySpec):
    """The full model (A, B) itself."""

    type_name = "identifiability"


@dataclass(frozen=True)
class Stabilizability(PropertySpec):
    """Existence of K with all eigenvalues of A + BK inside the unit circle."""

    type_name = "stabilizability"

    def _holds(self, sys: SystemPair, target: Mat) -> bool:
        return is_stabilizable(sys)


@dataclass(frozen=True)
class Controllability(PropertySpec):
    """Full rank of the reachability matrix [B, AB, ..., A^(n-1) B]."""

    type_name = "controllability"

    def _validate(self, dims: Dims) -> None:
        if dims.m == 0:
            raise SpecValidationError("controllability needs at least one input channel")

    def _target(self, dims: Dims) -> Mat:
        if dims.n == 1:
            return Mat.identity(dims.total).take_cols(range(1, dims.total))
        return Mat.identity(dims.total)

    def _holds(self, sys: SystemPair, target: Mat) -> bool:
        return is_controllable(sys)


def _integral_position(pair) -> tuple:
    """(row, col) as ints; a bool or a non-integral entry raises SpecValidationError."""
    try:
        position = tuple(int(v) for v in pair)
        if len(position) == 2 and all(p == v and not isinstance(v, bool) for p, v in zip(position, pair)):
            return position
    except (TypeError, ValueError, OverflowError):
        pass
    raise SpecValidationError(f"sparsity position {pair!r} is not a pair of integers")


@dataclass(frozen=True)
class Sparsity(PropertySpec):
    """Zero patterns: positions (row, col), 1-based, that must vanish.

    `zeros_a` indexes entries of A, `zeros_b` entries of B.
    """

    zeros_a: frozenset
    zeros_b: frozenset
    type_name = "sparsity"

    def __post_init__(self):
        object.__setattr__(self, "zeros_a", frozenset(map(_integral_position, self.zeros_a)))
        object.__setattr__(self, "zeros_b", frozenset(map(_integral_position, self.zeros_b)))
        if not self.zeros_a and not self.zeros_b:
            raise SpecValidationError("sparsity pattern needs at least one position")

    def positions(self, n: int) -> list:
        """The zero positions in [A, B] for n states: A's sorted, then B's sorted."""
        return sorted(self.zeros_a) + [(r, n + c) for r, c in sorted(self.zeros_b)]

    def label(self) -> str:
        return f"sparsity({len(self.zeros_a) + len(self.zeros_b)} zeros)"

    def _validate(self, dims: Dims) -> None:
        for r, c in self.zeros_a:
            if not (1 <= r <= dims.n and 1 <= c <= dims.n):
                raise SpecValidationError(f"A position ({r}, {c}) outside {dims.n}x{dims.n}")
        for r, c in self.zeros_b:
            if not (1 <= r <= dims.n and 1 <= c <= dims.m):
                raise SpecValidationError(f"B position ({r}, {c}) outside {dims.n}x{dims.m}")

    def _target(self, dims: Dims) -> Mat:
        return Mat.identity(dims.total).take_cols(sparsity_columns(self, dims))

    def _holds(self, sys: SystemPair, target: Mat) -> bool:
        return all(sys.a[r - 1, c - 1] == 0 for r, c in self.zeros_a) and all(
            sys.b[r - 1, c - 1] == 0 for r, c in self.zeros_b
        )


@dataclass(frozen=True)
class LinearStructure(PropertySpec):
    """Combination of linear constraints through an and/or expression.

    In INTERSECTION mode the expression is the plain conjunction of all
    constraints.  In EXPRESSION mode the constraint vectors must be
    linearly independent (value sets are bounded by construction).
    """

    constraints: tuple
    expr: SetExpr
    mode: Mode
    type_name = "linear_structure"
    aliases = ("structure",)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise SpecValidationError("need at least one constraint")
        leaves = sorted(expr_leaves(self.expr))
        if leaves != list(range(1, len(self.constraints) + 1)):
            raise SpecValidationError("expression must reference each constraint exactly once")

    @classmethod
    def intersection(cls, constraints: Sequence[LinearConstraint]) -> "LinearStructure":
        constraints = tuple(constraints)
        expr = chain_expr(len(constraints), ["&"] * (len(constraints) - 1))
        return cls(constraints, expr, Mode.INTERSECTION)

    def label(self) -> str:
        return f"structure({len(self.constraints)} constraints, {self.mode.value})"

    def _validate(self, dims: Dims) -> Optional[list]:
        width = dims.n * dims.total
        for c in self.constraints:
            if len(c.h) != width:
                raise SpecValidationError(f"constraint vector has length {len(c.h)}, expected {width}")
        if self.mode is Mode.EXPRESSION:
            hmat = Mat([list(c.h) for c in self.constraints])
            if rank(hmat) != len(self.constraints):
                raise SpecValidationError("expression mode requires linearly independent constraint vectors")
        else:
            if _contains_or(self.expr):
                raise SpecValidationError(
                    "intersection mode admits only conjunctions; use expression mode for unions"
                )
            if (point := intersection_point(self.constraints)) is None:
                raise SpecValidationError("the constraint intersection is empty")
            return point or None

    def _target(self, dims: Dims) -> Mat:
        return build_constraint_matrix(self.constraints, dims)

    def _design(self, target: Mat, eliminate: bool) -> tuple:
        return pivot_basis(target) if eliminate else (None, None)

    def _holds(self, sys: SystemPair, target: Mat) -> bool:
        values = block_traces(sys.ab() @ target, sys.n)
        return evaluate_expr(self.expr, [c.values.contains(v) for c, v in zip(self.constraints, values)])


# -- vectorization ---------------------------------------------------------

def vec(m: Mat) -> tuple:
    """Column-major stacking of a matrix into a flat vector."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def vec_inv(v: Sequence, rows: int, cols: int) -> Mat:
    """Inverse of `vec`: reshape a flat vector column-major."""
    v = [as_rational(x) for x in v]
    if len(v) != rows * cols:
        raise DimensionMismatch(f"vector of length {len(v)} cannot fill {rows}x{cols}")
    return Mat.from_flat(rows, cols, [v[j * rows + i] for i in range(rows) for j in range(cols)])


def build_constraint_matrix(constraints: Sequence[LinearConstraint], dims: Dims) -> Mat:
    """The (n+m) x (len*n) matrix whose column blocks are the reshaped
    constraint vectors transposed; its column space is the minimum
    excitation subspace of the constrained structure.  Row r of block i is
    h_i[r*n : (r+1)*n], read as integers over one lcm."""
    n = dims.n
    for c in constraints:
        if len(c.h) != n * dims.total:
            raise DimensionMismatch(f"constraint vector has length {len(c.h)}, expected {n * dims.total}")
    ratios = [[v.as_integer_ratio() for v in c.h] for c in constraints]
    den = math.lcm(*(d for row in ratios for _, d in row))
    nums = [x * (den // d) for r in range(dims.total) for row in ratios for x, d in row[r * n : (r + 1) * n]]
    return Mat._make(dims.total, len(constraints) * n, nums, den)


def block_traces(product: Mat, n: int) -> tuple:
    """Traces of the n-column blocks of an n-row product.  Block i of a
    structure's target is vec_inv(h_i)^T, so with [A, B] @ target, or X+ Q
    for [X-; U-] Q = target, trace i is the constraint value h_i . vec([A, B])."""
    c = product.cols
    return tuple(Fraction(sum(product._nums[s * c + b + s] for s in range(n)), product._den) for b in range(0, c, n))


def sparsity_columns(p: Sparsity, dims: Dims) -> list:
    """Affected column indices of [A, B], 0-based ascending."""
    return sorted({c - 1 for _, c in p.positions(dims.n)})


def as_structure_problem(problem: "Problem") -> "Problem":
    """A zero pattern's problem as its equivalent structure's: one {0}
    singleton per zero position, valid as the pattern is."""
    n, total = problem.dims.n, problem.dims.total
    constraints = []
    for r, c in problem.prop.positions(n):
        h = [Fraction(0)] * (n * total)
        h[(c - 1) * n + (r - 1)] = Fraction(1)
        constraints.append(LinearConstraint(tuple(h), BoundedSet.singleton(0)))
    structure = LinearStructure.intersection(constraints)
    return Problem(structure, problem.dims, structure._target(problem.dims))


# -- validation -------------------------------------------------------------

def validate_property(p: PropertySpec, dims: Dims) -> None:
    """Raise SpecValidationError when `p` violates its invariants for `dims`."""
    p._validate(dims)


def _contains_or(expr: SetExpr) -> bool:
    if isinstance(expr, Leaf):
        return False
    if isinstance(expr, Or):
        return True
    return _contains_or(expr.left) or _contains_or(expr.right)


def intersection_point(constraints: Sequence[LinearConstraint]) -> Optional[list]:
    """Values v_i in S_i that some theta gives as h_i . theta for every i, or
    None when {theta : h_i . theta in S_i for all i} is empty; decided exactly.

    Values v are some H theta exactly when y . v = 0 for each row y of a
    basis Y of the left kernel of H, read off one elimination of [H | I];
    with no such y the constraints are independent, every v is achieved, and
    the empty list stands for that with no point computed.  Otherwise each box
    of one interval [lo_i, hi_i] per set asks for some x = v - lo and slack s,
    both nonnegative, with Y x = -Y lo and x + s = hi - lo, which the phase-1
    simplex of `nonnegative_solve` decides exactly under Bland's rule (R. G.
    Bland, Math. Oper. Res. 2(2), 1977); the first feasible box gives v = lo + x.
    """
    k = len(constraints)
    hmat = Mat([list(c.h) for c in constraints])
    rows, pivots = _augmented_rref(hmat, Mat.identity(k))
    relations = [row[hmat.cols :] for row in rows[len(pivots) :]]
    if not relations:
        return []
    if math.prod(len(c.values.pieces) for c in constraints) > 4096:
        raise SpecValidationError("too many interval combinations to verify non-emptiness exactly")
    # [Y, 0; I, I] [x; s] = [-Y, 0; -I, I] [lo; hi]: a and shift are the two matrices
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    a, shift = (
        Mat([[sign * y for y in row] + [0] * k for row in relations] + [[sign * v for v in e] + e for e in eye])
        for sign in (1, -1)
    )
    for box in itertools.product(*(c.values.pieces for c in constraints)):
        lo = [lo for lo, _ in box]
        x = nonnegative_solve(a, shift @ Mat.column(lo + [hi for _, hi in box]))
        if x is not None:
            return [v + d for v, d in zip(lo, x.col_list(0))]
    return None


# -- validated problems and minimum excitation subspaces -----------------------

@dataclass(frozen=True)
class Problem:
    """A property validated once for `dims`, with the `target` its identifier
    solves onto: unit columns for a zero pattern and scalar controllability,
    I for the whole space, the constraint matrix for a structure.  The design
    is a `basis` of the minimum subspace, the minimum excitation, and the
    unique `q` with basis @ q == target: the target itself with q = I, or
    for a structure one elimination, made only on request (else None).  The
    `point` is a dependent intersection's, found by validation (see `_validate`)."""

    prop: PropertySpec
    dims: Dims
    target: Mat
    basis: Optional[Mat] = None
    q: Optional[Mat] = None
    point: Optional[list] = None

    @classmethod
    def of(cls, prop: PropertySpec, dims: Dims, design: bool = False) -> "Problem":
        point = prop._validate(dims)
        target = prop._target(dims)
        return cls(prop, dims, target, *prop._design(target, design), point)

    def minimum_basis(self) -> Mat:
        """The design's basis, or else the target's pivot columns."""
        return self.basis if self.basis is not None else image(self.target).basis

    def holds(self, sys: SystemPair) -> bool:
        """`has_property` for a system of these dimensions, without validating again."""
        return self.prop._holds(sys, self.target)


def minimum_subspace(p: PropertySpec, dims: Dims) -> Subspace:
    """Smallest subspace of R^(n+m) that a sufficiently rich plan must span."""
    return Subspace._of_independent(Problem.of(p, dims).minimum_basis())


# -- ground-truth membership oracle ------------------------------------------

def is_controllable(sys: SystemPair) -> bool:
    """Exact rank test on the Krylov matrices K_j = [B, AB, ..., A^(j-1) B].

    j starts at ceil(n/m), the fewest blocks that can reach rank n, and doubles,
    capped at n (the whole reachability matrix), until the rank is n.  A rank
    that does not grow from j = i to the next j means im K_i = im K_(i+1) is
    A-invariant, so no further power adds a direction: not controllable.
    """
    n, m = sys.n, sys.m
    if m == 0:
        return False
    blocks, j, last = [sys.b], -(-n // m), None
    while True:
        while len(blocks) < j:
            blocks.append(sys.a @ blocks[-1])
        r = rank(Mat.hstack(blocks))
        if r == n:
            return True
        if r == last or j >= n:
            return False
        last, j = r, min(2 * j, n)


def is_stabilizable(sys: SystemPair) -> bool:
    """Eigenvalue split plus a numeric rank test on each unstable mode.

    Any eigenvalue with modulus at least 1 - EIG_MARGIN is treated as unstable
    and must pass rank [A - lambda I, B] = n at the same margin.
    """
    a = sys.a.to_float()
    b = sys.b.to_float().reshape(sys.n, sys.m)
    eigenvalues = np.linalg.eigvals(a)
    eye = np.eye(sys.n)
    for lam in eigenvalues:
        if abs(lam) >= 1.0 - EIG_MARGIN:
            block = np.hstack([a - lam * eye, b]).astype(complex)
            if numeric_rank(block) < sys.n:
                return False
    return True


def has_property(sys: SystemPair, p: PropertySpec) -> bool:
    """Ground-truth membership test for every decidable catalog entry."""
    return Problem.of(p, sys.dims).holds(sys)

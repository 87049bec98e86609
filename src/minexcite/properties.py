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
are the block traces of [A, B] times its target, read as the identifier reads
them from X+ and Q: from the two factors, without forming their product.

A structure combines its constraints through a tree of `And` and `Or` nodes,
each carrying its operator symbol.  Every reader of a tree (its leaves, its
value, its text, the union check) is one pass over its post-order walk, and
`parse_expr` keeps each open bracket's chain on a list, so no reader recurses
and neither nesting depth nor chain length meets the interpreter's frame limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import DimensionMismatch, SpecValidationError
from .ratmat import (
    Mat,
    Subspace,
    as_rational,
    eliminate,
    nonnegative_solve,
    pivot_basis,
    pivot_columns,
    rank,
    staircase,
)


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


class Whole:
    """An immutable matrix kept whole, with `n` rows or columns in the first of the two
    blocks named in `_blocks`, each cut from it when first read.  Equal when `n` and the
    matrices are; hashed and printed by the blocks, as a dataclass of the two would be."""

    dims = property(lambda self: Dims(self.n, self.m))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return (self.n, self._whole) == (other.n, other._whole) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._blocks))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._blocks)})"


class SystemPair(Whole):
    """A concrete candidate model (A, B), kept as its one n x (n+m) block [A, B], so
    `from_ab` copies nothing and a run reads [A, B] alone."""

    _blocks = ("a", "b")

    def __init__(self, a: Mat, b: Mat):
        if a.rows != a.cols:
            raise DimensionMismatch("A must be square")
        if b.rows != a.rows:
            raise DimensionMismatch("B must have as many rows as A")
        self.__dict__.update(_whole=Mat.hstack([a, b]), n=a.rows, a=a, b=b)

    @classmethod
    def from_ab(cls, ab: Mat) -> "SystemPair":
        """The pair whose block [A, B] is `ab`, which it keeps."""
        if ab.cols < ab.rows:
            raise DimensionMismatch(f"[A, B] of {ab.rows} rows needs at least {ab.rows} columns, got {ab.cols}")
        pair = cls.__new__(cls)
        pair.__dict__.update(_whole=ab, n=ab.rows)
        return pair

    a = cached_property(lambda self: self._whole.take_cols(range(self.n)))
    b = cached_property(lambda self: self._whole.take_cols(range(self.n, self._whole.cols)))
    m = property(lambda self: self._whole.cols - self.n)

    def ab(self) -> Mat:
        """The n x (n+m) block [A, B]."""
        return self._whole


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
    """Node of an and/or combination over constraint indices (1-based).

    Trees compare, hash and print through their `format_expr` text, which
    brackets every inner operator and so tells any two trees apart; it is
    built without recursion, so depth and length are bounded by memory."""

    __slots__ = ()

    def __eq__(self, other):
        return format_expr(self) == format_expr(other) if isinstance(other, SetExpr) else NotImplemented

    def __hash__(self):
        return hash(format_expr(self))

    def __repr__(self):
        return f"{type(self).__name__}({format_expr(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(SetExpr):
    index: int
    op = None  # a leaf joins no operands


@dataclass(frozen=True, eq=False, repr=False)
class And(SetExpr):
    left: SetExpr
    right: SetExpr
    op = "&"


@dataclass(frozen=True, eq=False, repr=False)
class Or(SetExpr):
    left: SetExpr
    right: SetExpr
    op = "|"


# each operator symbol and the node class it builds
_NODES = {cls.op: cls for cls in (And, Or)}


def _postorder(expr: SetExpr) -> list:
    """The nodes of the tree in post-order, each operator after its two operands,
    walked with a list as the stack, so depth is bounded by memory, not by frames."""
    stack, order = [expr], []
    while stack:
        node = stack.pop()
        order.append(node)
        if not isinstance(node, Leaf):
            stack += (node.left, node.right)
    return order[::-1]  # node, right, left read backwards is left, right, node


def expr_leaves(expr: SetExpr) -> list:
    """Leaf indices in left-to-right order."""
    return [node.index for node in _postorder(expr) if isinstance(node, Leaf)]


def evaluate_expr(expr: SetExpr, truth: Sequence[bool]) -> bool:
    """Evaluate with truth[i-1] giving the i-th constraint's verdict."""
    values = []
    for node in _postorder(expr):
        if isinstance(node, Leaf):
            values.append(truth[node.index - 1])
        else:
            right = values.pop()
            values[-1] = (values[-1] and right) if node.op == "&" else (values[-1] or right)
    return values[0]


def format_expr(expr: SetExpr) -> str:
    """The expression as `parse_expr` reads it back, with every operand that is not a leaf bracketed."""
    texts = []
    for node in _postorder(expr):
        if isinstance(node, Leaf):
            texts.append(str(node.index))
        else:
            right = texts.pop()
            texts[-1] = f"({texts[-1]} {node.op} {right})"
    return texts[0] if isinstance(expr, Leaf) else texts[0][1:-1]  # the whole needs no brackets


def chain_expr(count: int) -> SetExpr:
    """The conjunction 1 & 2 & ... & count, associated to the left."""
    return functools.reduce(And, map(Leaf, range(2, count + 1)), Leaf(1))


def flat_chain_ops(expr: SetExpr) -> Optional[list]:
    """Operators of a left-associated chain over leaves 1..count, else None.

    The i-th returned operator ('&' or '|') is the one applied just before
    constraint i+1 when the expression is read left to right without
    brackets.
    """
    ops, node = [], expr
    while not isinstance(node, Leaf):
        if not isinstance(node.right, Leaf):
            return None
        ops.append(node.op)
        node = node.left
    return ops[::-1] if expr_leaves(expr) == list(range(1, len(ops) + 2)) else None


def parse_expr(text: str) -> SetExpr:
    """Parse `1 & (2 | 3)` style expressions over 1-based constraint indices.

    `&` and `|` have equal precedence and associate to the left, matching
    the unbracketed chain form; use parentheses to change the order.  Each
    open parenthesis keeps the chain before it on a list, not in a call.
    """
    tokens = []
    # an index has at most 9 digits; a longer run reads as adjacent indices and fails, not in int()
    for number, op, other in re.findall(r"([0-9]{1,9})|([&|()])|(\S)", text):
        if other:
            raise SpecValidationError(f"unexpected character {other!r} in expression")
        tokens.append(int(number) if number else op)
    tokens.append(None)  # the end of the text
    opened = []  # per open parenthesis: the chain before it, waiting for the bracket as its operand
    take = first = lambda operand: operand  # the chain read so far, waiting for its next operand
    node, operand_next = None, True
    for tok in tokens:
        if operand_next:
            if tok == "(":
                opened.append(take)
                take = first
            elif isinstance(tok, int):
                node, operand_next = take(Leaf(tok)), False
            else:
                message = "expression ended unexpectedly" if tok is None else f"unexpected token {tok!r}"
                raise SpecValidationError(message)
        elif tok in _NODES:
            take, operand_next = functools.partial(_NODES[tok], node), True
        elif tok == ")" and opened:
            node = opened.pop()(node)
        elif opened:
            raise SpecValidationError("missing closing parenthesis")
        elif tok is not None:
            raise SpecValidationError("trailing tokens after expression")
    return node


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
        ab = sys.ab()
        return not any(ab._nums[(r - 1) * ab.cols + c - 1] for r, c in self.positions(sys.n))


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
        return cls(constraints, chain_expr(len(constraints)), Mode.INTERSECTION)

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
            if any(node.op == "|" for node in _postorder(self.expr)):
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
        values = block_traces(sys.ab(), target, sys.n)
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


def block_traces(left: Mat, right: Mat, n: int) -> tuple:
    """Traces of the n-column blocks of left @ right, for an n-row left, read from
    the two factors without forming their product: trace i is the sum over s of
    row s of left times column i*n + s of right, n dot products over
    left._den * right._den.  Block i of a structure's target is vec_inv(h_i)^T, so
    with [A, B] and the target, or X+ and Q for [X-; U-] Q = target, trace i is the
    constraint value h_i . vec([A, B])."""
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.shape} by {right.shape}")
    k, w, den = left.cols, right.cols, left._den * right._den
    rows = [left._nums[s * k : (s + 1) * k] for s in range(n)]
    return tuple(
        Fraction(sum(sum(map(operator.mul, rows[s], right._nums[b + s :: w])) for s in range(n)), den)
        for b in range(0, w, n)
    )


def sparsity_columns(p: Sparsity, dims: Dims) -> list:
    """Affected column indices of [A, B], 0-based ascending."""
    return sorted({c - 1 for _, c in p.positions(dims.n)})


# -- validation -------------------------------------------------------------

def validate_property(p: PropertySpec, dims: Dims) -> None:
    """Raise SpecValidationError when `p` violates its invariants for `dims`."""
    p._validate(dims)


def intersection_point(constraints: Sequence[LinearConstraint]) -> Optional[list]:
    """Values v_i in S_i that some theta gives as h_i . theta for every i, or
    None when {theta : h_i . theta in S_i for all i} is empty; decided exactly.

    Values v are some H theta exactly when y . v = 0 for each row y of a
    basis Y of the left kernel of H, the dependent rows of one elimination of [H | I];
    with no such y the constraints are independent, every v is achieved, and
    the empty list stands for that with no point computed.  Otherwise each box
    of one interval [lo_i, hi_i] per set asks for some x = v - lo and slack s,
    both nonnegative, with Y x = -Y lo and x + s = hi - lo, which the phase-1
    simplex of `nonnegative_solve` decides exactly under Bland's rule (R. G.
    Bland, Math. Oper. Res. 2(2), 1977); the first feasible box gives v = lo + x.
    """
    k = len(constraints)
    relations = eliminate(Mat([list(c.h) for c in constraints]), Mat.identity(k)).dependent.to_lists()
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

    @cached_property
    def basis_columns(self) -> Sequence[int]:
        """The target's columns in the minimum basis, all or its pivot columns, kept outside equality, hash and repr."""
        return range(self.target.cols) if self.basis is self.target else pivot_columns(self.target)

    def minimum_basis(self) -> Mat:
        """The design's basis, or else the target's columns at `basis_columns`."""
        return self.basis or self.target.take_cols(self.basis_columns)

    def holds(self, sys: SystemPair) -> bool:
        """`has_property` for a system of these dimensions, without validating again."""
        return self.prop._holds(sys, self.target)


def minimum_subspace(p: PropertySpec, dims: Dims) -> Subspace:
    """Smallest subspace of R^(n+m) that a sufficiently rich plan must span."""
    return Subspace._of_independent(Problem.of(p, dims).minimum_basis())


# -- ground-truth membership oracle ------------------------------------------

def is_controllable(sys: SystemPair) -> bool:
    """Exact: the reachable subspace of the Krylov staircase of [A, B] (`ratmat.staircase`) is R^n."""
    return staircase(sys.ab(), False)[0] == sys.n


def is_stabilizable(sys: SystemPair) -> bool:
    """Exact: every mode outside the reachable subspace lies strictly inside the unit disc (`ratmat.staircase`)."""
    return staircase(sys.ab(), True)[1]


def has_property(sys: SystemPair, p: PropertySpec) -> bool:
    """Ground-truth membership test for every decidable catalog entry."""
    return Problem.of(p, sys.dims).holds(sys)

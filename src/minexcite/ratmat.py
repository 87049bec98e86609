"""Exact rational matrices and subspace arithmetic.

Every structural decision in this package (rank, image, containment,
membership, linear solves) is made over the rationals with no rounding.
Floating point enters only through the spectral helpers at the bottom of
this module, which carry an explicit margin for unit-circle tests.

A `Mat` stores its cells as Python ints over one common denominator, in
a canonical form (see the class docstring), and reads come back as
`fractions.Fraction` values built on demand.  Matrices and subspaces are
immutable; all operations return new values and are safe to share across
threads.

Every operation works on the integers with no change to exactness: sums
bring both operands to the lcm of their denominators, scalar products and
`@` (integer rows added up over nonzero cells) multiply the denominators,
and elimination runs fraction-free Gauss-Jordan on primitive integer rows,
as does the phase-1 simplex of `nonnegative_solve`.  Each result is
brought to the canonical form with a single gcd.

`read_span` is the one reader of a plan's column span: one elimination of
its transpose gives the left kernel Y, and a column lies outside the span
exactly when its product with Y^T is nonzero, read off the reduced rows.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, SpecValidationError

# An eigenvalue counts as on or outside the unit circle when its modulus is
# at least 1 - EIG_MARGIN; moduli within EIG_MARGIN of 1 are flagged marginal.
EIG_MARGIN = 1e-9


# Largest decimal exponent magnitude accepted in rational text.  Fraction
# turns "1e999999999" into 10**999999999 and would not finish building it.
MAX_DECIMAL_EXPONENT = 1000

# Longest rational literal accepted, in characters, and longest int, in
# digits.  Python 3.11 and later refuse integer text of more than 4300 digits
# while 3.10 reads any length; one cap below that limit makes every supported
# Python agree.
MAX_LITERAL_LENGTH = 4000
_LITERAL_INT_BOUND = 10**MAX_LITERAL_LENGTH  # the least int of more than MAX_LITERAL_LENGTH digits

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\Z")


def as_rational(value) -> Fraction:
    """Coerce an entry to an exact rational.

    Accepts Fraction, int, and strings in the forms accepted by the matrix
    literal format: `p/q`, plain integers, and decimal strings (parsed
    exactly, so "0.5" becomes 1/2).  Floats are rejected: binary floats do
    not round-trip to the decimal the caller wrote, so requiring a string
    keeps the exactness guarantee honest.

    This is the one parser of rational text.  Text that is not a rational,
    has a zero denominator, or carries a decimal exponent above
    MAX_DECIMAL_EXPONENT in magnitude raises SpecValidationError naming it;
    text longer than MAX_LITERAL_LENGTH raises it giving the length, and so
    does an int of more digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if abs(value) >= _LITERAL_INT_BOUND:  # by magnitude: no digit string is built
            raise SpecValidationError(f"an integer of more than {MAX_LITERAL_LENGTH} digits exceeds the limit")
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_LITERAL_LENGTH:
            raise SpecValidationError(
                f"a rational literal of {len(text)} characters exceeds {MAX_LITERAL_LENGTH}"
            )
        exponent = _EXPONENT.search(text)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise SpecValidationError(
                    f"{text!r}: decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise SpecValidationError(f"{text!r} has a zero denominator") from exc
        except ValueError as exc:
            raise SpecValidationError(f"cannot read {text!r} as a rational number") from exc
    if isinstance(value, float):
        raise TypeError("float entries are not exact; pass a string such as '0.5' or a Fraction")
    raise TypeError(f"cannot interpret {value!r} as a rational entry")


def _over_lcm(cells: Sequence[Fraction]) -> tuple:
    """(nums, den) in canonical form: den is the lcm of the denominators."""
    pairs = [v.as_integer_ratio() for v in cells]
    den = math.lcm(*(d for _, d in pairs))
    return tuple(n * (den // d) for n, d in pairs), den


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Mat:
    """Immutable dense matrix over the rationals, row-major.

    The cells are stored as integers over one shared denominator: cell `k`
    is `Fraction(_nums[k], _den)`, where `_nums` is a tuple of Python ints
    and `_den > 0` is the lcm of the cells' reduced denominators.
    Equivalently `gcd(_den, *_nums) == 1`, and an all-zero matrix has
    `_den == 1`.  The form is canonical, so equal matrices have equal
    fields, and `==` and `hash` compare `(rows, cols, _nums, _den)`.
    `@` adds up the nonzero cells of right-hand rows over the nonzero cells
    of the left operand, so zeros (unit-vector plans are mostly zeros) cost nothing.
    """

    __slots__ = ("rows", "cols", "_nums", "_den")

    def __init__(self, rows_data: Sequence[Sequence]):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        cells = []
        for r in rows_data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows in matrix literal")
            cells.extend(as_rational(v) for v in r)
        self._init(rows, cols, *_over_lcm(cells))

    def _init(self, rows: int, cols: int, nums: tuple, den: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, rows: int, cols: int, nums: Iterable[int], den: int = 1) -> "Mat":
        """Canonical matrix whose cell k is nums[k] / den, for an int den > 0."""
        nums = tuple(nums)
        g = math.gcd(den, *nums)
        if g > 1:
            nums = tuple(x // g for x in nums)
            den //= g
        m = cls.__new__(cls)
        m._init(rows, cols, nums, den)
        return m

    @classmethod
    def from_flat(cls, rows: int, cols: int, cells: Iterable) -> "Mat":
        cells = [as_rational(v) for v in cells]
        if len(cells) != rows * cols:
            raise DimensionMismatch("cell count does not match shape")
        return cls._make(rows, cols, *_over_lcm(cells))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._make(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        """I_n, canonical as built: ones on the diagonal over denominator 1, so no gcd pass."""
        nums = [0] * (n * n)
        nums[:: n + 1] = [1] * n
        m = cls.__new__(cls)
        m._init(n, n, tuple(nums), 1)
        return m

    @classmethod
    def column(cls, entries: Sequence) -> "Mat":
        return cls.from_flat(len(entries), 1, entries)

    @classmethod
    def hstack(cls, mats: Sequence["Mat"]) -> "Mat":
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack needs equal row counts")
        den = math.lcm(*(m._den for m in mats))
        scaled = [(m._scaled_nums(den), m.cols) for m in mats]
        nums = []
        for i in range(rows):
            for block, w in scaled:
                nums.extend(block[i * w : (i + 1) * w])
        return cls._make(rows, sum(m.cols for m in mats), nums, den)

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack needs equal column counts")
        den = math.lcm(*(m._den for m in mats))
        nums = []
        for m in mats:
            nums.extend(m._scaled_nums(den))
        return cls._make(sum(m.rows for m in mats), cols, nums, den)

    def _scaled_nums(self, den: int) -> tuple:
        """The cells as integers over `den`, a multiple of `_den`."""
        f = den // self._den
        return self._nums if f == 1 else tuple(x * f for x in self._nums)

    def _int_rows(self) -> list:
        """The rows as lists of ints, each a positive multiple of the rational row."""
        c = self.cols
        return [list(self._nums[i * c : (i + 1) * c]) for i in range(self.rows)]

    # -- access -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return Fraction(self._nums[i * self.cols + j], self._den)

    def row_list(self, i: int) -> list:
        den = self._den
        return [Fraction(x, den) for x in self._nums[i * self.cols : (i + 1) * self.cols]]

    def _col_nums(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols}")
        return self._nums[j :: self.cols]

    def col_list(self, j: int) -> list:
        den = self._den
        return [Fraction(x, den) for x in self._col_nums(j)]

    def col(self, j: int) -> "Mat":
        return Mat._make(self.rows, 1, self._col_nums(j), self._den)

    def take_cols(self, indices: Sequence[int]) -> "Mat":
        nums = []
        for i in range(self.rows):
            row = self._nums[i * self.cols : (i + 1) * self.cols]
            nums.extend(row[j] for j in indices)
        return Mat._make(self.rows, len(indices), nums, self._den)

    def drop_col(self, j: int) -> "Mat":
        return self.take_cols([c for c in range(self.cols) if c != j])

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def to_float(self) -> np.ndarray:
        return np.array([x / self._den for x in self._nums], dtype=float).reshape(self.rows, self.cols)

    # -- algebra ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        fields = (self.rows, self.cols, self._den, self._nums)
        return fields == (other.rows, other.cols, other._den, other._nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._nums, self._den))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        den = math.lcm(self._den, other._den)
        nums = map(operator.add, self._scaled_nums(den), other._scaled_nums(den))
        return Mat._make(self.rows, self.cols, nums, den)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        den = math.lcm(self._den, other._den)
        nums = map(operator.sub, self._scaled_nums(den), other._scaled_nums(den))
        return Mat._make(self.rows, self.cols, nums, den)

    def __neg__(self) -> "Mat":
        return Mat._make(self.rows, self.cols, (-x for x in self._nums), self._den)

    def __mul__(self, scalar) -> "Mat":
        s = as_rational(scalar)
        p = s.numerator
        return Mat._make(self.rows, self.cols, (x * p for x in self._nums), self._den * s.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        n, w = self.cols, other.cols
        rhs = [[(j, y) for j, y in enumerate(other._nums[k * w : (k + 1) * w]) if y] for k in range(n)]
        nums = []
        for i in range(self.rows):
            acc = [0] * w
            for x, row in zip(self._nums[i * n : (i + 1) * n], rhs):
                if x:
                    for j, y in row:
                        acc[j] += x * y
            nums.extend(acc)
        return Mat._make(self.rows, w, nums, self._den * other._den)

    @property
    def T(self) -> "Mat":
        c = self.cols
        nums = [x for j in range(c) for x in self._nums[j::c]]
        return Mat._make(c, self.rows, nums, self._den)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return Fraction(sum(self._nums[:: self.cols + 1]), self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}: {format_matrix(self)!r})"


# -- matrix literal format ---------------------------------------------

def parse_matrix(text: str, rows: Optional[int] = None, cols: Optional[int] = None) -> Mat:
    """Parse the matrix literal format: rows split by `;`, entries by `,`.

    Entries may be `p/q` fractions, integers, or decimal strings; decimals
    are parsed exactly.  An empty string denotes a matrix with no rows,
    in which case `cols` supplies the column count (default 0).
    """
    text = text.strip()
    if rows == 0 or cols == 0:
        return Mat.zeros(rows or 0, cols or 0)
    if not text:
        if rows is None and cols is None:
            return Mat.zeros(0, 0)
        raise DimensionMismatch("an empty literal cannot express a non-empty matrix")
    data = [[cell for cell in row.split(",")] for row in text.split(";")]
    m = Mat(data)
    if rows is not None and m.rows != rows:
        raise DimensionMismatch(f"expected {rows} rows, literal has {m.rows}")
    if cols is not None and m.cols != cols:
        raise DimensionMismatch(f"expected {cols} columns, literal has {m.cols}")
    return m


def format_matrix(m: Mat) -> str:
    if m.rows == 0 or m.cols == 0:
        return ""
    return "; ".join(", ".join(format_rational(v) for v in m.row_list(i)) for i in range(m.rows))


# -- integer kernels ------------------------------------------------------

def _clear_column(rows: list, r: int, c: int) -> None:
    """Pivot on rows[r][c]: every other row with a nonzero entry f in column c
    becomes `piv * row - f * rows[r]`, divided by the gcd of its entries."""
    row_r = rows[r]
    piv = row_r[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            new = [piv * a - f * b for a, b in zip(row, row_r)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _rref(rows: list, pivot_width: int) -> list:
    """Fraction-free Gauss-Jordan elimination with pivots in the leading columns.

    `rows` is a list of integer row lists, modified in place.  Each input
    row is first divided by the gcd of its entries, so a large denominator
    shared by the whole matrix does not grow it.  Each update
    `piv * a - f * b` is divided by the gcd of its entries, so rows stay
    primitive at one gcd per updated row instead of one per cell.  Bareiss's
    division by the previous pivot skips that gcd but keeps every factor the
    minors share, so rows cleared of one large denominator, as projections
    give, would grow by it at every step.

    Pivot rule: the first row at or below the current one with a nonzero
    entry, columns scanned left to right.  Each row stays a nonzero multiple
    of its rational Gauss-Jordan counterpart, so pivots and zero rows match
    it, and row r of the reduced form is
    `[Fraction(x, rows[r][pivots[r]]) for x in rows[r]]`.  Returns the pivot
    column indices in order.
    """
    for i, row in enumerate(rows):
        g = math.gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(pivot_width):
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        _clear_column(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def nonnegative_solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Some x >= 0 with a @ x == b for a column b, or None when there is none.

    Phase 1 of the simplex method on the integer rows of [a | I | b], each
    negated where b is negative, with the artificial variables of I basic and
    a last row of reduced costs for their sum.  A row keeps a positive
    coefficient on its basic variable and pivots are positive, so
    `_clear_column` is a simplex pivot and right-hand sides stay nonnegative.
    Bland's rule (R. G. Bland, Math. Oper. Res. 2(2), 1977) enters the first
    column of negative reduced cost and leaves, among the rows of least
    ratio, the one whose basic variable comes first, so no basis repeats.
    The sum's minimum is zero exactly when some x exists; the basis gives one.
    """
    if a.rows != b.rows or b.cols != 1:
        raise DimensionMismatch(f"need a column of {a.rows} entries, got {b.rows}x{b.cols}")
    common, p, m = math.lcm(a._den, b._den), a.cols, a.rows
    an = a._scaled_nums(common)
    rows = [
        [x if y >= 0 else -x for x in an[i * p : (i + 1) * p]] + [int(i == j) for j in range(m)] + [abs(y)]
        for i, y in enumerate(b._scaled_nums(common))
    ]
    rows.append([-sum(row[j] for row in rows) for j in range(p)] + [0] * m + [-sum(row[-1] for row in rows)])
    basis = list(range(p, p + m))
    while (c := next((j for j, v in enumerate(rows[m][:-1]) if v < 0), None)) is not None:
        # some row is positive in c, as the sum of the artificials is bounded below
        r = min((i for i in range(m) if rows[i][c] > 0), key=lambda i: (Fraction(rows[i][-1], rows[i][c]), basis[i]))
        _clear_column(rows, r, c)
        basis[r] = c
    if rows[m][-1]:
        return None
    value = {j: Fraction(row[-1], row[j]) for j, row in zip(basis, rows)}  # nonbasic variables are 0
    return Mat.column([value.get(j, 0) for j in range(p)])


def rank(m: Mat) -> int:
    """Exact rank over the rationals."""
    return len(_rref(m._int_rows(), m.cols))


def pivot_columns(m: Mat) -> list:
    return _rref(m._int_rows(), m.cols)


def _reduced_read(rows: list, pivots: list, p: int, rhs: Optional[range] = None) -> Mat:
    """A matrix of p rows read off an elimination whose pivots lie in the first p columns.

    With `rhs`, the columns of a right-hand side, it is the solution whose free
    variables are 0: row pc, for the pivot pc of row r, is rows[r][rhs] / rows[r][pc].
    Without, it is the kernel basis, one vector per free variable set to 1,
    leftmost first: row pc is -rows[r][free] / rows[r][pc] and row free[j] is e_j.
    """
    pivot_set = set(pivots)
    cols = rhs if rhs is not None else [c for c in range(p) if c not in pivot_set]
    den, sign = math.lcm(*(rows[r][pc] for r, pc in enumerate(pivots))), 1 if rhs is not None else -1
    nums = [[0] * len(cols) for _ in range(p)]
    for r, pc in enumerate(pivots):
        scale = sign * (den // rows[r][pc])
        nums[pc] = [rows[r][j] * scale for j in cols]
    if rhs is None:
        for j, f in enumerate(cols):
            nums[f][j] = den
    return Mat._make(p, len(cols), [x for row in nums for x in row], den)


def kernel(m: Mat) -> Mat:
    """Basis of the right kernel as columns, leftmost-free-variable first.

    Each basis vector sets one free variable to 1 and the others to 0, so
    the output is deterministic and reproducible.
    """
    rows = m._int_rows()
    return _reduced_read(rows, _rref(rows, m.cols), m.cols)


def _augmented_rref(a: Mat, b: Mat) -> tuple:
    """(rows, pivots) of one elimination of [a | b] with pivots in a's columns.

    The rows past the pivots are zero in a's columns; column j of b lies in
    im(a) exactly when it is zero there too.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    common = math.lcm(a._den, b._den)
    an, bn = a._scaled_nums(common), b._scaled_nums(common)
    p, q = a.cols, b.cols
    rows = [list(an[i * p : (i + 1) * p] + bn[i * q : (i + 1) * q]) for i in range(a.rows)]
    return rows, _rref(rows, p)


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Exact Q with a @ Q = b, or None when some column of b is outside im(a).

    Deterministic choice among solutions: pivoted elimination with every
    free variable set to 0, which yields the minimal-support solution.
    """
    rows, pivots = _augmented_rref(a, b)
    if any(any(row[a.cols :]) for row in rows[len(pivots) :]):
        return None
    return _reduced_read(rows, pivots, a.cols, range(a.cols, a.cols + b.cols))


def pivot_basis(m: Mat) -> tuple:
    """(basis, q) from one elimination of m: its leftmost pivot columns and the
    nonzero rows of its reduced form, the only q with basis @ q == m."""
    rows = m._int_rows()
    pivots = _rref(rows, m.cols)
    den = math.lcm(*(rows[r][pc] for r, pc in enumerate(pivots)))
    nums = [x * (den // rows[r][pc]) for r, pc in enumerate(pivots) for x in rows[r]]
    return m.take_cols(pivots), Mat._make(len(pivots), m.cols, nums, den)


@dataclass(frozen=True, eq=False)
class Span:
    """What one elimination of [a^T | b^T] tells of the column span of a (see `read_span`):
    its rank, Y = kernel(a.T) and a basis of im a, both read off the kept reduced
    rows when first asked for, and solve_right(a.T, b.T) or None."""

    rank: int
    solution: Optional[Mat]
    _width: int = field(repr=False)  # the rows of a
    _rows: list = field(repr=False)  # the nonzero reduced rows of [a^T | b^T]
    _pivots: list = field(repr=False)

    @cached_property
    def kernel(self) -> Mat:
        return _reduced_read(self._rows, self._pivots, self._width)

    @cached_property
    def basis(self) -> Mat:  # the nonzero rows of the reduced a^T, as columns
        return Mat._make(self._width, self.rank, [row[i] for i in range(self._width) for row in self._rows])

    def unspanned(self, b: Mat) -> list:
        """Indices of the columns of b outside im a, ascending: the nonzero columns of
        Y^T b, read off the reduced rows without forming Y.  Row f of Y^T b, for a free
        column f, is b_f - sum_r (rows[r][f] / rows[r][pc]) b_pc, with b_i the rows of b."""
        if b.rows != self._width:
            raise DimensionMismatch(f"need columns of {self._width} entries, got {b.rows}")
        pivots, b_rows = self._pivots, [b._nums[i * b.cols : (i + 1) * b.cols] for i in range(b.rows)]
        den = math.lcm(*(row[pc] for row, pc in zip(self._rows, pivots)))
        missed = set()
        for f in set(range(b.rows)).difference(pivots):
            terms = [(row[f] * (den // row[pc]), b_rows[pc]) for row, pc in zip(self._rows, pivots) if row[f]]
            seen = [x * den for x in b_rows[f]] if terms else b_rows[f]
            for c, b_pc in terms:
                seen = [x - c * y for x, y in zip(seen, b_pc)]
            missed.update(j for j, x in enumerate(seen) if x)
        return sorted(missed)


def read_span(a: Mat, b: Optional[Mat] = None) -> Span:
    """The `Span` of a from one elimination of [a^T | b^T], or of a^T alone when b is None.

    Its rows are nonzero multiples of the rows the separate calls reduce, so the
    kernel and the solution equal theirs cell for cell.
    """
    rows, pivots = _augmented_rref(a.T, b.T if b is not None else Mat.zeros(a.cols, 0))
    p, r = a.rows, len(pivots)
    solution = None
    if b is not None and not any(any(row[p:]) for row in rows[r:]):
        solution = _reduced_read(rows, pivots, p, range(p, p + b.rows))
    return Span(r, solution, p, rows[:r], pivots)


def invert(m: Mat) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None when singular.

    A square m with m @ Q = I is invertible, so the solve alone decides.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    return solve_right(m, Mat.identity(m.rows))


# -- subspaces -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of R^ambient_dim given by an independent column basis.

    Two subspaces compare equal exactly when each contains the other; the
    stored bases may differ.
    """

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must match the ambient dimension")
        if rank(self.basis) != self.basis.cols:
            raise ValueError("basis columns must be linearly independent")

    @classmethod
    def _of_independent(cls, basis: Mat) -> "Subspace":
        """Subspace on a basis independent by construction, without the re-rank."""
        s = cls.__new__(cls)
        object.__setattr__(s, "ambient_dim", basis.rows)
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def dim(self) -> int:
        return self.basis.cols

    def project(self, v: Mat) -> Mat:
        """Exact orthogonal projection of a column vector onto the subspace."""
        if v.rows != self.ambient_dim or v.cols != 1:
            raise DimensionMismatch("expected a column vector in the ambient space")
        if self.dim == 0:
            return Mat.zeros(self.ambient_dim, 1)
        b = self.basis
        y = solve_right(b.T @ b, b.T @ v)
        if y is None:  # Gram matrix of an independent basis is invertible
            raise AssertionError("projection solve failed on an independent basis")
        return b @ y

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return contains(self, other) and contains(other, self)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of R^{self.ambient_dim}: [{format_matrix(self.basis)}])"


def image(m: Mat) -> Subspace:
    """Column space of m, spanned by its leftmost pivot columns."""
    return Subspace._of_independent(m.take_cols(pivot_columns(m)))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True when every vector of `inner` lies in `outer` (exact)."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if inner.dim == 0:
        return True
    return rank(Mat.hstack([outer.basis, inner.basis])) == outer.dim


# -- floating bridge -----------------------------------------------------

@dataclass(frozen=True)
class SpectralInfo:
    """Largest eigenvalue modulus with a root-residual estimate.

    The radius is Newton-polished on the square-free part of the exact
    characteristic polynomial at every size, and `residual` is the size of
    the last Newton step.  `marginal` is set when the radius lies
    within EIG_MARGIN of the unit circle, in which case stability verdicts
    should not be trusted.
    """

    radius: float
    residual: float
    marginal: bool


def characteristic_polynomial(m: Mat) -> list:
    """Exact monic characteristic polynomial, highest degree first."""
    if m.rows != m.cols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    work = Mat.zeros(n, n)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[-1] * Mat.identity(n)) if k > 1 else m
        coeffs.append(-work.trace() / k)
    return coeffs


def _primitive(poly: list) -> list:
    """Integer polynomial divided by the gcd of its coefficients."""
    g = math.gcd(*poly)
    return [c // g for c in poly]


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r) with lc(b)^k a = q b + r, for integer polynomials highest degree first."""
    q = []
    while len(a) >= len(b):
        q = [b[0] * c for c in q] + [a[0]]
        a = [b[0] * x - a[0] * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and not a[0]:
        a.pop(0)
    return q, a


def _square_free_part(coeffs: list) -> list:
    """Primitive integer polynomial with the roots of `coeffs`, each simple: `coeffs`
    divided exactly by its gcd with its derivative (primitive remainder sequence)."""
    p = list(_over_lcm(coeffs)[0])
    a, b = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _primitive(_pseudo_divmod(p, a)[0])


# The radius is Newton-polished at _NEWTON_DPS digits on the square-free
# characteristic polynomial.  Its roots are all simple, so Newton converges
# quadratically from float64 starting points and keeps full accuracy on
# repeated eigenvalues, where a float64 eigensolver loses half its digits or
# more.  Float64 roots within _CANDIDATE_BAND of the largest
# modulus are polished until the step is below _NEWTON_TOL, both relative.
_NEWTON_DPS = 40
_NEWTON_TOL = 1e-30
_CANDIDATE_BAND = 1e-6


def _polished_radius(poly: list) -> Optional[tuple]:
    """(radius, last Newton step) of a square-free integer polynomial, as mpmath
    numbers, or None when a Newton run fails, leaves the candidate band or
    repeats a root."""
    import mpmath

    try:
        starts = np.roots([c / poly[0] for c in poly])  # monic, so the companion matrix is finite
    except OverflowError:
        return None
    top = float(np.max(np.abs(starts)))
    if not math.isfinite(top):
        return None
    found = []
    with mpmath.workdps(_NEWTON_DPS):
        mp_poly = [mpmath.mpf(c) for c in poly]
        for s in starts:
            if s.imag < 0 or abs(s) < top * (1 - _CANDIDATE_BAND):
                continue  # a conjugate root has the same modulus
            z = mpmath.mpf(s.real) if s.imag == 0 else mpmath.mpc(s)
            for _ in range(30):
                f, df = mpmath.polyval(mp_poly, z, derivative=True)
                if not df:
                    return None
                step = f / df
                z -= step
                if abs(step) <= _NEWTON_TOL * abs(z):
                    break
            else:
                return None
            if abs(z - s) > _CANDIDATE_BAND * top or any(abs(z - r) <= _NEWTON_TOL * top for r, _ in found):
                return None
            found.append((z, abs(step)))
        root, step = max(found, key=lambda rs: abs(rs[0]))
        return abs(root), step


def spectral_radius_info(m: Mat) -> SpectralInfo:
    if m.rows != m.cols:
        raise DimensionMismatch("spectral radius of a non-square matrix")
    if m.rows == 0:
        return SpectralInfo(0.0, 0.0, False)
    import mpmath

    poly = _square_free_part(characteristic_polynomial(m))
    # poly(2^s y) has poly's roots over 2^s, the largest near 1 for s from the
    # coefficient sizes, so no float overflows or underflows; mpmath scales back
    lead, d = abs(poly[0]).bit_length(), len(poly) - 1
    s = max(((abs(c).bit_length() - lead) // i for i, c in enumerate(poly[1:], 1) if c), default=0)
    poly = [c << s * (d - i) if s > 0 else c << -s * i for i, c in enumerate(poly)]
    polished = _polished_radius(poly)
    if polished is None:  # safety net: polyroots on a polynomial whose roots are all simple
        with mpmath.workdps(50):
            roots, err = mpmath.polyroots([mpmath.mpf(c) for c in poly], maxsteps=200, extraprec=120, error=True)
            polished = max(abs(r) for r in roots), mpmath.mpf(err)
    radius, residual = (float(mpmath.ldexp(v, s)) for v in polished)  # past the float range: inf or 0
    return SpectralInfo(radius, residual, abs(radius - 1.0) <= EIG_MARGIN)


def numeric_rank(a: np.ndarray) -> int:
    """Singular values above EIG_MARGIN (relative to the largest, floored at 1)."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > EIG_MARGIN * max(1.0, float(s[0]))))

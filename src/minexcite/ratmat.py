"""Exact rational matrices and subspace arithmetic.

Every decision in this package (rank, image, containment, membership,
linear solves, controllability and stability) is made over the rationals
with no rounding.  Floating point enters only through the spectral radius
at the bottom of this module, a displayed figure that feeds no verdict.

A `Mat` stores its cells as Python ints over one common denominator, in
a canonical form (see the class docstring), and reads come back as
`fractions.Fraction` values built on demand.  Matrices and subspaces are
immutable, so every result, an operand handed back included, is safe to
share across threads.

Every operation works on the integers with no change to exactness: sums
bring both operands to the lcm of their denominators, `*` and `@` multiply
the denominators, elimination runs fraction-free Gauss-Jordan on primitive
integer rows, as does the phase-1 simplex of `nonnegative_solve`, and one
gcd makes each result canonical.  So an identity right factor costs nothing:
`M @ I` is M itself.

`@` has two integer kernels, chosen from the nonzero counts of its factors.
`_column_product` builds each output column from the left columns that the
right column's nonzero cells pick (Gustavson), each a strided slice taken as
it is for a unit cell, so right zeros cost nothing: sparse plans, unit
columns above all, take it.  `_packed_product` packs each right row into one
int (Kronecker substitution) and makes one big multiply-add per nonzero left
cell: dense products, a design basis exciting a system or a closed loop's
powers, take it.  For a rows x n by n x w product the packed kernel runs when
0 < nnz(left) < nnz(right) (2 + rows) - n w - rows (n + w): when the column
kernel's cost per right nonzero, a fixed part and a cell per left row,
outweighs packing every right cell, the big multiply-adds and a pass over
the left and output cells, in units fitted to timings of both on a grid.

`eliminate` is the one entry point of elimination; `rank`, `kernel`, `read_span`
and the like read the `Span` it returns.  It reduces a alone and logs the row
operations; b's columns follow the forward half of that log (`_replay`) the first
time a read asks for them, and the solution comes by back-substitution on the rows
as they led, so a read of a alone never touches b, and every read equals the one
that eliminating [a | b] whole gives.  The reads of a come off one table of the
reduced rows over the lcm of their pivots.  A column lies outside a plan's span
exactly when its product with the plan's left kernel Y^T is nonzero.
`_staircase` is the one reader of a pair, on its block [A, B]: one Krylov
elimination gives its reachable subspace, whose annihilator proves invariance
and, when smaller, holds the modes outside it on the quotient, each set
decided exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, InconsistentDataset, SpecValidationError

# A spectral radius within EIG_MARGIN of 1 is flagged marginal (`identify.GainResult.marginal`).
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
_PRIME = 2**61 - 1  # a word-size prime, for the gcd(p, p') of `_square_free_part` modulo it


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
    `@` picks one of two integer kernels from the factors' nonzero counts
    (see the module docstring); both give the same exact cells.
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
        nums = [x for i in range(rows) for block, w in scaled for x in block[i * w : (i + 1) * w]]
        return cls._make(rows, sum(m.cols for m in mats), nums, den)

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack needs equal column counts")
        den = math.lcm(*(m._den for m in mats))
        return cls._make(sum(m.rows for m in mats), cols, [x for m in mats for x in m._scaled_nums(den)], den)

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
        nums = [x for row in zip(*map(self._col_nums, indices)) for x in row]  # a column outside raises IndexError
        return Mat._make(self.rows, len(indices), nums, self._den)

    def drop_col(self, j: int) -> "Mat":
        return self.take_cols([c for c in range(self.cols) if c != j])

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    # -- algebra ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        fields = (self.rows, self.cols, self._den, self._nums)
        return fields == (other.rows, other.cols, other._den, other._nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._nums, self._den))

    def _cellwise(self, other: "Mat", op, verb: str) -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot {verb} {self.shape} and {other.shape}")
        den = math.lcm(self._den, other._den)
        return Mat._make(self.rows, self.cols, map(op, self._scaled_nums(den), other._scaled_nums(den)), den)

    def __add__(self, other: "Mat") -> "Mat":
        return self._cellwise(other, operator.add, "add")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._cellwise(other, operator.sub, "subtract")

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
        if w == n and other._den == 1 and other._nums[:: n + 1].count(1) == n and other._nums.count(0) == n * n - n:
            return self  # other is I_n, n ones on its diagonal and zeros elsewhere: M I = M exactly
        left, right, rows = self._nums, other._nums, self.rows
        # pack when 0 < nnz_left < nnz_right (2 + rows) - n w - rows (n + w) (see the module docstring); a product
        # whose shape leaves no such room, as a right factor of unit columns mostly does, skips counting the left one
        room = (len(right) - right.count(0)) * (2 + rows) - n * w - rows * (n + w)
        kernel = _packed_product if room > 1 and 0 < len(left) - left.count(0) < room else _column_product
        return Mat._make(rows, w, kernel(left, right, rows, n, w), self._den * other._den)

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


def _column_product(left: tuple, right: tuple, rows: int, n: int, w: int) -> list:
    """The integer cells of a rows x n by n x w product, row-major, column by column (F. G.
    Gustavson, ACM TOMS 4(3), 1978): output column j is the sum, over the nonzero y_kj, of
    y_kj times left column k, a strided slice of `left`, taken as it is for a unit y_kj."""
    nums = [0] * (rows * w)
    if not any(left):
        return nums
    cols, terms = [left[k::n] for k in range(n)], [[] for _ in range(w)]
    for p in itertools.compress(range(n * w), right):
        k, j = divmod(p, w)
        terms[j].append(cols[k] if right[p] == 1 else map(right[p].__mul__, cols[k]))
    for j, column in enumerate(terms):
        if column:
            nums[j::w] = map(sum, zip(*column)) if len(column) > 1 else column[0]
    return nums


def _packed_product(left: tuple, right: tuple, rows: int, n: int, w: int) -> list:
    """The integer cells of a rows x n by n x w product, row-major, by Kronecker
    substitution (see the module docstring): right row k becomes one
    int R_k = sum_j y_kj 2^(s j), and output row i is read off offset + sum_k x_ik R_k,
    one big multiply-add per nonzero left cell.  No cell exceeds n max|x| max|y| in
    magnitude, of s - 1 bits, so the offset's 2^(s-1) in every slot keeps each slot in
    [0, 2^s) and no borrow or carry crosses slots.  Slots are read by masks and shifts:
    packed rows can pass the digit limit of int to decimal text conversion."""
    s = (n * max(map(abs, left)) * max(map(abs, right))).bit_length() + 1
    packed = []
    for k in range(n):
        r = 0
        for y in reversed(right[k * w : (k + 1) * w]):
            r = (r << s) + y
        packed.append(r)
    half, mask = 1 << (s - 1), (1 << s) - 1
    offset = half * (((1 << s * w) - 1) // mask)  # half in each of the w slots
    nums = []
    for i in range(rows):
        acc = offset
        for x, r in zip(left[i * n : (i + 1) * n], packed):
            if x:
                acc += x * r
        for _ in range(w):
            nums.append((acc & mask) - half)
            acc >>= s
    return nums


# -- matrix literal format ---------------------------------------------

def parse_matrix(text: str, rows: Optional[int] = None, cols: Optional[int] = None) -> Mat:
    """Parse the matrix literal format: rows split by `;`, entries by `,`.

    Entries may be `p/q` fractions, integers, or decimal strings; decimals
    are parsed exactly.  Only an empty string denotes a matrix with no
    cells: of the given shape when `rows` or `cols` is 0, else 0 x 0 when
    neither is given; a non-empty literal must have the shape given.
    """
    text = text.strip()
    if not text:
        if rows == 0 or cols == 0 or rows is None and cols is None:
            return Mat.zeros(rows or 0, cols or 0)
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

def _clear_column(rows: list, r: int, c: int, log: Optional[list] = None) -> None:
    """Pivot on rows[r][c]: every other row with a nonzero entry f in column c
    becomes `piv * row - f * rows[r]`, divided by g, the gcd of its entries;
    `log`, when given, gets (i, f, g) for each row i so updated below row r."""
    row_r = rows[r]
    piv = row_r[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            new = [piv * a - f * b for a, b in zip(row, row_r)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
            if log is not None and i > r:
                log.append((i, f, g))


def _rref(rows: list, pivot_width: int, log: list) -> list:
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
    column indices in order.  `log` gets the input rows' gcds, then one
    (p, c, row, updates) per pivot: row p swapped into place, the pivot
    column c, the row as it leads, and the updates below it that
    `_clear_column` logs, all that `_replay` and `Span` need of a right side.
    """
    log.append(gcds := [])
    for i, row in enumerate(rows):
        gcds.append(g := math.gcd(*row))
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
        log.append((p, c, rows[r], updates := []))
        _clear_column(rows, r, c, updates)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _replay(log: list, b_rows: list, sa: int) -> tuple:
    """b's integer rows through `log`, the row operations of `_rref` on a's, as far
    as they reach below each pivot: the forward half of Gauss-Jordan, all that a row
    past the rank receives, and a pivot row before it leads.  Returns (ms, rows) in
    the reduced order, one multiplier per row, for which [ms[i] e | rows[i]], e row
    i of a as that half leaves it (the row that leads, for a pivot row), is a
    positive multiple of row i of [a | b] in the same elimination of it whole, and
    that row itself once an update has reached it.

    b's rows are over a common denominator with a's, which is sa times a's own, so an
    input row of a divided by g is [g sa e | b_i]; a zero one is made primitive, as
    no update reaches it.  An update (i, f, g) under pivot piv of row r is one of
    [a | b] by m_r piv and m_i f, whose part in a is m_i m_r g times the new row of
    a; as e is primitive, or zero with m, the row is divided by the gcd of m and its
    part in b, as the whole row would be."""
    gcd = math.gcd
    ms, rows = [g * sa for g in log[0]], [row if g else _primitive(list(row)) for g, row in zip(log[0], b_rows)]
    for r, (p, c, lead, updates) in enumerate(log[1:]):
        rows[r], rows[p], ms[r], ms[p] = rows[p], rows[r], ms[p], ms[r]
        row_r, m_r = rows[r], ms[r]
        u = m_r * lead[c]
        for i, f, g in updates:
            m = ms[i]
            v, m = m * f, m * m_r * g
            new = [u * x - v * y for x, y in zip(rows[i], row_r)]
            d = gcd(m, *new)
            ms[i], rows[i] = (m // d, [x // d for x in new]) if d > 1 else (m, new)
    return ms, rows


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


@dataclass(frozen=True, eq=False)
class Span:
    """What one elimination of a beside b (see `eliminate`) tells of the row span of a
    and of b, each read off the kept integer rows when first asked for: the rank
    and pivot columns of a, its right kernel and its first column, a basis of its
    row space, the columns of a matrix outside that space, the b part of the rows
    past the rank, and the solution of a Q = b and its transpose.

    The reads of a come off one table of the reduced rows over one denominator.
    b's columns follow the logged row operations (`_replay`) the first time a
    read of b asks for them, so a read of a alone never touches b."""

    rank: int
    pivots: list
    _rows: list = field(repr=False)  # every row of the reduced a
    _width: int = field(repr=False)  # the columns of a
    _rhs: Optional[int] = field(repr=False)  # the columns of b, None without b
    _b: Callable[[], tuple] = field(repr=False)  # (ms, rows) as `_replay` leaves b's, rows of no entries without b
    _log: list = field(repr=False)  # the gcds and row operations of the reduction of a

    @property
    def _free(self) -> list:  # the columns of a without a pivot, ascending
        return sorted(set(range(self._width)).difference(self.pivots))

    @cached_property
    def _table(self) -> tuple:
        """(den, rows): den is the lcm of the pivots, and rows maps each pivot to the
        row of the reduced form that it leads, over den, a row scaled only where its
        pivot differs from den."""
        led = list(zip(self._rows, self.pivots))
        den = math.lcm(*[row[pc] for row, pc in led])
        return den, {pc: row if row[pc] == den else [x * (den // row[pc]) for x in row] for row, pc in led}

    @cached_property
    def _b_rows(self) -> tuple:  # b's columns, replayed once, when first read
        return self._b()

    @cached_property
    def kernel(self) -> Mat:
        """Basis of the right kernel of a, one column per free variable set to 1, leftmost first."""
        p, free, (den, table) = self._width, self._free, self._table
        rows = {f: [den * (f == g) for g in free] for f in free}
        rows.update((pc, [-row[f] for f in free]) for pc, row in table.items())
        return Mat._make(p, len(free), [x for i in range(p) for x in rows[i]], den)

    @property
    def annihilator(self) -> Optional[Mat]:
        """The first column of `kernel`, None when the kernel is empty, read off the rows that
        are not zero at its free column: for a plan's read, a direction orthogonal to every
        experiment."""
        if self.rank == self._width:
            return None
        f, cells = self._free[0], [0] * self._width
        led = [(row, pc) for row, pc in zip(self._rows, self.pivots) if row[f]]
        cells[f] = den = math.lcm(*[row[pc] for row, pc in led])
        for row, pc in led:
            cells[pc] = -row[f] * (den // row[pc])
        return Mat._make(self._width, 1, cells, den)

    @cached_property
    def basis(self) -> Mat:
        """The nonzero rows of the reduced a, as columns: a basis of its row space."""
        den, table = self._table
        return Mat._make(self._width, self.rank, [row[i] for i in range(self._width) for row in table.values()], den)

    @property
    def dependent(self) -> Mat:
        """The b part of the rows past the rank, which are zero in a: with b = I, a basis
        of the left kernel of a, as rows; b lies in im a exactly when it is 0."""
        rows = self._b_rows[1][self.rank :]
        return Mat._make(len(rows), self._rhs or 0, [x for row in rows for x in row])

    @cached_property
    def _solved(self) -> Optional[tuple]:
        """(den, rows): the rows of `solution` over den, each the b part of the reduced
        row led at its index, 0 where none leads; None when b is absent or some column
        of it lies outside im a.  By back-substitution, last pivot first: the row e that
        leads at pc, m e beside x its row of [a | b] then (`_replay`), gives y_pc, x / m
        less the sum of e_s y_s over the later pivots s, over e_pc."""
        (ms, rows), ys = self._b_rows, {}  # pc: (d, y), y / d that b part, d of either sign
        if self._rhs is None or any(map(any, rows[self.rank :])):
            return None
        for r in reversed(range(self.rank)):
            (_, pc, lead, _), m, row = self._log[r + 1], ms[r], rows[r]
            if self._rows[r] is lead:  # no later pivot updated it: it is zero at their columns
                ys[pc] = (m * lead[pc], row)
                continue
            terms = [(lead[s], *ys[s]) for s in ys if lead[s]]
            den = math.lcm(m, *[d for _, d, _ in terms])
            acc = [x * (den // m) for x in row]
            for c, d, y in terms:
                k = c * (den // d)
                acc = [a - k * v for a, v in zip(acc, y)]
            g = math.gcd(den := den * lead[pc], *acc)
            ys[pc] = (den // g, [a // g for a in acc])
        den, zero = math.lcm(*[d for d, _ in ys.values()]), [0] * self._rhs
        return den, [[x * (den // ys[i][0]) for x in ys[i][1]] if i in ys else zero for i in range(self._width)]

    @cached_property
    def solution(self) -> Optional[Mat]:
        """The Q with a Q = b whose free variables are 0, the minimal-support
        solution, or None when b is absent or some column lies outside im a."""
        solved = self._solved
        return None if solved is None else Mat._make(self._width, self._rhs, [x for row in solved[1] for x in row], solved[0])

    @cached_property
    def model(self) -> Mat:
        """The transpose of `solution`, built as such: for a plan's read beside X+, Z^T, the
        [A, B] that every consistent system shares on the plan's span; InconsistentDataset
        when no system reproduces X+."""
        if (solved := self._solved) is None:
            raise InconsistentDataset("no linear system reproduces this dataset")
        return Mat._make(self._rhs, self._width, [x for col in zip(*solved[1]) for x in col], solved[0])

    def unspanned(self, b: Mat) -> list:
        """Indices of the columns of b outside the row space of a, ascending: the nonzero
        columns of the kernel's transpose times b, read off the reduced rows without
        forming it.  Row f of that product, for a free column f, is b_f minus the sum over
        pivots pc of (reduced entry at f) * b_pc, with b_i the rows of b."""
        if b.rows != self._width:
            raise DimensionMismatch(f"need columns of {self._width} entries, got {b.rows}")
        b_rows, (den, table), missed = b._int_rows(), self._table, set()
        for f in self._free:
            terms = [(row[f], b_rows[pc]) for pc, row in table.items() if row[f]]
            seen = [x * den for x in b_rows[f]] if terms else b_rows[f]
            for c, b_pc in terms:
                seen = [x - c * y for x, y in zip(seen, b_pc)]
            missed.update(j for j, x in enumerate(seen) if x)
        return sorted(missed)


def eliminate(a: Mat, b: Optional[Mat] = None, transposed: bool = False) -> Span:
    """The one elimination: a reduced with its row operations logged, b's columns
    following them when first read (see `Span`); with `transposed`, a^T beside b^T,
    its rows read off the columns of a and b."""
    (count, p), an = a.shape[::-1] if transposed else a.shape, a._nums
    q = None if b is None else b.rows if transposed else b.cols
    if b is not None and (found := b.cols if transposed else b.rows) != count:
        raise DimensionMismatch(f"row counts differ: {count} vs {found}")
    rows = [list(an[i::count]) for i in range(count)] if transposed else [list(an[i * p : (i + 1) * p]) for i in range(count)]
    pivots = _rref(rows, p, log := [])

    def b_rows() -> tuple:  # row i is column i of b when transposed
        if b is None:
            return [0] * count, [()] * count
        bn = b._scaled_nums(common := math.lcm(a._den, b._den))
        return _replay(log, [bn[i::count] if transposed else bn[i * q : (i + 1) * q] for i in range(count)], common // a._den)

    return Span(len(pivots), pivots, rows, p, q, b_rows, log)


def rank(m: Mat) -> int:
    """Exact rank over the rationals."""
    return eliminate(m).rank


def pivot_columns(m: Mat) -> list:
    return eliminate(m).pivots


def kernel(m: Mat) -> Mat:
    """Basis of the right kernel as columns, leftmost-free-variable first (see `Span.kernel`)."""
    return eliminate(m).kernel


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Exact Q with a @ Q = b, or None when some column of b is outside im(a) (see `Span.solution`)."""
    return eliminate(a, b).solution


def pivot_basis(m: Mat) -> tuple:
    """(basis, q) from one elimination of m: its leftmost pivot columns and the
    nonzero rows of its reduced form, the only q with basis @ q == m."""
    span = eliminate(m)
    return m.take_cols(span.pivots), span.basis.T


def read_span(a: Mat, b: Optional[Mat] = None) -> Span:
    """The column span of a plan a, and the transposed solve a^T Z = b^T: [a^T | b^T], read off columns."""
    return eliminate(a, b, transposed=True)


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


# -- the Krylov staircase ----------------------------------------------------

def schur_stable(coeffs: list) -> bool:
    """Whether a rational polynomial, highest degree first as `characteristic_polynomial` gives it,
    has every root strictly inside the unit disc: z = (1+s)/(1-s) maps it onto the left half-plane,
    so g(s) = (1-s)^d p(z) keeps degree d and the first column of its Routh array, rows made
    primitive, is positive (Routh-Hurwitz)."""
    poly = list(_over_lcm(coeffs)[0])
    while not poly[-1]:  # a root at 0 lies inside
        poly.pop()
    g, power = [poly[0]], [1]  # power is (1-s)^k
    for c in poly[1:]:
        power = [x - y for x, y in zip(power + [0], [0] + power)]
        g = [x + y + c * z for x, y, z in zip(g + [0], [0] + g, power)]
    g = [x if g[-1] > 0 else -x for x in reversed(g)]  # highest degree first, g[0] >= 0
    upper, lower = g[0::2], g[1::2]
    while lower and lower[0] > 0:
        upper, lower = lower, _primitive([lower[0] * x - upper[0] * y for x, y in zip(upper[1:], lower[1:] + [0])])
    return not lower and g[0] > 0


def _staircase(ab: Mat, stages: bool) -> tuple:
    """(r, stable): r is the dimension of the reachable subspace of the pair whose block is [a, b] = ab
    and `stable`, None without `stages`, whether every mode outside it lies strictly inside the unit disc.

    Integer rows in semi-echelon form, each zero at the pivots before it.  a' = den * a, ab's first n
    columns over its denominator, is applied by its nonzero rows to the directions each level adds,
    from b's columns on, until the span is a-invariant.  While its k = n - r missing dimensions are
    fewer than r and than the directions just added, a direction v goes on only when Y a' v != 0, Y
    being k rows that annihilate the span, one per column f at no pivot.  Then a unit vector at no
    pivot whose column of a' is zero adds itself, a stage of polynomial x, and cyclic stages grow from
    the first other one, e.  Past its n entries a stage's vector carries a tag weighing a'^i e, kept
    primitive, and earlier rows zeros, as their span is a-invariant.  A dependent vector's tag is a
    polynomial q, and q(den * z) the characteristic polynomial of a on the stage's quotient.  For
    0 < k < r the stages run on the k x k map a induces on R^n / span (Kalman), no input; at k >= r it is slower.
    """
    n, width, den, nums = ab.rows, ab.cols, ab._den, ab._nums  # width is the stride of a' in nums
    rows_a = [(i, row) for i in range(n) if any(row := nums[i * width : i * width + n])]
    basis, y_rank = [], None  # (pivot, row); the span's dimension when Y was last built

    def annihilator() -> tuple:  # Y as [(f, y)], y zero at the other free columns, by back-substitution; Y a'
        ys = []
        for f in sorted(set(range(n)).difference(p for p, _ in basis)):
            y = [int(i == f) for i in range(n)]
            for p, row in reversed(basis):  # later rows are zero at p: setting y[p] keeps them annihilated
                if s := sum(map(operator.mul, y, row)):
                    g = math.gcd(s, row[p])
                    y = [x * (row[p] // g) for x in y]
                    y[p] = -s // g
            ys.append((f, y))
        return ys, [[sum(map(operator.mul, y, nums[c::width])) for c in range(n)] for _, y in ys]

    def times_a(v: list) -> list:  # a zero row of a' costs nothing
        out = [0] * n
        for i, row in rows_a:
            out[i] = sum(map(operator.mul, row, v))
        return out

    def add(v: list) -> list:
        """v reduced against the basis, and appended to it unless its first n entries are 0."""
        for p, row in basis:
            if f := v[p]:
                v = [row[p] * x - f * y for x, y in zip(v, row)]
                if len(v) > n:
                    v = _primitive(v)
        v = _primitive(v)
        if (p := next(itertools.compress(range(n), v), None)) is not None:
            basis.append((p, v))
        return v

    level = [list(nums[j::width]) for j in range(n, width)]
    while level:  # stops at once when the span is R^n
        added = [v for v in (add(v) for v in level if len(basis) < n) if any(v)]
        if len(added) > (k := n - len(basis)) > 0 and len(basis) > k:
            (ys, zs), y_rank = annihilator(), len(basis)
            added = [v for v in added if any(sum(map(operator.mul, z, v)) for z in zs)]
        level = [times_a(v) for v in added] if len(basis) < n else []
    r, done = len(basis), 0
    if not stages:
        return r, None
    if 0 < n - r < r:  # the quotient map: y_i . a'[:, f_j] / y_i[f_i] over den * lcm(y_i[f_i])
        ys, zs = annihilator() if y_rank != r else (ys, zs)
        n, den, basis = n - r, den * (lcm := math.lcm(*(y[f] for f, y in ys))), []
        nums, width = [z[g] * (lcm // y[f]) for (f, y), z in zip(ys, zs) for g, _ in ys], n
        rows_a = [(i, row) for i in range(n) if any(row := nums[i * n : (i + 1) * n])]
    pivots = {p for p, _ in basis}
    basis += [(f, [int(i == f) for i in range(n)]) for f in range(n) if f not in pivots and not any(nums[f::width])]
    while len(basis) < n:
        basis[done:] = [(p, row[:n] + [0] * (n + 1)) for p, row in basis[done:]]
        done, v = len(basis), [0] * (2 * n + 1)
        v[min(set(range(n)).difference(p for p, _ in basis))] = v[n] = 1
        while any((v := add(v))[:n]):
            v = times_a(v) + [0] + v[n:-1]
        if not schur_stable([t * den**i for i, t in enumerate(v[n : n + len(basis) - done + 1])][::-1]):
            return r, False
    return r, True


def staircase(ab: Mat, stages: bool) -> tuple:
    """`_staircase` of a pair's block [A, B]: (reachable dimension, stability of the modes outside or None)."""
    return _staircase(ab, stages)


# -- floating bridge -----------------------------------------------------

def characteristic_polynomial(m: Mat) -> list:
    """Exact monic characteristic polynomial, highest degree first."""
    if m.rows != m.cols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n, coeffs, work = m.rows, [Fraction(1)], m
    for k in range(1, n + 1):
        work = m @ (work + coeffs[-1] * Mat.identity(n)) if k > 1 else m
        coeffs.append(-work.trace() / k)
    return coeffs


def _primitive(poly: list) -> list:
    """Integer polynomial, or row, divided by the gcd of its entries; 0 stays itself."""
    g = math.gcd(*poly)
    return [c // g for c in poly] if g > 1 else poly


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r) with lc(b)^k a = q b + r, for integer polynomials highest degree first."""
    q = []
    while len(a) >= len(b):
        q = [b[0] * c for c in q] + [a[0]]
        a = [b[0] * x - a[0] * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and not a[0]:
        a.pop(0)
    return q, a


def _sequence_square_free(p: list) -> list:
    """Integer p divided exactly by gcd(p, p'), from the primitive remainder sequence, made primitive
    with a positive leading coefficient (the sequence's own sign is that of an unknown power)."""
    a, b = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    part = _primitive(_pseudo_divmod(p, a)[0])
    return part if part[0] > 0 else [-c for c in part]


def _square_free_part(coeffs: list) -> list:
    """Primitive polynomial with the roots of `coeffs`, each simple, its leading coefficient positive when
    that of `coeffs` is: `_sequence_square_free` of p, `coeffs` over their lcm, or p made primitive when
    gcd(p, p') modulo _PRIME, not dividing lc(p), is constant."""
    p = list(_over_lcm(coeffs)[0])
    if p[0] % _PRIME:
        x, y = [c % _PRIME for c in p], [c * (len(p) - 1 - i) % _PRIME for i, c in enumerate(p[:-1])]
        while y:
            x, y = y, list(itertools.dropwhile(operator.not_, (c % _PRIME for c in _pseudo_divmod(x, y)[1])))
        if len(x) == 1:
            return _primitive(p)
    return _sequence_square_free(p)


# The radius is Newton-polished at _NEWTON_DPS digits on the square-free
# characteristic polynomial.  Its roots are all simple, so Newton converges
# quadratically from the double-precision Aberth-Ehrlich starts and keeps full
# accuracy on repeated eigenvalues, where a float64 eigensolver loses half its
# digits or more.  Starts within _CANDIDATE_BAND of the largest
# modulus are polished until the step is below _NEWTON_TOL, both relative.
_NEWTON_DPS = 40
_NEWTON_TOL = 1e-30
_CANDIDATE_BAND = 1e-6


def _aberth(poly: list) -> Optional[list]:
    """Every root of a square-free integer polynomial, highest degree first, as a
    Python complex, by the Aberth-Ehrlich iteration (Aberth 1973, Ehrlich 1967);
    None when it does not settle or a value overflows.  It has settled when the
    polynomial's value at every root is down to its rounding error."""
    d = len(poly) - 1
    try:
        p = [c / poly[0] for c in poly]
        radius = max(abs(p[k]) ** (1 / k) for k in range(1, d + 1))  # every root within twice this (Fujiwara)
        # starts on a circle, turned so that none is real or the conjugate of another
        z = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
        for _ in range(100):  # cubic near simple roots: dense loops to n = 32 settle in 4 to 15
            settled = True
            for i, zi in enumerate(z):
                f, df, bound = 0j, 0j, 0.0
                for c in p:
                    f, df, bound = f * zi + c, df * zi + f, bound * abs(zi) + abs(c)
                if abs(f) > 4 * d * math.ulp(1.0) * bound:
                    ratio, settled = f / df, False
                    z[i] = zi - ratio / (1 - ratio * sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i))
            if settled:
                return z if all(map(cmath.isfinite, z)) else None
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _polished_radius(poly: list) -> Optional[object]:
    """Largest root modulus of a square-free integer polynomial, as an mpmath
    number, or None when the starts or a Newton run fail, a run leaves the
    candidate band or repeats a root."""
    import mpmath

    if (starts := _aberth(poly)) is None:
        return None
    top = max(map(abs, starts))
    found = []
    with mpmath.workdps(_NEWTON_DPS):
        mp_poly = [mpmath.mpf(c) for c in poly]
        for s in starts:
            if abs(s) < top * (1 - _CANDIDATE_BAND):
                continue
            z = mpmath.mpc(s)
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
            if abs(z - s) > _CANDIDATE_BAND * top or any(abs(z - r) <= _NEWTON_TOL * top for r in found):
                return None
            found.append(z)
        return max(map(abs, found))


def root_radius(coeffs: list) -> float:
    """Largest root modulus of a monic rational polynomial, highest degree first,
    Newton-polished on its square-free part; a constant has radius 0.  A figure
    for display: stability is decided exactly, by `staircase` or `schur_stable`."""
    if len(coeffs) == 1:
        return 0.0
    import mpmath

    poly = _square_free_part(coeffs)
    # poly(2^s y) has poly's roots over 2^s, the largest near 1 for s from the
    # coefficient sizes, so no float overflows or underflows; mpmath scales back
    lead, d = abs(poly[0]).bit_length(), len(poly) - 1
    s = max(((abs(c).bit_length() - lead) // i for i, c in enumerate(poly[1:], 1) if c), default=0)
    poly = [c << s * (d - i) if s > 0 else c << -s * i for i, c in enumerate(poly)]
    radius = _polished_radius(poly)
    if radius is None:  # safety net: polyroots on a polynomial whose roots are all simple
        with mpmath.workdps(50):
            radius = max(abs(r) for r in mpmath.polyroots([mpmath.mpf(c) for c in poly], maxsteps=200, extraprec=120))
    return float(mpmath.ldexp(radius, s))  # past the float range: inf or 0

"""Exact rational matrices and subspace arithmetic.

Every structural decision in this package (rank, image, containment,
membership, linear solves) is made over the rationals with no rounding.
Floating point enters only through the spectral helpers at the bottom of
this module, which carry an explicit margin for unit-circle tests.

Entries are `fractions.Fraction` values, which are always stored in lowest
terms with a positive denominator.  Matrices and subspaces are immutable;
all operations return new values and are safe to share across threads.

The two hot kernels work on Python ints instead of a `Fraction` per cell,
with no change to exactness: elimination scales each row by the lcm of
its denominators and runs fraction-free Gauss-Jordan on primitive integer
rows, and `@` brings each left row and right column to one common
denominator and forms integer dot products.  Only the cells a caller
reads are turned back into `Fraction`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch

Rational = Fraction

# An eigenvalue counts as on or outside the unit circle when its modulus is
# at least 1 - EIG_MARGIN; moduli within EIG_MARGIN of 1 are flagged marginal.
EIG_MARGIN = 1e-9


def as_rational(value) -> Fraction:
    """Coerce an entry to an exact rational.

    Accepts Fraction, int, and strings in the forms accepted by the matrix
    literal format: `p/q`, plain integers, and decimal strings (parsed
    exactly, so "0.5" becomes 1/2).  Floats are rejected: binary floats do
    not round-trip to the decimal the caller wrote, so requiring a string
    keeps the exactness guarantee honest.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(
            "float entries are not exact; pass a string such as '0.5' or a Fraction"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational entry")


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Mat:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "_cells")

    def __init__(self, rows_data: Sequence[Sequence]):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        cells = []
        for r in rows_data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows in matrix literal")
            cells.extend(as_rational(v) for v in r)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_cells", tuple(cells))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_flat(cls, rows: int, cols: int, cells: Iterable) -> "Mat":
        m = cls.__new__(cls)
        cells = tuple(as_rational(v) for v in cells)
        if len(cells) != rows * cols:
            raise DimensionMismatch("cell count does not match shape")
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_cells", cells)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls.from_flat(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.from_flat(
            n, n, [Fraction(1) if i == j else Fraction(0) for i in range(n) for j in range(n)]
        )

    @classmethod
    def unit_column(cls, n: int, index: int) -> "Mat":
        """Standard basis column e_index (0-based) in R^n."""
        if not 0 <= index < n:
            raise DimensionMismatch(f"unit index {index} out of range for R^{n}")
        return cls.from_flat(n, 1, [Fraction(1) if i == index else Fraction(0) for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence) -> "Mat":
        return cls.from_flat(len(entries), 1, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Mat":
        if not columns:
            if rows is None:
                raise DimensionMismatch("cannot infer row count of an empty column list")
            return cls.zeros(rows, 0)
        n = len(columns[0])
        data = [[col[i] for col in columns] for i in range(n)]
        return cls(data) if n else cls.zeros(0, len(columns))

    @classmethod
    def hstack(cls, mats: Sequence["Mat"]) -> "Mat":
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack needs equal row counts")
        cells = []
        for i in range(rows):
            for m in mats:
                cells.extend(m._cells[i * m.cols : (i + 1) * m.cols])
        return cls.from_flat(rows, sum(m.cols for m in mats), cells)

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack needs equal column counts")
        cells = []
        for m in mats:
            cells.extend(m._cells)
        return cls.from_flat(sum(m.rows for m in mats), cols, cells)

    # -- access -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self._cells[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self._cells[i * self.cols : (i + 1) * self.cols])

    def col_list(self, j: int) -> list:
        return [self._cells[i * self.cols + j] for i in range(self.rows)]

    def col(self, j: int) -> "Mat":
        return Mat.from_flat(self.rows, 1, self.col_list(j))

    def take_cols(self, indices: Sequence[int]) -> "Mat":
        cells = []
        for i in range(self.rows):
            cells.extend(self._cells[i * self.cols + j] for j in indices)
        return Mat.from_flat(self.rows, len(indices), cells)

    def drop_col(self, j: int) -> "Mat":
        return self.take_cols([c for c in range(self.cols) if c != j])

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def to_float(self) -> np.ndarray:
        return np.array([[float(v) for v in self.row_list(i)] for i in range(self.rows)], dtype=float).reshape(
            self.rows, self.cols
        )

    # -- algebra ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._cells))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return Mat.from_flat(self.rows, self.cols, [a + b for a, b in zip(self._cells, other._cells)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return Mat.from_flat(self.rows, self.cols, [a - b for a, b in zip(self._cells, other._cells)])

    def __neg__(self) -> "Mat":
        return Mat.from_flat(self.rows, self.cols, [-a for a in self._cells])

    def __mul__(self, scalar) -> "Mat":
        s = as_rational(scalar)
        return Mat.from_flat(self.rows, self.cols, [a * s for a in self._cells])

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        n, w = self.cols, other.cols
        lhs = [_integer_row(self._cells[i * n : (i + 1) * n]) for i in range(self.rows)]
        rhs = [_integer_row(other._cells[j::w]) for j in range(w)]
        cells = []
        for nums, den in lhs:
            terms = [(k, x) for k, x in enumerate(nums) if x]
            for col, col_den in rhs:
                cells.append(Fraction(sum(x * col[k] for k, x in terms), den * col_den))
        return Mat.from_flat(self.rows, w, cells)

    @property
    def T(self) -> "Mat":
        cells = [self._cells[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Mat.from_flat(self.cols, self.rows, cells)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._cells)

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

def _integer_row(row: Sequence[Fraction]) -> tuple:
    """(nums, den) with row == [x / den for x in nums], den the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row], den


def _rref(rows: list, pivot_width: int) -> list:
    """Fraction-free Gauss-Jordan elimination with pivots in the leading columns.

    `rows` is a list of integer row lists, modified in place.  Each update
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
        row_r = rows[r]
        piv = row_r[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                new = [piv * a - f * b for a, b in zip(rows[i], row_r)]
                g = math.gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _integer_rows(m: Mat) -> list:
    return [_integer_row(m._cells[i * m.cols : (i + 1) * m.cols])[0] for i in range(m.rows)]


def rank(m: Mat) -> int:
    """Exact rank over the rationals."""
    return len(_rref(_integer_rows(m), m.cols))


def pivot_columns(m: Mat) -> list:
    return _rref(_integer_rows(m), m.cols)


def kernel(m: Mat) -> Mat:
    """Basis of the right kernel as columns, leftmost-free-variable first.

    Each basis vector sets one free variable to 1 and the others to 0, so
    the output is deterministic and reproducible.
    """
    rows = _integer_rows(m)
    pivots = _rref(rows, m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    columns = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][f], rows[r][pc])
        columns.append(v)
    return Mat.from_columns(columns, rows=m.cols)


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Exact Q with a @ Q = b, or None when some column of b is outside im(a).

    Deterministic choice among solutions: pivoted elimination with every
    free variable set to 0, which yields the minimal-support solution.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    if not a.rows:
        return Mat.zeros(a.cols, b.cols)
    rows = [_integer_row(a.row_list(i) + b.row_list(i))[0] for i in range(a.rows)]
    pivots = _rref(rows, a.cols)
    nr = len(pivots)
    for i in range(nr, a.rows):
        if any(rows[i][a.cols :]):
            return None
    q = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        q[pc] = [Fraction(x, rows[r][pc]) for x in rows[r][a.cols :]]
    return Mat(q) if a.cols else Mat.zeros(0, b.cols)


def invert(m: Mat) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    inv = solve_right(m, Mat.identity(m.rows))
    if inv is None:
        return None
    return inv if rank(m) == m.rows else None


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
    def full(cls, n: int) -> "Subspace":
        return cls(n, Mat.identity(n))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, Mat.zeros(n, 0))

    @classmethod
    def span_of_units(cls, n: int, indices: Sequence[int]) -> "Subspace":
        cols = Mat.hstack([Mat.unit_column(n, i) for i in indices]) if indices else Mat.zeros(n, 0)
        return cls(n, cols)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: Mat) -> bool:
        if v.rows != self.ambient_dim or v.cols != 1:
            raise DimensionMismatch("expected a column vector in the ambient space")
        if v.is_zero():
            return True
        if self.dim == 0:
            return False
        return solve_right(self.basis, v) is not None

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
    return Subspace(m.rows, m.take_cols(pivot_columns(m)))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True when every vector of `inner` lies in `outer` (exact)."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if inner.dim == 0:
        return True
    return rank(Mat.hstack([outer.basis, inner.basis])) == outer.dim


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the kernel of the stacked bases."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = Mat.hstack([a.basis, -b.basis])
    null = kernel(stacked)
    if null.cols == 0:
        return Subspace.zero(a.ambient_dim)
    coeffs = Mat.from_flat(a.dim, null.cols, [null[i, j] for i in range(a.dim) for j in range(null.cols)])
    return image(a.basis @ coeffs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return image(Mat.hstack([a.basis, b.basis]))


# -- floating bridge -----------------------------------------------------

@dataclass(frozen=True)
class SpectralInfo:
    """Largest eigenvalue modulus with a root-residual estimate.

    `marginal` is set when the radius lies within EIG_MARGIN of the unit
    circle, in which case stability verdicts should not be trusted.
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


# Polynomial root finding keeps full accuracy on repeated eigenvalues, where
# a float64 dense eigensolver only reaches about sqrt(machine epsilon).
_MPMATH_LIMIT = 12


def spectral_radius_info(m: Mat) -> SpectralInfo:
    if m.rows != m.cols:
        raise DimensionMismatch("spectral radius of a non-square matrix")
    if m.rows == 0:
        return SpectralInfo(0.0, 0.0, False)
    if m.rows <= _MPMATH_LIMIT:
        import mpmath

        coeffs = characteristic_polynomial(m)
        with mpmath.workdps(50):
            mp_coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in coeffs]
            roots, err = mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=120, error=True)
            radius = float(max(abs(r) for r in roots))
            residual = float(err)
    else:
        a = m.to_float()
        values = np.linalg.eigvals(a)
        radius = float(max(abs(values)))
        residual = float(np.finfo(float).eps * max(1.0, np.linalg.norm(a)) * m.rows)
    return SpectralInfo(radius, residual, abs(radius - 1.0) <= EIG_MARGIN)


def spectral_radius(m: Mat) -> float:
    """Max |eigenvalue| of a square matrix, as a float."""
    return spectral_radius_info(m).radius


def numeric_rank(a: np.ndarray, tol: float = EIG_MARGIN) -> int:
    """Singular values above tol (relative to the largest, floored at 1)."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, float(s[0]))))

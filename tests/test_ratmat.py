"""Exact matrix and subspace arithmetic."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from minexcite import (
    DimensionMismatch,
    GainResult,
    InconsistentDataset,
    Mat,
    Subspace,
    contains,
    format_matrix,
    image,
    invert,
    kernel,
    parse_matrix,
    rank,
    solve_right,
)
from minexcite import ratmat
from minexcite.ratmat import characteristic_polynomial, pivot_basis, pivot_columns, read_span, root_radius

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def small_mats(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(fractions_st, min_size=r * c, max_size=r * c).map(
                lambda cells: Mat.from_flat(r, c, cells)
            )
        )
    )


# -- literals ----------------------------------------------------------

def test_parse_decimals_exactly():
    m = parse_matrix("1, 0.5; 0, 1")
    assert m[0, 1] == Fraction(1, 2)
    assert parse_matrix("0.1")[0, 0] == Fraction(1, 10)
    assert parse_matrix("-3/7")[0, 0] == Fraction(-3, 7)


def test_format_round_trip():
    m = parse_matrix("1, 1/2; -2/3, 0.25")
    assert parse_matrix(format_matrix(m)) == m


def test_empty_literal_needs_shape():
    assert parse_matrix("", rows=0, cols=3).shape == (0, 3)
    with pytest.raises(DimensionMismatch):
        parse_matrix("", rows=2, cols=2)


@pytest.mark.parametrize("text, rows, cols", [("7, 7", 0, 2), ("7; 7", 2, 0), ("0", 0, 0), ("7, 7", 0, None)])
def test_literal_of_an_empty_shape_is_refused(text, rows, cols):
    # only the empty literal denotes a matrix with no cells; a non-empty one is not dropped
    assert parse_matrix("", rows=rows, cols=cols).shape == (rows, cols or 0)
    with pytest.raises(DimensionMismatch):
        parse_matrix(text, rows=rows, cols=cols)


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        Mat([[0.5]])


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        Mat([[1, 2], [3]])


# -- rank ---------------------------------------------------------------

def test_rank_identity():
    assert rank(Mat.identity(3)) == 3


def test_rank_two_excitation_block():
    # two state-input columns in R^3: never enough to pin down the model
    block = parse_matrix("1, 0.5; 0, 1; -1, -1")
    assert block.shape == (3, 2)
    assert rank(block) == 2


def test_rank_zero_matrix():
    assert rank(Mat.zeros(4, 4)) == 0


@settings(max_examples=60, deadline=None)
@given(small_mats())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.T)


# -- image and containment ------------------------------------------------

def test_image_identity_is_full():
    assert image(Mat.identity(2)) == Subspace(2, Mat.identity(2))


def test_image_rank_one():
    s = image(parse_matrix("1, 1; 1, 1"))
    assert s.dim == 1
    assert s.basis == parse_matrix("1; 1")


def test_image_selects_leftmost_pivots():
    m = parse_matrix("0, 1, 2; 0, 3, 6")
    s = image(m)
    assert s.basis == m.col(1)  # first pivot column, duplicates skipped


def test_contains_trivial():
    assert contains(Subspace(3, Mat.identity(3)), Subspace(3, Mat.identity(3).take_cols([0])))
    assert not contains(Subspace(3, Mat.identity(3).take_cols([0, 1])), Subspace(3, Mat.identity(3).take_cols([2])))


def test_two_column_span_does_not_contain_r3():
    block = parse_matrix("1, 0.5; 0, 1; -1, -1")
    assert not contains(image(block), Subspace(3, Mat.identity(3)))
    assert rank(block) == 2  # cross-check by rank


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, parse_matrix("1, 2; 2, 4"))
    with pytest.raises(ValueError):
        Subspace(3, parse_matrix("1, 0, 1; 0, 1, 1; 0, 0, 0"))
    with pytest.raises(ValueError):
        Subspace(3, Mat.identity(3).take_cols([1, 1]))
    assert Subspace(2, parse_matrix("1, 2; 2, 5")).dim == 2


@settings(max_examples=40, deadline=None)
@given(small_mats(3), small_mats(3))
def test_image_of_product_contained(m, q):
    if m.cols != q.rows:
        cells = [v for row in q.to_lists() for v in row]
        q = Mat.from_flat(m.cols, q.cols, cells[: m.cols * q.cols] + [Fraction(0)] * max(0, m.cols * q.cols - len(cells)))
    assert contains(image(m), image(m @ q))


# -- solving ------------------------------------------------------------------

def test_solve_right_identity():
    assert solve_right(Mat.identity(2), Mat.identity(2)) == Mat.identity(2)


def test_solve_right_unit_targets():
    a = Mat.identity(3).take_cols([0, 2])
    assert solve_right(a, a) == Mat.identity(2)


def test_identity_is_canonical_as_built():
    for n in range(6):
        reference = Mat.from_flat(n, n, [int(i == j) for i in range(n) for j in range(n)])
        assert Mat.identity(n) == reference
        assert (Mat.identity(n)._nums, Mat.identity(n)._den) == (reference._nums, reference._den)


@settings(max_examples=60, deadline=None)
@given(small_mats())
def test_pivot_basis_is_the_image_basis_and_its_coordinates(m):
    basis, q = pivot_basis(m)
    assert basis == m.take_cols(pivot_columns(m))
    assert basis @ q == m
    if basis.cols:
        assert q == solve_right(basis, m)  # independent columns: the only solution


def test_solve_right_no_solution():
    a = parse_matrix("1, 0; 0, 0")
    b = parse_matrix("0; 1")
    assert solve_right(a, b) is None


@settings(max_examples=60, deadline=None)
@given(small_mats(3), st.integers(1, 3))
def test_solve_right_exact(a, cols):
    rng = random.Random(a.rows * 31 + a.cols * 7 + cols)
    q_true = Mat.from_flat(a.cols, cols, [Fraction(rng.randint(-3, 3)) for _ in range(a.cols * cols)])
    b = a @ q_true
    q = solve_right(a, b)
    assert q is not None
    assert a @ q == b  # no tolerance anywhere


def test_kernel_annihilates():
    rng = random.Random(3)
    for _ in range(25):
        m = Mat.from_flat(3, 4, [Fraction(rng.randint(-2, 2)) for _ in range(12)])
        null = kernel(m)
        assert null.cols == m.cols - rank(m)
        if null.cols:
            assert (m @ null).is_zero()


# -- integer kernels against the Fraction reference ----------------------

def _ref_rref(cells, pivot_width):
    """Gauss-Jordan elimination with a Fraction per cell: the reference."""
    pivots = []
    r = 0
    for c in range(pivot_width):
        p = next((i for i in range(r, len(cells)) if cells[i][c] != 0), None)
        if p is None:
            continue
        cells[r], cells[p] = cells[p], cells[r]
        inv = 1 / cells[r][c]
        cells[r] = [v * inv for v in cells[r]]
        for i in range(len(cells)):
            if i != r and cells[i][c] != 0:
                f = cells[i][c]
                cells[i] = [a - f * b for a, b in zip(cells[i], cells[r])]
        pivots.append(c)
        r += 1
        if r == len(cells):
            break
    return pivots


def _ref_matmul(a, b):
    return Mat.from_flat(
        a.rows,
        b.cols,
        [
            sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
            for i in range(a.rows)
            for j in range(b.cols)
        ],
    )


def _ref_kernel(m):
    cells = m.to_lists()
    pivots = _ref_rref(cells, m.cols)
    columns = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -cells[r][f]
        columns.append(v)
    return Mat.from_flat(m.cols, len(columns), [v[i] for i in range(m.cols) for v in columns])


def _ref_solve_right(a, b):
    cells = [a.row_list(i) + b.row_list(i) for i in range(a.rows)]
    pivots = _ref_rref(cells, a.cols)
    if any(v != 0 for row in cells[len(pivots) :] for v in row[a.cols :]):
        return None
    q = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        q[pc] = cells[r][a.cols :]
    return Mat.from_flat(a.cols, b.cols, [v for row in q for v in row])


@st.composite
def kernel_inputs(draw):
    """(a, b, q): a possibly rank-deficient a with zero rows or columns and
    empty shapes, a right-hand side b with a.rows rows, and a factor q with
    a.cols rows that may be made of unit columns.  Entries have denominators
    up to 7, and in half the draws most of them are zero."""
    entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    if draw(st.booleans()):
        entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), entries)

    def block(rows, cols):
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    r, c, w = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        a = _ref_matmul(block(r, k), block(k, c))
    else:
        a = block(r, c)
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2))
    a = Mat.from_flat(
        r, c, [0 if i in zero_rows or j in zero_cols else a[i, j] for i in range(r) for j in range(c)]
    )
    b = _ref_matmul(a, block(c, w)) if draw(st.booleans()) else block(r, w)
    if c and draw(st.booleans()):  # unit columns, as a designed plan is made of
        picks = draw(st.lists(st.integers(0, c - 1), max_size=4))
        return a, b, Mat.from_flat(c, len(picks), [int(i == p) for i in range(c) for p in picks])
    return a, b, block(c, draw(st.integers(0, 4)))


def _assert_canonical(m):
    """The storage invariant: integer cells over the least common denominator."""
    assert len(m._nums) == m.rows * m.cols
    assert all(type(x) is int for x in m._nums)
    assert m._den > 0
    assert math.gcd(m._den, *m._nums) == 1


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_integer_kernels_match_fraction_reference(inputs):
    a, b, q = inputs
    ref_pivots = _ref_rref(a.to_lists(), a.cols)
    assert rank(a) == len(ref_pivots)
    assert pivot_columns(a) == ref_pivots
    null = kernel(a)
    assert null == _ref_kernel(a)
    assert (a @ null).is_zero()
    x = solve_right(a, b)
    assert x == _ref_solve_right(a, b)
    assert read_span(a).unspanned(b) == [j for j in range(b.cols) if solve_right(a, b.col(j)) is None]
    if x is not None:
        _assert_canonical(x)
        assert a @ x == b
    product = a @ q
    assert product == _ref_matmul(a, q)
    for m in (null, product):
        _assert_canonical(m)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_product_by_the_identity_is_the_left_operand(inputs):
    """M I = M exactly, so `@` hands back M itself, 0-column shapes included;
    a right factor that only resembles I is multiplied like any other."""
    a = inputs[0]
    assert a @ Mat.identity(a.cols) is a
    assert Mat.identity(a.rows) @ a == a
    n = a.cols
    for near in (
        Mat.identity(n) * 2,
        Mat.identity(n) * Fraction(1, 2),
        Mat.from_flat(n, n, [int(i == j and i) for i in range(n) for j in range(n)]),  # first one dropped
        Mat.from_flat(n, n, [int(i == j or (i, j) == (0, n - 1)) for i in range(n) for j in range(n)]),
        Mat.from_flat(n, n, [int(i + j == n - 1) for i in range(n) for j in range(n)]),  # reversal
    ):
        if near != Mat.identity(n):
            product = a @ near
            assert product is not a and product == _ref_matmul(a, near)
            _assert_canonical(product)


@st.composite
def product_inputs(draw):
    """(a, b) of shapes up to 24x32 by 32x24, empty ones included, each factor of
    density 0.1 to 1 with zero rows and columns, or a single-row a, an a with one
    nonzero row or a b of unit columns; entries up to 2^bits in magnitude, of both
    signs, over denominators, with bits near each word edge of the packed kernel's
    slots (2^7, 2^15 and 2^31 make products of 32- and 64-bit bounds) and past it."""
    rows, n, w = draw(st.integers(0, 24)), draw(st.integers(0, 32)), draw(st.integers(0, 24))
    form = draw(st.sampled_from(["dense", "single row", "one nonzero row", "unit columns"]))
    rows = 1 if form == "single row" else rows
    bits = draw(st.sampled_from([2, 7, 8, 15, 31, 33, 64, 200]))
    denominators = [draw(st.sampled_from([1, 1, 2, 3, 7, 2**61 - 1])) for _ in range(2)]
    rng = random.Random(draw(st.integers(0, 2**32)))

    def block(r, c, den, one_row=False):
        density = draw(st.floats(0.1, 1.0))
        zero_rows = set(rng.sample(range(r), max(r - 1, 0) if one_row else rng.randint(0, r // 4)))
        zero_cols = set(rng.sample(range(c), rng.randint(0, c // 4)))
        return Mat.from_flat(r, c, [
            Fraction(rng.randint(-(2**bits), 2**bits), den)
            if i not in zero_rows and j not in zero_cols and rng.random() < density else 0
            for i in range(r) for j in range(c)
        ])

    if form == "unit columns":
        picks = [rng.randrange(n) for _ in range(w)] if n else []
        b = Mat.from_flat(n, len(picks), [int(i == p) for i in range(n) for p in picks])
    else:
        b = block(n, w, denominators[1])
    return block(rows, n, denominators[0], form == "one nonzero row"), b


@pytest.mark.reference
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(product_inputs())
def test_products_match_fraction_reference(inputs):
    """`@`, whichever kernel it picks, the column kernel on every pair of factors and
    the packed kernel on every pair of nonempty ones, in whichever slot the bound on
    their cells picks (16, 32 or 64 bits, or wide), give the Fraction product."""
    a, b = inputs
    ref = _ref_matmul(a, b)
    product = a @ b
    assert product == ref
    _assert_canonical(product)
    cells = ratmat._column_product(a._nums, b._nums, a.rows, a.cols, b.cols)
    assert Mat._make(a.rows, b.cols, cells, a._den * b._den) == ref
    if a.rows and a.cols and b.cols:
        s = (a.cols * max(map(abs, a._nums)) * max(map(abs, b._nums))).bit_length() + 1
        event(f"slot {next((str(word) for word in (16, 32, 64) if s <= word), 'wide')}")
        cells = ratmat._packed_product(a._nums, b._nums, a.rows, a.cols, b.cols)
        assert Mat._make(a.rows, b.cols, cells, a._den * b._den) == ref


# (x, y, n, rows, w) by case; 2^31 - 1 is prime, so its case has n = 1
_SLOT_EDGES = {
    "small": (3, 5, 7, 8, 8),
    "16-bit-largest": (31, 151, 7, 8, 8),
    "16-bit-next": (2**6, 2**6, 8, 8, 8),
    "16-bit-next-one-column": (2**6, 2**6, 8, 8, 1),
    "32-bit-largest": (2**31 - 1, 1, 1, 8, 8),
    "32-bit-next": (2**15, 2**15, 2, 8, 8),
    "32-bit-next-one-row": (2**15, 2**15, 2, 1, 8),
    "64-bit-largest": (7 * 73 * 127 * 337, 92737 * 649657, 7, 8, 8),
    "64-bit-next": (2**30, 2**30, 8, 8, 8),
    "past-the-digit-limit": (2**200 - 1, 3**120, 8, 8, 48),
}


@pytest.mark.parametrize("x, y, n, rows, w", _SLOT_EDGES.values(), ids=_SLOT_EDGES)
def test_packed_slots_hold_the_exact_bound(monkeypatch, x, y, n, rows, w):
    """Rows of x and of -x against columns of y and -y make cells of exactly
    +-n x y, the bound the slot is sized for, in slots next to slots of either
    sign.  The word-edge cases put n x y at the largest bound a b = 16-, 32- or
    64-bit word holds, 2^(b-1) - 1, where a slot one bit or one word narrower
    fails on either sign, and at the next one up, 2^(b-1), where it fails on
    +n x y.  In the small and the last case n x y is no power of two, so a slot
    one bit narrower fails on either sign; the last case's packed rows run to
    over 14000 bits, past the digit limit of int to decimal text conversion."""
    bound = n * x * y
    left = Mat.from_flat(rows, n, [x if i % 2 else -x for i in range(rows) for _ in range(n)])
    right = Mat.from_flat(n, w, [y if j % 3 else -y for _ in range(n) for j in range(w)])
    expected = [bound if (i % 2) == bool(j % 3) else -bound for i in range(rows) for j in range(w)]
    assert list(ratmat._packed_product(left._nums, right._nums, rows, n, w)) == expected
    kernels, packed = [], ratmat._packed_product
    monkeypatch.setattr(ratmat, "_packed_product", lambda *args: kernels.append(args) or packed(*args))
    assert left @ right == Mat.from_flat(rows, w, expected)
    assert len(kernels) == (n > 1 and w > 1)  # `@` packs these dense factors but for n = 1 or w = 1


@st.composite
def plan_inputs(draw):
    """(plan, x_plus, target, w) as a run meets them: an (n+m) x k plan, m = 0
    allowed and k up to past n+m, often of lower rank, mostly zeros or with zero
    columns; feedback that some system reproduces or not; a target with n+m rows
    and a column to project."""
    entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    if draw(st.booleans()):
        entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), entries)

    def block(rows, cols):
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    p, k = n + m, draw(st.integers(0, n + m + 3))
    if draw(st.booleans()):
        r = draw(st.integers(0, p))
        plan = _ref_matmul(block(p, r), block(r, k))
    else:
        plan = block(p, k)
    zero_cols = draw(st.sets(st.integers(0, max(k - 1, 0)), max_size=2))
    plan = Mat.from_flat(p, k, [0 if j in zero_cols else plan[i, j] for i in range(p) for j in range(k)])
    x_plus = _ref_matmul(block(n, p), plan) if draw(st.booleans()) else block(n, k)
    return plan, x_plus, block(p, draw(st.integers(0, 4))), block(p, 1)


@settings(max_examples=200, deadline=None)
@given(plan_inputs())
def test_span_read_matches_the_separate_calls(inputs):
    plan, x_plus, target, w = inputs
    span = read_span(plan, x_plus)
    assert span.rank == rank(plan)
    assert span.kernel == kernel(plan.T)
    assert span.solution == solve_right(plan.T, x_plus.T)
    assert span.unspanned(target) == [j for j in range(target.cols) if solve_right(plan, target.col(j)) is None]
    basis = Subspace(plan.rows, span.basis)  # the constructor rejects dependent columns
    assert basis.dim == span.rank and basis == image(plan)
    assert basis.project(w) == image(plan).project(w)
    bare = read_span(plan)
    assert (bare.rank, bare.kernel, bare.solution) == (span.rank, span.kernel, None)
    assert bare.unspanned(target) == span.unspanned(target)
    assert Subspace(plan.rows, bare.basis) == basis


@st.composite
def span_inputs(draw):
    """(a, b, transposed): a matrix a, often of lower rank, with zero rows and columns,
    rank 0 and full rank among them, and b absent, I or a block beside a (its columns
    beside a's when transposed), often in a's row space.  Entries are small, or up to
    2^200 in magnitude over denominators up to 2^61 - 1; a or b is often divided by a
    prime that the other's denominator lacks."""
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    large = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**61 - 1))
    entries = draw(st.sampled_from([small, large, st.one_of(small, large)]))
    if draw(st.booleans()):
        entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), entries)

    def block(rows, cols):
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    count, p, transposed = draw(st.integers(0, 6)), draw(st.integers(0, 5)), draw(st.booleans())
    shape = draw(st.sampled_from(["any", "low rank", "zero", "full rank"]))
    if shape == "low rank":
        k = draw(st.integers(0, min(count, p)))
        a = _ref_matmul(block(count, k), block(k, p))
    elif shape == "zero":
        a = Mat.zeros(count, p)
    elif shape == "full rank":  # I beside or above anything
        a = Mat.vstack([Mat.identity(p), block(count - p, p)]) if count >= p else Mat.hstack([Mat.identity(count), block(count, p - count)])
    else:
        a = block(count, p)
    zero_rows = draw(st.sets(st.integers(0, max(count - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(p - 1, 0)), max_size=2))
    a = Mat.from_flat(count, p, [0 if i in zero_rows or j in zero_cols else a[i, j] for i in range(count) for j in range(p)])
    # b is replayed over its own denominator, and the ratio of a's to b's folded into the
    # solution: give one of them a prime, 5 or 11, that the other's small entries lack
    fold, prime = draw(st.sampled_from(["none", "a", "b"])), draw(st.sampled_from([5, 11]))
    if fold == "a":
        a = a * Fraction(1, prime)
    kind, q = draw(st.sampled_from(["none", "identity", "spanned", "any"])), draw(st.integers(0, 3))
    if kind == "none":
        b = None
    elif kind == "identity":
        b = Mat.identity(count)
    else:
        b = _ref_matmul(a, block(p, q)) if kind == "spanned" else block(count, q)
        if fold == "b":
            b = b * Fraction(1, prime)
    if transposed:
        return a.T, None if b is None else b.T, True
    return a, b, False


def _primitive_row(row):
    """The integer row on the line of a rational one: made integer and primitive, sign as given."""
    den = math.lcm(*(v.denominator for v in row))
    nums = [int(v * den) for v in row]
    g = math.gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(span_inputs())
def test_span_readers_match_fraction_reference(inputs):
    """Every reader of one elimination against Gauss-Jordan on [a | b] with a Fraction per
    cell: the reads of a, the b part past the rank, whose rows are those of the reduced
    [a | b] eliminated whole (a positive multiple of the reference's rows, sign and all,
    made primitive), and the solution and its transpose, which follow b's columns
    through the row operations that reduced a alone."""
    a, b, transposed = inputs
    span = ratmat.eliminate(a, b, transposed)
    a_rows, b_rows = (a.T, None if b is None else b.T) if transposed else (a, b)
    count, p = a_rows.shape
    q = 0 if b is None else b_rows.cols
    cells = [a_rows.row_list(i) + (b_rows.row_list(i) if b is not None else []) for i in range(count)]
    pivots = _ref_rref(cells, p)
    r = len(pivots)
    assert (span.rank, span.pivots) == (r, pivots)

    null = []  # the kernel's columns, one per free column f set to 1
    for f in (c for c in range(p) if c not in pivots):
        null.append([Fraction(i == f) for i in range(p)])
        for row, pc in zip(cells, pivots):
            null[-1][pc] = -row[f]
    assert span.kernel == Mat.from_flat(p, len(null), [v[i] for i in range(p) for v in null])
    assert span.annihilator == (Mat.column(null[0]) if null else None)
    assert span.unspanned(Mat.identity(p)) == [i for i in range(p) if any(v[i] for v in null)]
    assert span.basis == Mat.from_flat(p, r, [row[i] for i in range(p) for row in cells[:r]])
    target = Mat.from_flat(p, 3, [(i + j) % 3 - 1 for i in range(p) for j in range(3)])
    missed = [j for j in range(3) if any(sum(v[i] * target[i, j] for i in range(p)) for v in null)]
    assert span.unspanned(target) == missed

    past = [row[p:] for row in cells[r:]]
    dependent = span.dependent
    assert dependent.shape == (count - r, q)
    if b is not None:  # eliminated whole, as one elimination of [a | b] leaves it
        pairs = zip(a_rows._int_rows(), b_rows._int_rows())
        whole = [[x * b_rows._den for x in ra] + [x * a_rows._den for x in rb] for ra, rb in pairs]
        ratmat._rref(whole, p, [])
        assert dependent == Mat._make(count - r, q, [x for row in whole[r:] for x in row[p:]])
    for i, row in enumerate(past):
        ours, ref = dependent._nums[i * q : (i + 1) * q], _primitive_row(row) if any(row) else [0] * q
        assert list(ours) in (ref, [-x for x in ref])

    if b is None or any(any(row) for row in past):
        assert span.solution is None
        with pytest.raises(InconsistentDataset):
            span.model
    else:
        solved = {pc: row[p:] for row, pc in zip(cells, pivots)}
        zero = [Fraction(0)] * q
        assert span.solution == Mat.from_flat(p, q, [x for i in range(p) for x in solved.get(i, zero)])
        assert span.model == Mat.from_flat(q, p, [solved.get(i, zero)[j] for j in range(q) for i in range(p)])
        assert a_rows @ span.solution == b_rows


@st.composite
def storage_inputs(draw):
    """Cell lists, not matrices: a and b of one shape, a block with a's row
    count, a block with a's column count and a square block; then a scalar
    that may be 0 and column indices of a, repeats allowed.  Entries have
    denominators up to 7, including zero rows and empty shapes."""
    entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))

    def cells(rows, cols):
        return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]

    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    indices = draw(st.lists(st.integers(0, c - 1), max_size=5)) if c else []
    return (
        (r, c),
        cells(r, c),
        cells(r, c),
        cells(r, draw(st.integers(0, 3))),
        cells(draw(st.integers(0, 3)), c),
        cells(n, n),
        draw(st.one_of(st.just(Fraction(0)), entries)),
        indices,
    )


@settings(max_examples=150, deadline=None)
@given(storage_inputs())
def test_integer_storage_matches_fraction_reference(inputs):
    (r, c), ca, cb, cw, ct, cs, s, indices = inputs

    def mat(cells, cols):
        return Mat.from_flat(len(cells), cols, [v for row in cells for v in row])

    a, b, sq = mat(ca, c), mat(cb, c), mat(cs, len(cs))
    wide, tall = mat(cw, len(cw[0]) if cw else 0), mat(ct, c)
    for m, cells in ((a, ca), (b, cb), (sq, cs), (wide, cw), (tall, ct)):
        _assert_canonical(m)
        assert m.to_lists() == cells
    results = [
        (a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ca, cb)]),
        (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ca, cb)]),
        (a - a, [[Fraction(0)] * c for _ in range(r)]),
        (-a, [[-x for x in row] for row in ca]),
        (a * s, [[x * s for x in row] for row in ca]),
        (s * a, [[s * x for x in row] for row in ca]),
        (a.T, [[ca[i][j] for i in range(r)] for j in range(c)]),
        (Mat.hstack([a, wide]), [ra + rw for ra, rw in zip(ca, cw)]),
        (Mat.vstack([a, tall]), ca + ct),
        (a.take_cols(indices), [[row[j] for j in indices] for row in ca]),
    ]
    results += [(a.col(j), [[row[j]] for row in ca]) for j in range(c)]
    assert all(a.col_list(j) == [row[j] for row in ca] for j in range(c))
    for j in (-1, c):
        with pytest.raises(IndexError):
            a.col(j)
        with pytest.raises(IndexError):
            a.col_list(j)
    for m, cells in results:
        _assert_canonical(m)
        assert m.rows == len(cells)
        assert m.to_lists() == cells
    assert (a - a)._den == 1
    assert sq.trace() == sum((cs[i][i] for i in range(len(cs))), Fraction(0))
    assert a.is_zero() == all(x == 0 for row in ca for x in row)
    assert all(a[i, j] == ca[i][j] for i in range(r) for j in range(c))
    assert all(a.row_list(i) == ca[i] for i in range(r))


def test_take_cols_reads_ranges_and_lists_alike_at_every_edge():
    m = Mat.from_flat(3, 4, [Fraction(i, 2) for i in range(12)])
    for indices in ([1, 2], range(1, 3), [3, 0, 3], range(4), range(0, 4, 2), range(2, 2), [], range(1, 2)):
        taken = m.take_cols(indices)
        _assert_canonical(taken)
        assert taken.to_lists() == [[m[i, j] for j in indices] for i in range(3)]
    # no columns, no rows, or neither
    for rows, cols, indices in ((3, 0, range(0)), (3, 0, []), (0, 4, range(1, 3)), (0, 4, [3, 0]), (0, 0, range(0))):
        taken = Mat.zeros(rows, cols).take_cols(indices)
        assert taken.shape == (rows, len(indices)) and taken.is_zero()
    for source in (m, Mat.zeros(0, 4)):
        for indices in ([4], [-1], [0, 5], range(2, 5), range(-1, 2)):
            with pytest.raises(IndexError):
                source.take_cols(indices)


def test_equal_matrices_built_differently_compare_and_hash_equal():
    half = [
        parse_matrix("1/2; 1"),
        parse_matrix("0.5; 1.0"),
        Mat([["2/4"], ["3/3"]]),
        Mat.from_flat(2, 1, [Fraction(2, 4), Fraction(-7, -7)]),
        Mat.column([1, 2]) * Fraction(1, 2),
        kernel(parse_matrix("4, -2")),  # free variable 1: x0 = 2/4
        Mat.column([Fraction(1, 3), Fraction(5, 6)]) + Mat.column([Fraction(1, 6), Fraction(1, 6)]),
    ]
    whole = [
        parse_matrix("-2; 1"),
        Mat([[-2], [1]]),
        Mat.from_flat(2, 1, [Fraction(-4, 2), Fraction(3, 3)]),
        kernel(parse_matrix("2, 4")),
        solve_right(parse_matrix("1, 0; 0, 2"), parse_matrix("-2; 2")),
        Mat.column(["1/2", "1/3"]) * 6 - Mat.column([5, 1]),
    ]
    for group in (half, whole):
        for m in group:
            _assert_canonical(m)
            assert m == group[0]
            assert hash(m) == hash(group[0])
    assert half[0] != whole[0]
    zeros = [Mat.zeros(2, 1), parse_matrix("0; 0.0"), half[0] - half[1], Mat.from_flat(2, 1, [Fraction(0, 9)] * 2)]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) and z._den == 1 for z in zeros)


def test_invert():
    m = parse_matrix("1, 0.5; 0, 1")
    inv = invert(m)
    assert inv is not None
    assert m @ inv == Mat.identity(2)
    assert invert(parse_matrix("1, 1; 1, 1")) is None


# -- spectral bridge ----------------------------------------------------------

def quadratic_root_modulus(m: Mat) -> float:
    """Independent oracle: root moduli of the exact 2x2 characteristic polynomial."""
    tr = m.trace()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4 * det
    if disc < 0:
        return math.sqrt(float(det))  # conjugate pair, |root|^2 = det
    root = math.sqrt(float(disc))
    return max(abs((float(tr) + root) / 2), abs((float(tr) - root) / 2))


def radius_of(m: Mat) -> float:
    return root_radius(characteristic_polynomial(m))


def marginal(m: Mat) -> bool:
    """The package's `marginal` flag for the closed loop m."""
    return GainResult(Mat.zeros(1, m.rows), m).marginal


def test_spectral_radius_identity():
    assert radius_of(Mat.identity(2)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_conjugate_pair():
    m = parse_matrix("0.5, -0.5; 1, 0.5")
    assert abs(radius_of(m) - quadratic_root_modulus(m)) < 1e-9
    assert abs(radius_of(m) - math.sqrt(0.75)) < 1e-9


def test_spectral_radius_defective_double_root():
    m = parse_matrix("0.5, -0.25; 1, 1.5")
    assert characteristic_polynomial(m) == [Fraction(1), Fraction(-2), Fraction(1)]
    assert abs(radius_of(m) - 1.0) < 1e-9
    assert marginal(m)


def test_spectral_radius_random_2x2_against_char_poly():
    rng = random.Random(19)
    for _ in range(40):
        m = Mat.from_flat(2, 2, [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(4)])
        assert abs(radius_of(m) - quadratic_root_modulus(m)) < 1e-9


def test_spectral_radius_triple_jordan_block_exact():
    # a multiplicity-3 eigenvalue once made the polynomial root finder fail
    m = parse_matrix("2, 1, 0; 0, 2, 1; 0, 0, 2")
    assert radius_of(m) == 2.0
    assert not marginal(m)


def test_spectral_radius_identity_3_marginal():
    assert radius_of(Mat.identity(3)) == 1.0
    assert marginal(Mat.identity(3))


def test_spectral_radius_of_eigenvalues_closer_than_the_working_digits():
    # eigenvalues 1 +- 1e-30 are distinct, but rounded to the first 40 working
    # digits the square-free polynomial has a double root at 1: the discs of the
    # two iterates near 1 overlap and still pin the radius to the float 1.0
    m = parse_matrix("1, 1e-30; 1e-30, 1")
    assert radius_of(m) == 1.0
    assert marginal(m)


@st.composite
def square_rationals(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    return Mat.from_flat(n, n, draw(st.lists(fractions_st, min_size=n * n, max_size=n * n)))


def polyroots_radius(m: Mat) -> float:
    """Independent reference: mpmath roots of the whole characteristic polynomial at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in characteristic_polynomial(m)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        return float(max(abs(r) for r in roots))


@pytest.mark.reference
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(square_rationals())
def test_spectral_radius_agrees_with_polyroots(m):
    import mpmath

    try:
        reference = polyroots_radius(m)
    except mpmath.libmp.NoConvergence:
        return  # the reference fails on some repeated roots; nothing to compare
    assert math.isclose(radius_of(m), reference, rel_tol=1e-13, abs_tol=1e-20)


def _similar_jordan(blocks, off_diagonal):
    """T J T^-1 for rational Jordan blocks (value, size) and the largest
    |value|; T = L U with unit triangular L and U whose off-diagonal cells
    are successive off_diagonal() values."""
    n = sum(size for _, size in blocks)
    j, start = [[Fraction(0)] * n for _ in range(n)], 0
    for value, size in blocks:
        for i in range(start, start + size):
            j[i][i] = value
            if i + 1 < start + size:
                j[i][i + 1] = Fraction(1)
        start += size
    # unit lower times unit upper triangular: always invertible
    lower, upper = ([[Fraction(int(i == k)) for k in range(n)] for i in range(n)] for _ in range(2))
    for i in range(n):
        for k in range(n):
            if i != k:
                (lower if i > k else upper)[i][k] = Fraction(off_diagonal())
    t = Mat(lower) @ Mat(upper)
    t_inv = invert(t)
    return t @ Mat(j) @ t_inv, max(abs(value) for value, _ in blocks)


@st.composite
def similar_jordan_forms(draw):
    """T J T^-1 with rational Jordan blocks of size up to 4, and the largest |eigenvalue|."""
    eigen = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    blocks = draw(st.lists(st.tuples(eigen, st.integers(1, 4)), min_size=1, max_size=4))
    return _similar_jordan(blocks, lambda: draw(st.integers(-2, 2)))


def _seeded_jordan(blocks):
    """_similar_jordan with off-diagonal cells of T from a seeded generator."""
    off_diagonal = functools.partial(random.Random(13).randint, -2, 2)
    return _similar_jordan([(Fraction(value), size) for value, size in blocks], off_diagonal)


# the examples have n = 13 and 24, where float64 `eigvals`, once used past
# n = 12, reads 0.006 and 5.24
@pytest.mark.reference
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(similar_jordan_forms())
@example(_seeded_jordan([(0, 4), (0, 4), (0, 4), (0, 1)]))
@example(_seeded_jordan([(5, 4), (-3, 4), (5, 4), (2, 4), ("-9/2", 4), (1, 4)]))
def test_spectral_radius_exact_on_jordan_forms(case):
    m, largest = case
    assert radius_of(m) == float(largest)


def _polynomial_of(roots) -> list:
    """Monic polynomial with the given rational roots, highest degree first."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return coeffs


@st.composite
def planted_clusters(draw):
    """(centre c, size k, exponent e, other roots): k roots c + i 10^-e, i < k, beside up to 3 rational roots."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    return (draw(rationals.filter(bool)), draw(st.integers(2, 4)), draw(st.integers(8, 100)),
            draw(st.lists(rationals, max_size=3)))


# from k = 3 at e = 20 on, the clusters are closer than 40 digits resolve; the
# examples are larger clusters, each taking up to a few seconds
@pytest.mark.reference
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(planted_clusters())
@example((Fraction(1), 6, 30, []))
@example((Fraction(3, 4), 6, 30, [Fraction(-1, 7)]))
@example((Fraction(1), 8, 30, [Fraction(1, 3)]))
@example((Fraction(3, 4), 8, 30, [Fraction(1, 3)]))
@example((Fraction(1), 12, 30, [Fraction(1, 3), Fraction(-1, 7)]))
@example((Fraction(3, 4), 12, 30, [Fraction(-1, 7)]))
def test_spectral_radius_exact_on_planted_clusters(case):
    c, k, e, others = case
    roots = [c + i * Fraction(1, 10**e) for i in range(k)] + others
    assert root_radius(_polynomial_of(roots)) == float(max(map(abs, roots)))


def test_spectral_radius_on_a_float_rounding_boundary():
    # 1 + 2^-53 lies halfway between two floats, so no disc pins it to one float;
    # the doubling still ends, and the radius rounds as float() rounds it
    for radius in (Fraction(2**53 + 1, 2**53), Fraction(2**53 + 3, 2**53)):
        assert root_radius([Fraction(1), -radius]) == float(radius)
        assert root_radius([Fraction(1), Fraction(0), -radius * radius]) == float(radius)
    assert root_radius([Fraction(1), Fraction(0), Fraction(0)]) == 0.0


@pytest.mark.parametrize("fault", ["overflow", "not finite", "iterates meet"])
def test_spectral_radius_starts_again_when_the_sweeps_fail(fault, monkeypatch):
    # a float sweep that overflows or leaves an iterate not finite, and two
    # multiprecision iterates that meet, send every start on the unit circle to
    # the multiprecision sweeps
    aberth, calls = ratmat._aberth, []

    def failing(p, z, todo, eps, size, r):
        calls.append(type(z[0]))
        if len(calls) == 1 and fault == "overflow":
            raise OverflowError
        if len(calls) == 2 and fault == "iterates meet":
            raise ZeroDivisionError
        aberth(p, z, todo, eps, size, r)
        if len(calls) == 1 and fault == "not finite":
            z[0] = complex("nan")

    monkeypatch.setattr(ratmat, "_aberth", failing)
    roots = [Fraction(3, 4) + i * Fraction(1, 10**30) for i in range(3)] + [Fraction(1, 3), Fraction(-1, 7)]
    assert root_radius(_polynomial_of(roots)) == float(max(roots))
    assert calls[0] is complex and calls[1] is not complex


def test_spectral_radius_requires_square():
    with pytest.raises(DimensionMismatch):
        characteristic_polynomial(Mat.zeros(2, 3))


def test_spectral_radius_large_matrix_fallback():
    n = 14  # distinct eigenvalues 1..14, spread as in Wilkinson's polynomial
    m = Mat.from_flat(
        n, n, [Fraction(i + 1) if i == j else Fraction(0) for i in range(n) for j in range(n)]
    )
    assert radius_of(m) == pytest.approx(float(n), abs=1e-9)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_spectral_radius_of_large_dense_loops_needs_no_fallback(n, monkeypatch):
    # past the Hypothesis sizes: the Aberth-Ehrlich starts and the Newton polish
    # resolve every loop on their own, so polyroots must not be reached
    import mpmath
    import numpy as np

    def no_fallback(*args, **kwargs):
        raise AssertionError("polyroots fallback reached")

    monkeypatch.setattr(mpmath, "polyroots", no_fallback)
    rng = random.Random(11 + n)
    for scale in (1, n):
        cells = [Fraction(rng.randint(-9, 9), rng.randint(1, 5) * scale) for _ in range(n * n)]
        reference = max(abs(np.linalg.eigvals(np.array([float(c) for c in cells]).reshape(n, n))))
        assert math.isclose(radius_of(Mat.from_flat(n, n, cells)), reference, rel_tol=1e-9)


def test_spectral_radius_of_tiny_eigenvalues():
    # the float coefficients of (x - 1e-300)(x - 2e-300) underflow unless the variable is scaled
    m = parse_matrix("1e-300, 1; 0, 2e-300")
    assert math.isclose(radius_of(m), 2e-300, rel_tol=1e-12)
    assert not marginal(m)


def test_spectral_radius_past_the_float_range():
    m = parse_matrix("1e400, 0; 0, 1")
    assert radius_of(m) == math.inf
    assert not marginal(m)
    assert math.isclose(radius_of(parse_matrix("1e300, 1; 0, 3e300")), 3e300, rel_tol=1e-12)


@pytest.mark.parametrize("n", [16, 17, 24, 32, 33, 48])
def test_square_free_part_modulo_a_prime_returns_what_the_sequence_returns(n, monkeypatch):
    # seed-11 dense loops of even and odd degree: a constant gcd(p, p') modulo the prime
    # skips the remainder sequence, and both return a positive leading coefficient
    rng = random.Random(11)
    cells = [Fraction(rng.randint(-9, 9), rng.randint(1, 5) * n) for _ in range(n * n)]
    coeffs = characteristic_polynomial(Mat.from_flat(n, n, cells))

    def sequence(c):
        return ratmat._sequence_square_free(list(ratmat._over_lcm(c)[0]))

    assert ratmat._square_free_part(coeffs) == sequence(coeffs)
    radius = f"{root_radius(coeffs):.12g}"  # as `minexcite gain` prints it
    monkeypatch.setattr(ratmat, "_square_free_part", sequence)
    assert f"{root_radius(coeffs):.12g}" == radius


def test_square_free_part_modulo_a_prime_keeps_repeated_roots_to_the_sequence():
    # (x - 1)^2 (x + 2)^2 and (x - 1)^2 (x + 2): gcd(p, p') is not constant modulo any prime
    for coeffs, part in (([1, 2, -3, -4, 4], [1, 1, -2]), ([1, 0, -3, 2], [1, 1, -2])):
        assert ratmat._square_free_part([Fraction(c) for c in coeffs]) == ratmat._sequence_square_free(coeffs) == part

"""Property catalog: vectorization, minimum subspaces, membership oracle."""

import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minexcite import (
    BoundedSet,
    Controllability,
    DimensionMismatch,
    Dims,
    Identifiability,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    Problem,
    Sparsity,
    SpecValidationError,
    Stabilizability,
    Subspace,
    SystemPair,
    evaluate_expr,
    format_expr,
    has_property,
    image,
    invert,
    is_controllable,
    is_stabilizable,
    minimum_subspace,
    parse_expr,
    parse_matrix,
    vec,
    vec_inv,
)
from minexcite import properties
from minexcite.properties import (
    And,
    Leaf,
    Or,
    block_traces,
    build_constraint_matrix,
    expr_leaves,
    flat_chain_ops,
)
from minexcite.ratmat import nonnegative_solve, solve_right

from conftest import rand_expr, rand_independent_rows, rand_sparsity, rand_system, reference_values, singleton_structure


def single_constraint(h, values=None) -> LinearStructure:
    values = values if values is not None else BoundedSet.singleton(0)
    return LinearStructure.intersection([LinearConstraint(tuple(Fraction(v) for v in h), values)])


# -- vectorization ------------------------------------------------------

def test_vec_is_column_major():
    m = parse_matrix("1, 3; 2, 4")
    assert vec(m) == (1, 2, 3, 4)


def test_vec_inv_diagonal_weights():
    assert vec_inv([1, 0, 0, 1], 2, 2) == Mat.identity(2)


def test_vec_inv_first_row_sum():
    # weights selecting a11 + a21 reshape to ones in the first column
    assert vec_inv([1, 1, 0, 0], 2, 2) == parse_matrix("1, 0; 1, 0")


def test_vec_round_trip():
    rng = random.Random(5)
    for _ in range(20)[:20]:
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = Mat.from_flat(r, c, [Fraction(rng.randint(-5, 5)) for _ in range(r * c)])
        assert vec_inv(vec(m), r, c) == m


# -- constraint matrices --------------------------------------------------

def test_constraint_matrix_trace_weights():
    dims = Dims(2, 0)
    p = single_constraint([1, 0, 0, 1])
    assert build_constraint_matrix(p.constraints, dims) == Mat.identity(2)


def test_constraint_matrix_row_sum_image():
    dims = Dims(2, 0)
    p = single_constraint([1, 0, 1, 0])  # a11 + a12
    m = build_constraint_matrix(p.constraints, dims)
    assert image(m) == image(parse_matrix("1; 1"))


def test_constraint_matrix_two_row_sums():
    dims = Dims(2, 0)
    c1 = LinearConstraint((1, 0, 1, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1, 0, 1), BoundedSet.singleton(0))
    p = LinearStructure.intersection([c1, c2])
    m = build_constraint_matrix(p.constraints, dims)
    assert image(m) == image(parse_matrix("1; 1"))


def test_constraint_matrix_equals_reshaped_blocks():
    # the integer construction against its definition: the blocks vec_inv(h_i)^T side by side
    rng = random.Random(67)
    for _ in range(60):
        dims = Dims(rng.randint(1, 4), rng.randint(0, 3))
        width = dims.n * dims.total
        hs = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(width)] for _ in range(3)]
        constraints = [LinearConstraint(h, BoundedSet.singleton(0)) for h in hs if any(h)]
        if not constraints:
            continue
        reference = Mat.hstack([vec_inv(c.h, dims.n, dims.total).T for c in constraints])
        m = build_constraint_matrix(constraints, dims)
        assert (m.shape, m._nums, m._den) == (reference.shape, reference._nums, reference._den)


def test_constraint_matrix_rejects_a_wrong_length():
    with pytest.raises(DimensionMismatch):
        build_constraint_matrix([LinearConstraint((1, 0, 1), BoundedSet.singleton(0))], Dims(2, 0))


# -- minimum subspaces ------------------------------------------------------

def test_stabilizability_needs_everything():
    assert minimum_subspace(Stabilizability(), Dims(2, 1)) == Subspace(3, Mat.identity(3))


def test_scalar_controllability_needs_only_inputs():
    s = minimum_subspace(Controllability(), Dims(1, 2))
    assert s == Subspace(3, Mat.identity(3).take_cols([1, 2]))


def test_sparsity_affected_columns():
    p = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
    s = minimum_subspace(p, Dims(2, 1))
    assert s == Subspace(3, Mat.identity(3).take_cols([0, 2]))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(1, 6))
def test_dimension_table(n, m):
    dims = Dims(n, m)
    assert minimum_subspace(Stabilizability(), dims).dim == n + m
    assert minimum_subspace(Identifiability(), dims).dim == n + m
    expected_contr = m if n == 1 else n + m
    assert minimum_subspace(Controllability(), dims).dim == expected_contr


def test_sparsity_dimension_counts_affected_columns():
    rng = random.Random(23)
    for _ in range(40):
        dims = Dims(rng.randint(1, 4), rng.randint(1, 4))
        p = rand_sparsity(rng, dims)
        cols = {c - 1 for _, c in p.zeros_a} | {dims.n + c - 1 for _, c in p.zeros_b}
        assert minimum_subspace(p, dims).dim == len(cols)


def test_singleton_intersection_matches_sparsity():
    rng = random.Random(31)
    for _ in range(25):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        p = rand_sparsity(rng, dims)
        structure = singleton_structure(Problem.of(p, dims)).prop
        assert minimum_subspace(structure, dims) == minimum_subspace(p, dims)


def test_minimum_basis_is_found_once_per_problem(eliminations):
    # a structure validated without its design finds the pivots of its target on
    # the first call only, and keeps them outside equality, hash and repr
    dims = Dims(2, 1)
    p = LinearStructure.intersection(
        [LinearConstraint(h, BoundedSet.singleton(0)) for h in [(1, 0, 1, 0, 0, 0), (2, 0, 2, 0, 1, 0)]]
    )
    problem, fresh = Problem.of(p, dims), Problem.of(p, dims)
    assert eliminations(problem.minimum_basis) == 1
    assert eliminations(problem.minimum_basis) == 0
    assert problem.minimum_basis() == image(problem.target).basis
    assert problem == fresh and hash(problem) == hash(fresh) and repr(problem) == repr(fresh)


# -- membership oracle ---------------------------------------------------------

def test_sparsity_membership_split():
    p = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
    inside = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    outside = SystemPair(parse_matrix("1, 1; 2, 1"), parse_matrix("1; 0"))
    assert has_property(inside, p)
    assert not has_property(outside, p)


def test_zero_scalar_system_uncontrollable():
    sys = SystemPair(Mat.zeros(1, 1), Mat.zeros(1, 1))
    assert not has_property(sys, Controllability())


def test_stabilizability_oracle_basics():
    stable = SystemPair(parse_matrix("0.5, 0; 0, 0.25"), Mat.zeros(2, 1))
    assert has_property(stable, Stabilizability())
    hopeless = SystemPair(parse_matrix("1, 0; 0, 2"), Mat.zeros(2, 1))
    assert not has_property(hopeless, Stabilizability())
    rescued = SystemPair(parse_matrix("1, 0; 0, 2"), parse_matrix("1; 1"))
    assert has_property(rescued, Stabilizability())


def float_cells(m: Mat) -> np.ndarray:
    """The cells of m as float64, each converted from its Fraction."""
    return np.array([float(x) for i in range(m.rows) for x in m.row_list(i)], dtype=float).reshape(m.rows, m.cols)


def numeric_pbh_controllable(sys: SystemPair, tol=1e-9, least_modulus=0.0) -> bool:
    """Independent float oracle: rank [A - lambda I, B] at every eigenvalue of
    modulus at least `least_modulus`; 0 tests controllability, 1 stabilizability."""
    a, b = float_cells(sys.a), float_cells(sys.b)
    for lam in np.linalg.eigvals(a):
        if abs(lam) < least_modulus:
            continue
        block = np.hstack([a - lam * np.eye(sys.n), b]).astype(complex)
        s = np.linalg.svd(block, compute_uv=False)
        if int(np.sum(s > tol * max(1.0, float(s[0])))) < sys.n:
            return False
    return True


def test_kalman_agrees_with_numeric_pbh():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        sys = rand_system(rng, dims.n, dims.m)
        if rng.random() < 0.3:
            # force an uncontrollable direction by zeroing a full B row block
            sys = SystemPair(sys.a, Mat.zeros(dims.n, dims.m))
        assert has_property(sys, Controllability()) == numeric_pbh_controllable(sys)
        checked += 1


def kalman_rank_reference(a: list, b: list) -> int:
    """Rank of the whole reachability matrix [B, AB, ..., A^(n-1) B], built
    and eliminated cell by cell over Fractions."""
    n = len(a)
    blocks, power = [], b
    for _ in range(n):
        blocks.append(power)
        power = [[sum((a[i][k] * power[k][j] for k in range(n)), Fraction(0)) for j in range(len(b[0]))] for i in range(n)]
    rows = [[x for block in blocks for x in block[i]] for i in range(n)]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, n):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@st.composite
def control_systems(draw):
    """(A, B) as Fraction lists, often uncontrollable: sparse cells, B with
    repeated, scaled or zero columns, single-input chains with a broken link,
    scalar A with fewer inputs than states, block-diagonal A driven in one
    block, and no inputs at all.  In half the draws B is divided by 11 or 13,
    so [A, B] holds A over a denominator that B does not share."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    dense = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
    cell = draw(st.sampled_from([dense, st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), dense)]))

    def block(rows, cols):
        return [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]

    kind = draw(st.sampled_from(["random", "dependent-b", "chain", "scalar-a", "decoupled"]))
    a, b = block(n, n), block(n, m)
    if kind == "dependent-b" and m > 1:
        first = [row[0] for row in b]
        scales = [draw(st.sampled_from([0, 1, -2, Fraction(1, 2)])) for _ in range(m - 1)]
        b = [[x] + [s * x for s in scales] for x in first]
    elif kind == "chain":
        m = 1
        broken = draw(st.integers(0, n))  # n keeps every link
        a = [[Fraction(int(i == j + 1 and j != broken)) for j in range(n)] for i in range(n)]
        hit = draw(st.integers(0, n - 1))
        b = [[Fraction(int(i == hit))] for i in range(n)]
    elif kind == "scalar-a":
        c = draw(dense)
        a = [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    elif kind == "decoupled" and n > 1:
        cut = draw(st.integers(1, n - 1))
        a = [[x if (i < cut) == (j < cut) else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(a)]
        b = [row if i < cut else [Fraction(0)] * m for i, row in enumerate(b)]
    if draw(st.booleans()):  # scaling B keeps its span, and so the reachable subspace
        d = draw(st.sampled_from([11, 13]))
        b = [[x / d for x in row] for row in b]
    return a, b


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(control_systems())
def test_krylov_controllability_matches_full_kalman_rank(case):
    a, b = case
    n, m = len(a), len(b[0])
    sys = SystemPair(Mat(a), Mat(b) if m else Mat.zeros(n, 0))
    expected = m > 0 and kalman_rank_reference(a, b) == n
    assert is_controllable(sys) == expected


@st.composite
def stability_systems(draw):
    """(A, B) as Fraction lists from `control_systems`, scaled so that moduli fall
    on both sides of 1, and often block triangular: A = [A11, A12; 0, A22] with
    B = [B1; 0], which plants the modes of A22 outside the reachable subspace."""
    a, b = draw(control_systems())
    n = len(a)
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(3, 7)]))
    a = [[x * scale for x in row] for row in a]
    if n > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, n - 1))
        a = [[x if i < cut or j >= cut else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(a)]
        b = [row if i < cut else [Fraction(0)] * len(row) for i, row in enumerate(b)]
    return a, b


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(stability_systems())
@example(([[Fraction(1, 2)]], [[]]))  # n = 1, m = 0
@example(([[Fraction(3)]], [[Fraction(0)]]))  # n = 1, an unstable mode out of reach
@example(([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1, 2)]], [[Fraction(1)], [Fraction(0)]]))
@example(([[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(2)]], [[Fraction(1)], [Fraction(0)]]))
# the mode at 2 is out of reach behind a zero column of A at the reachable pivot
@example(([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(2)]], [[Fraction(1)], [Fraction(0)]]))
def test_exact_oracles_match_float_pbh_and_kalman_rank(case):
    a, b = case
    n, m = len(a), len(b[0])
    sys = SystemPair(Mat(a), Mat(b) if m else Mat.zeros(n, 0))
    assert is_controllable(sys) == (m > 0 and kalman_rank_reference(a, b) == n)
    moduli = np.abs(np.linalg.eigvals(float_cells(sys.a)))
    if np.any(np.abs(moduli - 1) <= 1e-6):
        return  # the float reference cannot tell these apart
    assert is_stabilizable(sys) == numeric_pbh_controllable(sys, least_modulus=1.0)


# diagonal entries of A22 inside, on and outside the unit circle
UNREACHABLE_MODES = [Fraction(x) for x in (0, "1/2", "-2/3", 1, -1, "3/2", "-5/4")]


@st.composite
def kalman_forms(draw):
    """(r, m, modes, seed) of a pair in Kalman form: n up to 16, k = len(modes) unreachable
    dimensions from 1 to n - 1, r = n - k, m inputs, and its other cells from the seed."""
    n = draw(st.integers(2, 16))
    modes = draw(st.lists(st.sampled_from(UNREACHABLE_MODES), min_size=1, max_size=n - 1))
    return n - len(modes), draw(st.integers(1, 3)), modes, draw(st.integers(0, 2**32 - 1))


@pytest.mark.reference
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(kalman_forms())
@example((6, 2, [Fraction(1, 2), Fraction(-5, 4)], 1))  # k < r: the quotient stage
@example((6, 1, [Fraction(1, 2), Fraction(0)], 2))
@example((3, 2, [Fraction(-2, 3), Fraction(1, 2), Fraction(0), Fraction(1), Fraction(0)], 3))  # k >= r: stages in R^n
@example((2, 1, [Fraction(1, 2), Fraction(0)], 4))
def test_staircase_finds_the_planted_unreachable_modes(case):
    """A = T [A11, A12; 0, A22] T^-1 and B = T [B1; 0] for a unimodular T: (A11, B1) is a
    companion pair driven at its first state, so controllable, and A22 is upper triangular
    with the planted modes on its diagonal, so the reachable dimension is r and the pair is
    stabilizable exactly when every planted mode lies strictly inside the unit circle.  An odd
    seed divides B by 11, a denominator A's cells do not share."""
    r, m, modes, seed = case
    rng, n = random.Random(seed), r + len(modes)

    def small():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))

    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if i >= r else r - 1, n):
            form[i][j] = small()  # the last column of A11, A12 and the strict upper part of A22
        if 0 < i < r:
            form[i][i - 1] = Fraction(1)
        if i >= r:
            form[i][i] = modes[i - r]
    inputs = [[Fraction(int(i == 0) if j == 0 else small() if i < r else 0) for j in range(m)] for i in range(n)]
    unit = [[rng.randint(-1, 1) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    order = rng.sample(range(n), n)
    t = Mat([unit[i] for i in order]) @ Mat(unit).T  # a permuted unit lower times a unit upper
    a, b = t @ Mat(form) @ invert(t), t @ Mat(inputs) * Fraction(1, 11 if seed % 2 else 1)
    a_rows, b_rows = a.to_lists(), b.to_lists()
    assert kalman_rank_reference(a_rows, b_rows) == r
    sys = SystemPair(a, b)
    assert not is_controllable(sys)
    assert is_stabilizable(sys) == all(abs(x) < 1 for x in modes)


def test_stabilizability_is_exact_at_the_unit_circle():
    # modes 1e-12 inside and outside the circle, closer than any float margin
    assert is_stabilizable(SystemPair(parse_matrix("0.999999999999"), Mat.zeros(1, 1)))
    assert not is_stabilizable(SystemPair(parse_matrix("1.000000000001"), Mat.zeros(1, 1)))
    # a rotation with rational cosine: both eigenvalues lie exactly on the circle
    rotation = parse_matrix("3/5, -4/5; 4/5, 3/5")
    assert not is_stabilizable(SystemPair(rotation, Mat.zeros(2, 0)))
    assert is_stabilizable(SystemPair(rotation * Fraction(999999, 1000000), Mat.zeros(2, 0)))


def test_controllability_of_a_generic_system_takes_one_elimination(eliminations):
    rng = random.Random(59)
    for n, m in [(1, 1), (3, 2), (5, 2), (6, 1), (4, 4)]:
        sys = rand_system(rng, n, m)
        assert is_controllable(sys)
        assert eliminations(is_controllable, sys) == 1  # the rank of K_ceil(n/m) is already n


def test_linear_structure_membership():
    dims = Dims(2, 0)
    p = single_constraint([1, 0, 1, 0])  # a11 + a12 = 0
    good = SystemPair(parse_matrix("1, -1; 0, 2"), Mat.zeros(2, 0))
    bad = SystemPair(Mat.identity(2), Mat.zeros(2, 0))
    assert has_property(good, p)
    assert not has_property(bad, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_structure_values_are_the_block_traces_of_the_target(n, m, seed):
    """The integer block traces of [A, B] @ target against the Fraction
    definition h_i . vec([A, B]), and membership read from either."""
    rng, dims = random.Random(seed), Dims(n, m)
    sys = rand_system(rng, n, m)
    rows = rand_independent_rows(rng, rng.randint(1, min(3, n * dims.total)), n * dims.total)
    reference = reference_values(sys, [LinearConstraint(r, BoundedSet.singleton(0)) for r in rows])
    # each set holds its value or misses it, so both verdicts occur
    constraints = tuple(
        LinearConstraint(r, BoundedSet.singleton(v + rng.randint(0, 1))) for r, v in zip(rows, reference)
    )
    if rng.random() < 0.5:
        p = LinearStructure.intersection(constraints)
    else:
        p = LinearStructure(constraints, rand_expr(rng, len(constraints)), Mode.EXPRESSION)
    problem = Problem.of(p, dims)
    assert block_traces(sys.ab(), problem.target, n) == tuple(reference)
    expected = evaluate_expr(p.expr, [c.values.contains(v) for c, v in zip(constraints, reference)])
    assert problem.holds(sys) == has_property(sys, p) == expected


def parent_block_traces(product: Mat, n: int) -> tuple:
    """The traces of the n-column blocks of a formed product, as they were read
    before the factors were: the reference for `block_traces`."""
    c = product.cols
    return tuple(Fraction(sum(product._nums[s * c + b + s] for s in range(n)), product._den) for b in range(0, c, n))


# small cells of either sign, and cells over denominators near 1e30
trace_cells = st.builds(
    Fraction,
    st.integers(-5, 5) | st.integers(-(10**30), 10**30),
    st.integers(1, 4) | st.integers(10**30 - 50, 10**30 + 50),
)


@st.composite
def trace_factors(draw):
    """(left, right, n): an n x (n+m) left, for n from 1 to 3 and m from 0 to 2, and
    a right of one to three n-column blocks."""
    n, m, blocks = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    left = Mat.from_flat(n, n + m, draw(st.lists(trace_cells, min_size=n * (n + m), max_size=n * (n + m))))
    size = (n + m) * blocks * n
    right = Mat.from_flat(n + m, blocks * n, draw(st.lists(trace_cells, min_size=size, max_size=size)))
    return left, right, n


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(trace_factors())
def test_block_traces_from_the_factors_equal_the_traces_of_their_product(factors):
    left, right, n = factors
    assert block_traces(left, right, n) == parent_block_traces(left @ right, n)


def test_expression_membership_or():
    c1 = LinearConstraint((1, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1), BoundedSet.singleton(0))
    p = LinearStructure((c1, c2), Or(Leaf(1), Leaf(2)), Mode.EXPRESSION)
    assert has_property(SystemPair(parse_matrix("3"), Mat.zeros(1, 1)), p)
    assert has_property(SystemPair(Mat.zeros(1, 1), parse_matrix("2")), p)
    assert not has_property(SystemPair(parse_matrix("1"), parse_matrix("1")), p)


def test_identifiability_is_not_a_membership_question():
    sys = SystemPair(Mat.identity(2), Mat.zeros(2, 1))
    with pytest.raises(SpecValidationError):
        has_property(sys, Identifiability())


# -- value sets ---------------------------------------------------------------

def test_bounded_set_membership_and_points():
    s = BoundedSet.from_pairs([("1", "2"), ("0", "0")])
    assert s.pieces == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)))
    assert s.contains(Fraction(3, 2))
    assert not s.contains(Fraction(1, 2))
    assert s.point_inside() == 0
    assert s.point_outside() == 3
    assert s.magnitude_bound() == 2


def test_bounded_set_merges_overlaps():
    s = BoundedSet.from_pairs([(0, 1), (1, 2)])
    assert s.pieces == ((Fraction(0), Fraction(2)),)


def test_bounded_set_rejects_empty_interval():
    with pytest.raises(SpecValidationError):
        BoundedSet.from_pairs([(2, 1)])


# -- expressions ----------------------------------------------------------------

def test_parse_expr_left_associative():
    expr = parse_expr("1 | 2 & 3")
    # evaluated left to right: (1 | 2) & 3
    assert evaluate_expr(expr, [True, False, False]) is False
    assert evaluate_expr(expr, [True, False, True]) is True
    assert flat_chain_ops(expr) == ["|", "&"]


def test_parse_expr_brackets():
    expr = parse_expr("1 | (2 & 3)")
    assert evaluate_expr(expr, [True, False, False]) is True
    assert flat_chain_ops(expr) is None


def test_expr_format_round_trip():
    for text in ("1", "1 & 2", "(1 | 2) & (3 | 4)", "1 | 2 & 3"):
        expr = parse_expr(text)
        assert parse_expr(format_expr(expr)) == expr


@st.composite
def expr_trees(draw):
    """A tree over leaves 1..k, k up to 12, in a drawn order, with arbitrary
    bracketing: adjacent operands are merged by a drawn operator until one is left."""
    nodes = [Leaf(i) for i in draw(st.permutations(range(1, draw(st.integers(1, 12)) + 1)))]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i : i + 2] = [draw(st.sampled_from([And, Or]))(nodes[i], nodes[i + 1])]
    return nodes[0]


def reference_leaves(t) -> list:
    return [t.index] if isinstance(t, Leaf) else reference_leaves(t.left) + reference_leaves(t.right)


def reference_evaluate(t, truth) -> bool:
    if isinstance(t, Leaf):
        return truth[t.index - 1]
    if isinstance(t, And):
        return reference_evaluate(t.left, truth) and reference_evaluate(t.right, truth)
    return reference_evaluate(t.left, truth) or reference_evaluate(t.right, truth)


def reference_format(t) -> str:
    if isinstance(t, Leaf):
        return str(t.index)
    left, right = (reference_format(c) if isinstance(c, Leaf) else f"({reference_format(c)})"
                   for c in (t.left, t.right))
    return f"{left} {'&' if isinstance(t, And) else '|'} {right}"


def reference_equal(s, t) -> bool:
    if type(s) is not type(t):
        return False
    if isinstance(s, Leaf):
        return s.index == t.index
    return reference_equal(s.left, t.left) and reference_equal(s.right, t.right)


def reference_chain_ops(t):
    """The operators of a left chain 1 op 2 op ... k, by class, or None."""
    if isinstance(t, Leaf):
        return [] if t.index == 1 else None
    ops = reference_chain_ops(t.left) if isinstance(t.right, Leaf) else None
    if ops is None or t.right.index != len(ops) + 2:
        return None
    return ops + ["&" if isinstance(t, And) else "|"]


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(expr_trees(), expr_trees(), st.data())
def test_expression_readers_match_recursive_references(t, other, data):
    # each reader walks the tree once with a list as its stack; the references recurse
    truth = data.draw(st.lists(st.booleans(), min_size=len(reference_leaves(t)), max_size=len(reference_leaves(t))))
    assert format_expr(t) == reference_format(t)
    back = parse_expr(format_expr(t))
    assert reference_equal(back, t) and back == t and hash(back) == hash(t)
    assert (other == t) is reference_equal(other, t) and (other != t) is not reference_equal(other, t)
    assert hash(other) == hash(t) or not reference_equal(other, t)
    assert expr_leaves(t) == reference_leaves(t)
    assert evaluate_expr(t, truth) is reference_evaluate(t, truth)
    assert flat_chain_ops(t) == reference_chain_ops(t)


def test_deep_and_long_expressions_are_read_without_recursion():
    # depth and length 5000 are far past the interpreter's frame limit, for the
    # readers and for ==, hash and repr
    count = 5000
    chain = functools.reduce(Or, map(Leaf, range(2, count + 1)), Leaf(1))
    nested = functools.reduce(lambda right, i: And(Leaf(i), right), range(count - 1, 0, -1), Leaf(count))
    for t, ops in ((chain, ["|"] * (count - 1)), (nested, None)):
        text = format_expr(t)
        assert expr_leaves(t) == list(range(1, count + 1))
        assert flat_chain_ops(t) == ops
        assert evaluate_expr(t, [False] * (count - 1) + [True]) is (t is chain)
        back = parse_expr(text)
        assert format_expr(back) == text and expr_leaves(back) == expr_leaves(t)
        assert back == t and hash(back) == hash(t) and repr(back) == f"{type(t).__name__}({text!r})"
    assert chain != nested and chain != Leaf(1)
    assert text == " & (".join(map(str, range(1, count))) + f" & {count}" + ")" * (count - 2)
    assert format_expr(parse_expr("(" * count + "7" + ")" * count)) == "7"
    assert format_expr(parse_expr("(" * count + "1 | 2" + ")" * count + " & 3")) == "(1 | 2) & 3"
    structure = LinearStructure.intersection([LinearConstraint((1,), BoundedSet.singleton(0))] * count)
    assert flat_chain_ops(structure.expr) == ["&"] * (count - 1)
    # a structure of 3000 constraints or more once failed ==, hash and repr
    again = LinearStructure.intersection([LinearConstraint((1,), BoundedSet.singleton(0))] * count)
    assert structure == again and hash(structure) == hash(again) and repr(structure) == repr(again)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(1 2)", "missing closing parenthesis"),
        ("(1", "missing closing parenthesis"),
        ("((1 | 2) & 3", "missing closing parenthesis"),
        ("1)", "trailing tokens after expression"),
        ("1 2", "trailing tokens after expression"),
        ("()", "unexpected token ')'"),
        ("1 & &", "unexpected token '&'"),
        ("1 &", "expression ended unexpectedly"),
        ("", "expression ended unexpectedly"),
        ("1 + 2", "unexpected character '+' in expression"),
    ],
)
def test_parse_expr_error_messages(text, message):
    with pytest.raises(SpecValidationError) as info:
        parse_expr(text)
    assert str(info.value) == message


def test_expr_each_constraint_once():
    c = LinearConstraint((1, 0), BoundedSet.singleton(0))
    with pytest.raises(SpecValidationError):
        LinearStructure((c, c), And(Leaf(1), Leaf(1)), Mode.EXPRESSION)


# -- validation -----------------------------------------------------------------

def test_sparsity_bounds_checked():
    with pytest.raises(SpecValidationError):
        minimum_subspace(Sparsity(frozenset({(3, 1)}), frozenset()), Dims(2, 1))
    with pytest.raises(SpecValidationError):
        Sparsity(frozenset(), frozenset())


@pytest.mark.parametrize("position", [(1.5, 1), (1, 2.25), (True, 1), ("1", 1), (1,), (1, 1, 1), (float("inf"), 1)])
def test_sparsity_rejects_non_integral_positions(position):
    # a position is never truncated: (1.5, 1) once silently became (1, 1)
    with pytest.raises(SpecValidationError, match="sparsity position"):
        Sparsity(frozenset({position}), frozenset())
    with pytest.raises(SpecValidationError, match="sparsity position"):
        Sparsity(frozenset({(1, 1)}), frozenset({position}))


def test_sparsity_accepts_integral_positions():
    p = Sparsity(frozenset({(1.0, 2), (np.int64(2), 1)}), frozenset())
    assert p.zeros_a == frozenset({(1, 2), (2, 1)})
    assert all(type(v) is int for pos in p.zeros_a for v in pos)


def test_expression_mode_needs_independent_vectors():
    c1 = LinearConstraint((1, 1), BoundedSet.singleton(0))
    c2 = LinearConstraint((2, 2), BoundedSet.singleton(1))
    p = LinearStructure((c1, c2), Or(Leaf(1), Leaf(2)), Mode.EXPRESSION)
    with pytest.raises(SpecValidationError):
        minimum_subspace(p, Dims(1, 1))


def test_empty_intersection_detected():
    c1 = LinearConstraint((1, 1), BoundedSet.singleton(0))
    c2 = LinearConstraint((-1, -1), BoundedSet.singleton(1))
    p = LinearStructure.intersection([c1, c2])
    with pytest.raises(SpecValidationError):
        minimum_subspace(p, Dims(1, 1))


def test_dependent_but_feasible_intersection_allowed():
    c1 = LinearConstraint((1, 1), BoundedSet.singleton(0))
    c2 = LinearConstraint((-1, -1), BoundedSet.singleton(0))
    p = LinearStructure.intersection([c1, c2])
    assert minimum_subspace(p, Dims(1, 1)).dim == 1


@pytest.mark.parametrize(
    "hs, values, nonempty",
    [
        ([(1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)], [1, 1], True),
        ([(1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)], [1, 2], False),
        ([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)], [1, 1, 2], True),
        ([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)], [1, 1, 3], False),
    ],
)
def test_dependent_intersection_decided_on_value_coordinates(hs, values, nonempty):
    # Dependent constraints: feasibility is decided in the column space of
    # the stacked constraint matrix, one coordinate per constraint.
    p = LinearStructure.intersection(
        [LinearConstraint(h, BoundedSet.singleton(v)) for h, v in zip(hs, values)]
    )
    if nonempty:
        assert minimum_subspace(p, Dims(2, 1)).ambient_dim == 3
    else:
        with pytest.raises(SpecValidationError):
            minimum_subspace(p, Dims(2, 1))


def fourier_motzkin_nonempty(constraints) -> bool:
    """Reference: some theta with h_i . theta in S_i, box by box, every unknown
    eliminated by Fourier-Motzkin elimination."""

    def unit(coeffs, rhs) -> tuple:  # coeffs . theta <= rhs, scaled so that duplicates coincide
        scale = next((abs(v) for v in coeffs if v), 1)
        return tuple(v / scale for v in coeffs), rhs / scale

    def feasible(ineqs, var) -> bool:
        if var == len(constraints[0].h):
            return all(rhs >= 0 for _, rhs in ineqs)
        pos = [q for q in ineqs if q[0][var] > 0]
        neg = [q for q in ineqs if q[0][var] < 0]
        derived = {q for q in ineqs if q[0][var] == 0}
        for pc, pr in pos:
            for nc, nr in neg:
                p, q = -nc[var], pc[var]
                derived.add(unit([p * a + q * b for a, b in zip(pc, nc)], p * pr + q * nr))
        return feasible(derived, var + 1)

    for box in itertools.product(*(c.values.pieces for c in constraints)):
        ineqs = set()
        for c, (lo, hi) in zip(constraints, box):
            ineqs |= {unit(c.h, hi), unit([-v for v in c.h], -lo)}
        if feasible(ineqs, 0):
            return True
    return False


@st.composite
def small_intersections(draw):
    """Up to five constraints in at most three unknowns, so most are dependent."""
    unknowns = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=unknowns, max_size=unknowns).filter(any)
    bounds = st.tuples(st.fractions(-4, 4, max_denominator=3), st.sampled_from([0, Fraction(1, 2), 1, 3]))
    constraints = []
    for h in draw(st.lists(row, min_size=1, max_size=5)):
        pieces = [(lo, lo + width) for lo, width in draw(st.lists(bounds, min_size=1, max_size=2))]
        constraints.append(LinearConstraint(tuple(h), BoundedSet.from_pairs(pieces)))
    return constraints


@settings(max_examples=200, deadline=None)
@given(small_intersections())
def test_simplex_intersection_check_matches_fourier_motzkin(constraints):
    solutions = []

    def checked(a, b):
        x = nonnegative_solve(a, b)
        if x is not None:
            assert a @ x == b and all(v >= 0 for v in x.col_list(0))
            solutions.append(x)
        return x

    with mock.patch.object(properties, "nonnegative_solve", checked):
        point = properties.intersection_point(constraints)
    assert (point is not None) == fourier_motzkin_nonempty(constraints)
    assert len(solutions) <= 1  # the first box found non-empty decides
    if point:  # a point of the intersection: in every set, and some H theta ([] for independent rows)
        assert all(c.values.contains(v) for c, v in zip(constraints, point))
        assert solve_right(Mat([list(c.h) for c in constraints]), Mat.column(point)) is not None


def test_interval_combinations_are_capped():
    # a dependent intersection may give at most 4096 boxes to decide
    def structure(count):
        return LinearStructure.intersection(
            [LinearConstraint((1,), BoundedSet.from_pairs([(0, 0), (5, 5)])) for _ in range(count)]
        )

    assert minimum_subspace(structure(12), Dims(1, 0)).dim == 1  # 4096 boxes, the first non-empty
    with pytest.raises(SpecValidationError, match="interval combinations"):
        minimum_subspace(structure(13), Dims(1, 0))


def test_intersection_mode_rejects_unions():
    c1 = LinearConstraint((1, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1), BoundedSet.singleton(0))
    p = LinearStructure((c1, c2), Or(Leaf(1), Leaf(2)), Mode.INTERSECTION)
    with pytest.raises(SpecValidationError):
        minimum_subspace(p, Dims(1, 1))


def test_dims_validation():
    with pytest.raises(SpecValidationError):
        Dims(0, 1)
    assert Dims(2, 0).total == 2  # autonomous systems are allowed

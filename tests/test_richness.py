"""Richness verdicts and minimum input design."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from minexcite import (
    Controllability,
    DimensionMismatch,
    Dims,
    Identifiability,
    InputSection,
    Mat,
    Problem,
    Sparsity,
    Stabilizability,
    Subspace,
    SystemPair,
    consistent_set_contains,
    contains,
    design_minimum_input,
    image,
    kernel,
    is_sufficiently_rich,
    minimum_subspace,
    missing_directions,
    parse_matrix,
    split_stacked,
)

from conftest import rand_invertible, rand_sparsity, rand_structure
from minexcite import Mode
from minexcite.ratmat import read_span
from minexcite.richness import Dataset, feedback, same_feedback, target_gaps


TWO_COLUMN_PLAN = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
CORNER_PLAN = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))  # spans e1, e3
EXAMPLE_SPARSITY = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))


def catalog(dims: Dims, rng: random.Random):
    """A representative batch of properties for the given dimensions."""
    props = [Identifiability(), Stabilizability()]
    if dims.m >= 1:
        props.append(Controllability())
    for _ in range(3):
        props.append(rand_sparsity(rng, dims))
    for mode in (Mode.INTERSECTION, Mode.EXPRESSION):
        props.append(rand_structure(rng, dims, mode))
    return props


# -- stacked image -----------------------------------------------------------

def test_stacked_image_of_two_columns():
    assert image(TWO_COLUMN_PLAN.stacked()).dim == 2


def test_stacked_image_full():
    sec = InputSection(parse_matrix("1, 0, 0; 0, 1, 0"), parse_matrix("0, 0, 1"))
    assert image(sec.stacked()) == Subspace(3, Mat.identity(3))


def test_stacked_image_zero_section():
    sec = InputSection(Mat.zeros(2, 2), Mat.zeros(1, 2))
    assert image(sec.stacked()).dim == 0


# -- richness verdicts ---------------------------------------------------------

def test_two_columns_not_rich_for_stabilizability():
    assert not is_sufficiently_rich(TWO_COLUMN_PLAN, Stabilizability())


def test_pure_input_plan_rich_for_scalar_controllability():
    sec = InputSection(Mat.zeros(1, 2), Mat.identity(2))
    assert is_sufficiently_rich(sec, Controllability())


def test_corner_plan_rich_for_sparsity():
    assert is_sufficiently_rich(CORNER_PLAN, EXAMPLE_SPARSITY)


def test_missing_directions_reported():
    missing = missing_directions(TWO_COLUMN_PLAN, Stabilizability())
    assert missing  # the plan misses one dimension of R^3
    span = image(TWO_COLUMN_PLAN.stacked())
    assert all(not contains(span, image(v)) for v in missing)
    assert missing_directions(CORNER_PLAN, EXAMPLE_SPARSITY) == []


# -- the gaps of a plan ----------------------------------------------------------

KINDS = ("identifiability", "stabilizability", "controllability", "sparsity", "intersection", "expression")


@st.composite
def problems_and_plans(draw):
    """(kind, problem, plan): a validated property of every kind, and a plan of k columns
    S = G C, G some of the target's columns beside random ones, so that S spans part of
    the target, all of it or none, and its rank falls anywhere from 0 to n+m."""
    dims = Dims(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    kind, rng = draw(st.sampled_from(KINDS)), random.Random(draw(st.integers(0, 2**32)))
    p = {
        "identifiability": Identifiability,
        "stabilizability": Stabilizability,
        "controllability": Controllability,
        "sparsity": lambda: rand_sparsity(rng, dims),
        "intersection": lambda: rand_structure(rng, dims, Mode.INTERSECTION),
        "expression": lambda: rand_structure(rng, dims, Mode.EXPRESSION),
    }[kind]()
    problem = Problem.of(p, dims)
    small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))
    every = range(problem.target.cols)
    taken = every if draw(st.booleans()) else draw(st.lists(st.sampled_from(every), max_size=len(every), unique=True))
    extra, k = draw(st.integers(0, dims.total)), draw(st.integers(1, dims.total + 1))
    g = [problem.target.col_list(j) for j in taken]
    g += [draw(st.lists(small, min_size=dims.total, max_size=dims.total)) for _ in range(extra)]
    c = [draw(st.lists(small, min_size=k, max_size=k)) for _ in g]
    cells = [sum((col[i] * row[j] for col, row in zip(g, c)), Fraction(0)) for i in range(dims.total) for j in range(k)]
    return kind, problem, Mat.from_flat(dims.total, k, cells)


def _fraction_rank(columns: list) -> int:
    """The rank of a list of columns, by Gaussian elimination with a Fraction per cell."""
    rows, rank = [list(col) for col in columns], 0
    for c in range(len(rows[0]) if rows else 0):
        lead = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if lead is None:
            continue
        rows[rank], rows[lead] = rows[lead], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(problems_and_plans())
def test_target_gaps_match_the_fraction_reference(case):
    """`target_gaps` is, for every property, the list of target columns t_j with
    rank [S | t_j] > rank S: empty exactly when the plan is rich, and never None,
    the target I and rank-deficient plans included."""
    kind, problem, plan = case
    columns = [plan.col_list(j) for j in range(plan.cols)]
    rank = _fraction_rank(columns)
    target = problem.target
    expected = [j for j in range(target.cols) if _fraction_rank(columns + [target.col_list(j)]) > rank]
    event(f"{kind}, {'rich' if not expected else 'deficient'}{', rank n+m' if rank == problem.dims.total else ''}")
    gaps = target_gaps(read_span(plan), problem)
    assert gaps == expected
    section = split_stacked(plan, problem.dims)
    assert is_sufficiently_rich(section, problem.prop) == (gaps == [])
    missing = [target.col(j) for j in expected if j in problem.basis_columns]
    assert missing_directions(section, problem.prop) == missing_directions(section, problem.prop, problem, gaps) == missing


# -- design ----------------------------------------------------------------------

def test_design_stabilizability_is_identity():
    sec = design_minimum_input(Stabilizability(), Dims(2, 1))
    assert sec.stacked() == Mat.identity(3)
    assert sec.k == 3


def test_design_scalar_controllability():
    sec = design_minimum_input(Controllability(), Dims(1, 2))
    assert sec.x_minus == Mat.zeros(1, 2)
    assert sec.u_minus == Mat.identity(2)


def test_design_sparsity_corner():
    sec = design_minimum_input(EXAMPLE_SPARSITY, Dims(2, 1))
    assert sec.stacked() == Mat.identity(3).take_cols([0, 2])


def test_designed_plans_always_rich():
    rng = random.Random(13)
    for n in range(1, 5):
        for m in range(1, 5):
            dims = Dims(n, m)
            for p in catalog(dims, rng):
                sec = design_minimum_input(p, dims)
                assert is_sufficiently_rich(sec, p)
                assert sec.k == minimum_subspace(p, dims).dim


def test_design_minimality_column_drops():
    rng = random.Random(17)
    for n in range(1, 4):
        for m in range(1, 4):
            dims = Dims(n, m)
            for p in catalog(dims, rng):
                sec = design_minimum_input(p, dims)
                target = minimum_subspace(p, dims)
                stacked = sec.stacked()
                for j in range(stacked.cols):
                    reduced = image(stacked.drop_col(j))
                    assert not contains(reduced, target)


# -- verdict invariances -----------------------------------------------------------

def test_appending_columns_is_monotone():
    rng = random.Random(29)
    for _ in range(20):
        dims = Dims(2, 1)
        p = rand_sparsity(rng, dims)
        sec = design_minimum_input(p, dims)
        extra = Mat.from_flat(3, 2, [Fraction(rng.randint(-3, 3)) for _ in range(6)])
        widened = Mat.hstack([sec.stacked(), extra])
        from minexcite import split_stacked

        assert is_sufficiently_rich(split_stacked(widened, dims), p)


def test_right_multiplication_preserves_verdict():
    rng = random.Random(37)
    dims = Dims(2, 1)
    for p in (Stabilizability(), EXAMPLE_SPARSITY):
        for sec in (TWO_COLUMN_PLAN, CORNER_PLAN, design_minimum_input(p, dims)):
            before = is_sufficiently_rich(sec, p)
            for _ in range(5):
                t = rand_invertible(rng, sec.k)
                from minexcite import split_stacked

                twisted = split_stacked(sec.stacked() @ t, dims)
                assert is_sufficiently_rich(twisted, p) == before


def test_column_permutation_preserves_verdict():
    sec = CORNER_PLAN
    swapped = InputSection(sec.x_minus.take_cols([1, 0]), sec.u_minus.take_cols([1, 0]))
    assert is_sufficiently_rich(swapped, EXAMPLE_SPARSITY)


def test_split_stacked_blocks_are_canonical():
    from minexcite import split_stacked

    # 1/6 appears only in the input rows, and the state rows share a factor 2
    stacked = parse_matrix("2, 4; 0, 6; 1/6, 1/2")
    sec = split_stacked(stacked, Dims(2, 1))
    assert sec.x_minus.to_lists() == [[2, 4], [0, 6]] and sec.x_minus._den == 1
    assert sec.u_minus.to_lists() == [[Fraction(1, 6), Fraction(1, 2)]] and sec.u_minus._den == 6
    assert sec.x_minus == parse_matrix("2, 4; 0, 6") and sec.u_minus == parse_matrix("1/6, 1/2")
    halves = split_stacked(parse_matrix("1/2, 1/4; 0, 0"), Dims(1, 1))
    assert halves.x_minus._den == 4 and halves.u_minus._den == 1 and halves.u_minus.is_zero()
    autonomous = split_stacked(parse_matrix("1/3, 0"), Dims(1, 0))
    assert autonomous.u_minus == Mat.zeros(0, 2) and autonomous.u_minus._den == 1
    assert autonomous.x_minus._den == 3
    with pytest.raises(DimensionMismatch):
        split_stacked(stacked, Dims(1, 1))


# -- section validation ----------------------------------------------------------------

def test_section_needs_matching_columns():
    with pytest.raises(DimensionMismatch):
        InputSection(Mat.zeros(2, 2), Mat.zeros(1, 3))


def test_section_needs_a_column():
    with pytest.raises(DimensionMismatch):
        InputSection(Mat.zeros(2, 0), Mat.zeros(1, 0))


# -- a system on a plan ------------------------------------------------------------

BIG = 10**30 + 57  # a denominator far past a machine word, shared by many cells


@st.composite
def systems_on_plans(draw):
    """(a, b, x, u): a system and a plan of k columns, with m = 0 and k = 1
    among the shapes, blocks that may be all zero, and cells over a large
    shared denominator as well as small ones."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    entries = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 2, 3, BIG, 3 * BIG]))

    def block(rows, cols):
        if draw(st.booleans()) and draw(st.booleans()):
            return Mat.zeros(rows, cols)
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    return block(n, n), block(n, m), block(n, k), block(m, k)


def _reference_feedback(a, b, x, u):
    """A X- + B U-, cell by cell in Fraction arithmetic."""
    n, m, k = a.rows, b.cols, x.cols

    def cell(i, c):
        return sum((a[i, j] * x[j, c] for j in range(n)), Fraction(0)) + sum(
            (b[i, j] * u[j, c] for j in range(m)), Fraction(0)
        )

    return Mat.from_flat(n, k, [cell(i, c) for i in range(n) for c in range(k)])


@settings(max_examples=150, deadline=None)
@given(systems_on_plans(), st.booleans(), st.booleans())
def test_feedback_is_the_two_block_sum(blocks, from_ab, from_stacked):
    a, b, x, u = blocks
    sys = SystemPair.from_ab(Mat.hstack([a, b])) if from_ab else SystemPair(a, b)
    section = split_stacked(Mat.vstack([x, u]), Dims(a.rows, b.cols)) if from_stacked else InputSection(x, u)
    x_plus = feedback(sys, section)
    assert x_plus == a @ x + b @ u == _reference_feedback(a, b, x, u)  # canonical: equal cell for cell
    assert consistent_set_contains(Dataset(section, x_plus), sys)


def test_feedback_checks_dimensions():
    # n + m agree, so only the check tells the blocks apart
    sys, plan = SystemPair(Mat.zeros(2, 2), Mat.zeros(2, 1)), InputSection(Mat.zeros(1, 2), Mat.zeros(2, 2))
    with pytest.raises(DimensionMismatch):
        feedback(sys, plan)
    with pytest.raises(DimensionMismatch):
        consistent_set_contains(Dataset(plan, Mat.zeros(1, 2)), sys)
    other = SystemPair.from_ab(Mat.zeros(1, 3))  # of the plan's dimensions, unlike sys
    for first, second in ((sys, sys), (other, sys), (sys, other)):
        with pytest.raises(DimensionMismatch):
            same_feedback(first, second, plan)


@st.composite
def pairs_on_plans(draw):
    """(first, second, plan, kind): a plan of rank 0 to n+m, often with zero rows and
    columns, a system, and a second system equal to it but on none, one, some or all
    rows.  Each differing row is a left-kernel vector of the plan, which it annihilates,
    or any row, each drawn on its own or all multiples of one (`kind` says which of the
    two, or "mixed"), and they are often divided by 7, so the two [A, B] have different
    denominators while their other rows stay equal."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 5))
    total, entries = n + m, st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))

    def block(rows, cols):
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    r = draw(st.integers(0, min(total, k)))
    plan = block(total, r) @ block(r, k) if r else Mat.zeros(total, k)
    if draw(st.booleans()):
        zero_rows = draw(st.sets(st.integers(0, total - 1), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, k - 1), max_size=2))
        cells = [0 if i in zero_rows or j in zero_cols else plan[i, j] for i in range(total) for j in range(k)]
        plan = Mat.from_flat(total, k, cells)
    first = block(n, total)
    null = kernel(plan.T)  # its columns y have y^T plan = 0
    rows = draw(st.sampled_from(["none", "one", "some", "all"]))
    if rows in ("none", "all"):
        rows = set() if rows == "none" else set(range(n))
    else:
        rows = {draw(st.integers(0, n - 1))} if rows == "one" else draw(st.sets(st.integers(0, n - 1)))
    seen = set()  # whether the plan annihilates each direction drawn

    def direction() -> list:
        seen.add(annihilated := null.cols > 0 and draw(st.booleans()))
        return (null @ block(null.cols, 1)).col_list(0) if annihilated else block(1, total).row_list(0)

    # a rank-one change, as the pair recipes make, moves each differing row along one direction
    one = direction() if draw(st.booleans()) else None
    shift = []
    for i in range(n):
        if i not in rows:
            shift.append([Fraction(0)] * total)
        else:
            shift.append(direction() if one is None else [v * c for c in [draw(st.sampled_from([-3, -1, 1, 2]))] for v in one])
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 7)]))
    second = first + Mat.from_flat(n, total, [v * scale for row in shift for v in row])
    kind = "annihilated" if seen == {True} else "any" if seen == {False} else "mixed"
    return SystemPair.from_ab(first), SystemPair.from_ab(second), split_stacked(plan, Dims(n, m)), kind


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(pairs_on_plans())
def test_same_feedback_matches_the_two_products(case):
    """The pair check, which reads only the rows where the two [A, B] differ, against
    the two products it replaces: feedback(first, plan) == feedback(second, plan)."""
    first, second, plan, kind = case
    differ = sum(first.ab().row_list(i) != second.ab().row_list(i) for i in range(first.n))
    expected = feedback(first, plan) == feedback(second, plan)
    if not differ:
        event("equal systems")
    else:
        event(f"differing rows: {'all' if differ == first.n else 'one' if differ == 1 else 'some'}, "
              f"{kind}; {'equal' if expected else 'different'} feedback")
        if first.ab()._den != second.ab()._den:
            event("the differing rows change the denominator")
    event(f"plan rank {read_span(plan.stacked()).rank} of {plan.dims.total}")
    assert same_feedback(first, second, plan) == expected
    assert same_feedback(second, first, plan) == expected


@settings(max_examples=100, deadline=None)
@given(systems_on_plans())
def test_kept_blocks_stay_out_of_equality_hash_and_repr(blocks):
    """A pair built from [A, B] and a plan split from [X-; U-] keep the block
    they were built from, and compare, hash and print like the plain ones,
    whether or not either side's block has been read."""
    a, b, x, u = blocks
    ab, stacked, dims = Mat.hstack([a, b]), Mat.vstack([x, u]), Dims(a.rows, b.cols)
    kept_pair, kept_plan = SystemPair.from_ab(ab), split_stacked(stacked, dims)
    assert kept_pair.ab() is ab and kept_plan.stacked() is stacked
    for read in (False, True):
        pair, plan = SystemPair(a, b), InputSection(x, u)
        if read:
            assert pair.ab() == ab and plan.stacked() == stacked
        assert kept_pair == pair and hash(kept_pair) == hash(pair) and repr(kept_pair) == repr(pair)
        assert kept_plan == plan and hash(kept_plan) == hash(plan) and repr(kept_plan) == repr(plan)


@pytest.mark.reference
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(systems_on_plans(), st.booleans())
def test_pairs_and_plans_built_from_blocks_or_whole_agree(blocks, autonomous):
    """A pair from (A, B) and one from [A, B], and a plan from (X-, U-) and one from
    [X-; U-], keep one matrix each and cut the blocks from it: either way they compare,
    hash and print alike and read the same blocks and sizes, m = 0 included.  No
    attribute can be set, and malformed shapes raise DimensionMismatch on both routes,
    before any block is cut."""
    a, b, x, u = blocks
    if autonomous:
        b, u = Mat.zeros(a.rows, 0), Mat.zeros(0, x.cols)
    n, m, k = a.rows, b.cols, x.cols
    dims = Dims(n, m)
    pairs = SystemPair(a, b), SystemPair.from_ab(Mat.hstack([a, b]))
    plans = InputSection(x, u), split_stacked(Mat.vstack([x, u]), dims)
    for first, second in (pairs, plans):
        assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
    for pair in pairs:
        assert (pair.a, pair.b, pair.ab(), pair.n, pair.m, pair.dims) == (a, b, Mat.hstack([a, b]), n, m, dims)
        for name, value in (("a", a), ("b", b), ("n", n)):
            with pytest.raises(AttributeError):
                setattr(pair, name, value)
    for plan in plans:
        assert (plan.x_minus, plan.u_minus, plan.stacked()) == (x, u, Mat.vstack([x, u]))
        assert (plan.n, plan.m, plan.k, plan.dims) == (n, m, k, dims)
        for name, value in (("x_minus", x), ("u_minus", u), ("k", k)):
            with pytest.raises(AttributeError):
                setattr(plan, name, value)
    malformed = [
        lambda: SystemPair(Mat.zeros(n, n + 1), b),  # A not square
        lambda: SystemPair(a, Mat.zeros(n + 1, m)),  # B of other rows than A
        lambda: SystemPair.from_ab(Mat.zeros(n + 1, n)),  # [A, B] of fewer columns than rows
        lambda: InputSection(x, Mat.zeros(m, k + 1)),  # blocks of other column counts
        lambda: InputSection(Mat.zeros(n, 0), Mat.zeros(m, 0)),  # no column
        lambda: split_stacked(Mat.zeros(n + m + 1, k), dims),  # rows other than n + m
        lambda: split_stacked(Mat.zeros(n + m, 0), dims),  # no column
    ]
    for build in malformed:
        with pytest.raises(DimensionMismatch):
            build()


def test_a_pair_from_too_few_columns_is_a_dimension_mismatch():
    # [A, B] with 3 rows and 2 columns has no square A; the blocks used to be cut first
    with pytest.raises(DimensionMismatch):
        SystemPair.from_ab(Mat.zeros(3, 2))
    with pytest.raises(DimensionMismatch, match="at least one column"):
        split_stacked(Mat.zeros(3, 0), Dims(2, 1))

"""Counterexample construction: annihilators, sign selection, pair recipes."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from minexcite import (
    BoundedSet,
    Controllability,
    CounterexamplePair,
    Dataset,
    Dims,
    Identifiability,
    InputSection,
    InternalFault,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    Problem,
    SectionIsRich,
    Sparsity,
    Stabilizability,
    SystemPair,
    algorithm2_signs,
    consistent_set_contains,
    counterexample_for,
    design_minimum_input,
    distinct_consistent_pair,
    excite,
    has_property,
    minimum_subspace,
    parse_matrix,
    solve_right,
    sparsity_columns,
    split_stacked,
)
from minexcite import adversary, properties
from minexcite.adversary import COMPLEMENT, KEEP
from minexcite.properties import And, Leaf, Or, parse_expr
from minexcite.ratmat import read_span
from minexcite.richness import target_gaps

from conftest import deficient_section, singleton_structure

TWO_COLUMN_PLAN = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
CORNER_PLAN = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))
FULL_PLAN_21 = InputSection(parse_matrix("1, 0, 0; 0, 1, 0"), parse_matrix("0, 0, 1"))
STATES_ONLY_21 = InputSection(Mat.identity(2), Mat.zeros(1, 2))  # annihilates e3


def assert_valid_pair(pair: CounterexamplePair, prop) -> None:
    data = Dataset(pair.section, pair.shared_feedback)
    assert consistent_set_contains(data, pair.sys_with)
    assert consistent_set_contains(data, pair.sys_without)
    assert has_property(pair.sys_with, prop)
    assert not has_property(pair.sys_without, prop)
    assert pair.sys_with != pair.sys_without


# -- annihilators --------------------------------------------------------------

def test_annihilator_of_two_column_plan():
    ann = read_span(TWO_COLUMN_PLAN.stacked()).annihilator
    assert ann is not None
    assert (ann.T @ TWO_COLUMN_PLAN.stacked()).is_zero()
    assert not ann.is_zero()


def test_annihilator_none_when_persistently_exciting():
    assert read_span(FULL_PLAN_21.stacked()).annihilator is None


def test_annihilator_of_zero_section():
    sec = InputSection(Mat.zeros(2, 1), Mat.zeros(1, 1))
    ann = read_span(sec.stacked()).annihilator
    assert ann == Mat.identity(3).take_cols([0])


# -- stabilizability pairs --------------------------------------------------------

def test_stabilizability_pair_input_weight_case():
    pair = counterexample_for(STATES_ONLY_21, Stabilizability())
    assert pair.sys_with.a == parse_matrix("1, 0; 0, 0")
    assert pair.sys_with.b == parse_matrix("1; 0")
    assert_valid_pair(pair, Stabilizability())


def test_stabilizability_pair_state_weight_case():
    # corner plan annihilates [0, 1, 0]: the construction lives in row 2
    pair = counterexample_for(CORNER_PLAN, Stabilizability())
    assert_valid_pair(pair, Stabilizability())
    assert pair.sys_without.a == parse_matrix("0, 0; 0, 1")


def test_stabilizability_pair_from_two_column_plan():
    pair = counterexample_for(TWO_COLUMN_PLAN, Stabilizability())
    assert_valid_pair(pair, Stabilizability())


def test_stabilizability_rich_plan_refused():
    with pytest.raises(SectionIsRich):
        counterexample_for(FULL_PLAN_21, Stabilizability())


# -- controllability pairs ----------------------------------------------------------

def test_controllability_pair_scalar_state():
    sec = InputSection(Mat.zeros(1, 1), parse_matrix("0; 1"))  # misses input e2
    pair = counterexample_for(sec, Controllability())
    assert pair.sys_with.b != Mat.zeros(1, 2)
    assert pair.sys_without == SystemPair(Mat.zeros(1, 1), Mat.zeros(1, 2))
    assert_valid_pair(pair, Controllability())


def test_controllability_pair_zero_input_scalar():
    sec = InputSection(parse_matrix("1"), parse_matrix("0"))
    pair = counterexample_for(sec, Controllability())
    assert_valid_pair(pair, Controllability())
    assert pair.shared_feedback == Mat.zeros(1, 1)


def test_controllability_pair_diagonal_skeleton():
    pair = counterexample_for(STATES_ONLY_21, Controllability())
    assert pair.sys_with.a == parse_matrix("1, 0; 0, 2")
    assert pair.sys_with.b == parse_matrix("1; 1")
    assert_valid_pair(pair, Controllability())


def test_controllability_pair_state_weight_cases():
    # plan spanning e1, e3 annihilates [0, 1, 0]: second coordinate carries weight
    pair = counterexample_for(CORNER_PLAN, Controllability())
    assert_valid_pair(pair, Controllability())
    # plan spanning e2, e3 annihilates e1: permutation moves the weight
    sec = InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1"))
    pair2 = counterexample_for(sec, Controllability())
    assert_valid_pair(pair2, Controllability())


@st.composite
def dense_annihilator_plans(draw):
    """(property, plan, seed): stabilizability or controllability for n from 1 to 4
    and m from 1 to 3, and a plan of k from 1 to n+m excitations orthogonal to a
    drawn g with nonzero state and input weights, drawn as `deficient_zero_patterns`
    draws its plans.  At rank n+m-1 the annihilator is g itself, rescaled, so its
    state and input blocks are both nonzero, and its state block is sometimes zero
    at the second coordinate, which the controllability recipe swaps away."""
    dims = Dims(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    vector = st.lists(st.integers(-2, 2), min_size=dims.total, max_size=dims.total)
    g = draw(vector)
    for i in (draw(st.integers(0, dims.n - 1)), draw(st.integers(dims.n, dims.total - 1))):
        g[i] = g[i] or 1
    gg = sum(x * x for x in g)
    drawn = draw(st.lists(vector, min_size=1, max_size=dims.total))
    columns = [[gg * x - sum(map(operator.mul, g, v)) * y for x, y in zip(v, g)] for v in drawn]
    prop = draw(st.sampled_from([Stabilizability(), Controllability()]))
    return prop, split_stacked(Mat(columns).T, dims), draw(st.integers(0, 99))


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(dense_annihilator_plans())
def test_stabilizability_and_controllability_pairs_on_dense_annihilators(case):
    prop, plan, seed = case
    assert_valid_pair(counterexample_for(plan, prop, seed), prop)


def permuted_controllability_pair(section: InputSection, span) -> tuple:
    """The controllability pair as first built, kept as the reference: h's weight on
    the second state is arranged by swapping states, the skeleton carries h in its
    first row, and the swap is undone by conjugating with the permutation."""
    n, m = section.n, section.m
    ann = span.kernel.col(0)
    den, hs, hu = ann._den, list(ann._nums[:n]), list(ann._nums[n:])
    perm = Mat.identity(n)
    if any(hs) and hs[1] == 0:
        first = next(i for i, v in enumerate(hs) if v)
        order = list(range(n))
        order[1], order[first], hs[1], hs[first] = first, 1, hs[first], hs[1]
        perm = perm.take_cols(order)
    if not any(hs):
        diag, first = range(1, n + 1), [0] * n + hu
    elif hs[0] == 0:
        diag, first = [1, *range(1, n)], hs + hu
    else:
        diag, first, den = range(1, n + 1), hs + hu, hs[0]
    base_a = Mat._make(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])
    b_without = Mat._make(n, m, [0] * m + [1] * (m * (n - 1)))
    a_with = base_a + adversary._single_row(n, n, 0, first[:n], den)
    b_with = b_without + adversary._single_row(n, m, 0, first[n:], den)
    return (
        SystemPair(perm.T @ a_with @ perm, perm.T @ b_with),
        SystemPair(perm.T @ base_a @ perm, perm.T @ b_without),
    )


@st.composite
def controllability_annihilator_plans(draw):
    """A plan of rank n+m-1, n from 2 to 5 and m from 1 to 3, spanning the complement
    of a drawn g, so its annihilator is g rescaled.  The first state g weighs is drawn,
    or none, and state 1 is sometimes left out after state 0, so g reaches every case
    of the controllability recipe (`annihilator_case`)."""
    dims = Dims(draw(st.integers(2, 5)), draw(st.integers(1, 3)))
    g = draw(st.lists(st.integers(-3, 3), min_size=dims.total, max_size=dims.total))
    nonzero = st.sampled_from([-2, -1, 1, 2])
    first = draw(st.integers(-1, dims.n - 1))  # -1: g weighs the inputs alone
    if first < 0:
        g[: dims.n] = [0] * dims.n
        g[draw(st.integers(dims.n, dims.total - 1))] = draw(nonzero)
    else:
        g[:first] = [0] * first
        g[first] = draw(nonzero)
        if first == 0 and draw(st.booleans()):
            g[1] = 0
    gg = sum(x * x for x in g)
    columns = [[gg * (i == j) - g[j] * y for i, y in enumerate(g)] for j in range(dims.total)]
    return split_stacked(Mat(columns).T, dims)


def annihilator_case(hs) -> str:
    if not any(hs):
        return "no state weighted"
    if hs[1]:
        return "state 1 weighted"
    return "state 0 weighted, state 1 not" if hs[0] else "first weighted state >= 2"


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(controllability_annihilator_plans())
def test_controllability_pair_equals_the_permuted_construction(plan):
    # built in the plan's own coordinates, the pair equals the permuted reference
    # entry for entry, in every case of where the annihilator weighs the states
    span = read_span(plan.stacked())
    event(annihilator_case(span.kernel.col(0)._nums[: plan.n]))
    problem = Problem.of(Controllability(), plan.dims)
    pair = adversary.counterexample_controllability(plan, problem, 0, span, target_gaps(span, problem))
    assert (pair.sys_with, pair.sys_without) == permuted_controllability_pair(plan, span)


def test_controllability_rich_plan_refused():
    with pytest.raises(SectionIsRich):
        counterexample_for(FULL_PLAN_21, Controllability())
    scalar_rich = InputSection(Mat.zeros(1, 2), Mat.identity(2))
    with pytest.raises(SectionIsRich):
        counterexample_for(scalar_rich, Controllability())


# -- sign selection --------------------------------------------------------------------

def two_constraints(expr, mode=Mode.EXPRESSION) -> LinearStructure:
    c1 = LinearConstraint((1, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1), BoundedSet.singleton(0))
    return LinearStructure((c1, c2), expr, mode)


def test_chain_signs_union_complements_prefix():
    p = two_constraints(Or(Leaf(1), Leaf(2)))
    assert algorithm2_signs(p.expr, frozenset({2})) == (COMPLEMENT, KEEP)


def test_chain_signs_intersection_keeps_prefix():
    p = two_constraints(And(Leaf(1), Leaf(2)))
    assert algorithm2_signs(p.expr, frozenset({2})) == (KEEP, KEEP)


def test_chain_signs_descend_to_first():
    c = LinearConstraint((1, 0, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1, 0), BoundedSet.singleton(0))
    c3 = LinearConstraint((0, 0, 1), BoundedSet.singleton(0))
    p = LinearStructure((c, c2, c3), parse_expr("1 | 2 & 3"), Mode.EXPRESSION)
    signs = algorithm2_signs(p.expr, frozenset({1}))
    # scanning down: 3 sits after '&' so it is kept, 2 after '|' so complemented,
    # the scan then reaches the first constraint and keeps it
    assert signs == (KEEP, COMPLEMENT, KEEP)


def test_bracketed_signs_example():
    expr = parse_expr("(1 | 2) & (3 | 4)")
    signs = algorithm2_signs(expr, frozenset({3}))
    assert signs == (KEEP, KEEP, KEEP, COMPLEMENT)


def test_bracketed_signs_single_leaf():
    assert algorithm2_signs(Leaf(1), frozenset({1})) == (KEEP,)


def test_bracketed_signs_flat_chain_contract():
    # a node whose two children are touched leaves: a chain takes the right one, as
    # Algorithm 1 scans from the last constraint down, any other bracketing the left
    assert algorithm2_signs(parse_expr("1 | 2"), frozenset({1, 2})) == (COMPLEMENT, KEEP)
    assert algorithm2_signs(parse_expr("(1 | 2) & (3 | 4)"), frozenset({1, 2})) == (KEEP, COMPLEMENT, KEEP, KEEP)


def chain_scan_signs(ops: list, c1: frozenset) -> tuple:
    """Algorithm 1, the reference scan, on the chain `1 ops[0] 2 ops[1] ... count`:
    from the last constraint down, sign each untouched constraint by the operator
    applied just before it; at the first touched one keep it and sign every earlier
    constraint by that operator; constraint 1, reached touched, is kept."""
    count = len(ops) + 1
    signs = [None] * count
    for i in range(count, 0, -1):
        before = ops[i - 2] if i >= 2 else None  # operator applied just before constraint i
        if i in c1 and i != 1:
            signs[i - 1] = KEEP
            fill = COMPLEMENT if before == "|" else KEEP
            for j in range(1, i):
                signs[j - 1] = fill
            break
        elif i not in c1:
            signs[i - 1] = COMPLEMENT if before == "|" else KEEP
        else:  # i == 1 and 1 in c1
            signs[0] = KEEP
    return tuple(signs)


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.lists(st.sampled_from("&|"), max_size=11).flatmap(
    lambda ops: st.tuples(st.just(ops), st.sets(st.integers(1, len(ops) + 1), min_size=1))
))
@example((["|"], {1, 2}))
@example((["&", "|"], {1, 2}))
def test_sign_descent_matches_the_chain_scan(case):
    # the one descent against Algorithm 1's scan on flat chains of up to 12 constraints
    ops, c1 = case
    text = " ".join(f"{op} {i}" for i, op in enumerate(ops, start=2))
    expr = parse_expr(f"1 {text}")
    assert properties.flat_chain_ops(expr) == ops
    event(f"{len(ops) + 1} constraints")
    assert algorithm2_signs(expr, frozenset(c1)) == chain_scan_signs(ops, frozenset(c1))


# -- structure pairs ----------------------------------------------------------------------

def row_sum_structure() -> LinearStructure:
    return LinearStructure.intersection(
        [LinearConstraint((1, 0, 1, 0), BoundedSet.singleton(0))]
    )


def test_structure_pair_single_constraint():
    sec = InputSection(parse_matrix("1; 0"), Mat.zeros(0, 1))
    pair = counterexample_for(sec, row_sum_structure())
    assert_valid_pair(pair, row_sum_structure())
    # the shared data pins down only the first column of A
    assert pair.sys_with.a.col(0) == pair.sys_without.a.col(0)


def test_structure_pair_sparsity_scalar():
    p = Sparsity(frozenset({(1, 1)}), frozenset())
    sec = InputSection(Mat.zeros(1, 1), Mat.identity(1))  # input-only data
    pair = counterexample_for(sec, p)
    assert_valid_pair(pair, p)
    assert pair.sys_with.a == Mat.zeros(1, 1)
    assert pair.sys_without.a != Mat.zeros(1, 1)


def test_structure_pair_expression_union():
    p = two_constraints(Or(Leaf(1), Leaf(2)))
    sec = InputSection(Mat.identity(1), Mat.zeros(1, 1))  # spans e1 only
    pair = counterexample_for(sec, p, seed=11)
    assert_valid_pair(pair, p)


def test_structure_pair_replayable():
    p = two_constraints(Or(Leaf(1), Leaf(2)))
    sec = InputSection(Mat.identity(1), Mat.zeros(1, 1))
    first = counterexample_for(sec, p, seed=9)
    second = counterexample_for(sec, p, seed=9)
    assert first == second


@st.composite
def dependent_intersections(draw):
    """(structure, plan, seed): one or two constraint vectors on [A, B] and one or
    two combinations of them, so the vectors are dependent.  Each value set's
    first interval holds h_i . theta for one drawn theta, so the intersection is
    non-empty while the midpoints mostly disagree; the plan misses one direction
    of the minimum subspace."""
    dims = Dims(draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    width = dims.n * dims.total
    small = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(small, min_size=width, max_size=width).filter(any), min_size=1, max_size=2))
    for _ in range(draw(st.integers(1, 2))):
        c = [draw(small) for _ in rows]
        combined = [sum(ci * r[t] for ci, r in zip(c, rows)) for t in range(width)]
        rows.append(combined if any(combined) else rows[0])
    theta = [Fraction(draw(small), draw(st.sampled_from([1, 2]))) for _ in range(width)]
    halves = st.sampled_from([0, Fraction(1, 2), 1, 2])
    constraints = []
    for h in rows:
        v = sum(map(operator.mul, h, theta))
        pieces = [(v - draw(halves), v + draw(halves))]
        if draw(st.booleans()):
            pieces.append((v + 3, v + 3 + draw(halves)))
        constraints.append(LinearConstraint(tuple(h), BoundedSet.from_pairs(pieces)))
    p = LinearStructure.intersection(constraints)
    rng = random.Random(draw(st.integers(0, 2**16)))
    plan = deficient_section(rng, dims, minimum_subspace(p, dims).basis, rng.randint(1, dims.total))
    return p, plan, draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(dependent_intersections())
def test_dependent_intersection_pairs_valid(case):
    p, plan, seed = case
    assert_valid_pair(counterexample_for(plan, p, seed), p)


def test_dependent_intersection_is_searched_once(monkeypatch):
    # a11 in [0, 2] and a11 in [1, 3]: the midpoints have no signed solve, so the
    # pair seats the point that validation found with its one phase 1, not a second
    calls = []
    real = properties.nonnegative_solve
    monkeypatch.setattr(properties, "nonnegative_solve", lambda a, b: calls.append(b) or real(a, b))
    p = LinearStructure.intersection(
        [LinearConstraint((1, 0, 0, 0, 0, 0), BoundedSet.from_pairs([piece])) for piece in [(0, 2), (1, 3)]]
    )
    pair = counterexample_for(InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1")), p)
    assert len(calls) == 1
    assert_valid_pair(pair, p)


@st.composite
def deficient_zero_patterns(draw):
    """(pattern, plan, seed): one to three zeros of [A, B] for n from 1 to 4 and m
    from 0 to 3, and a plan of k from 1 to n+m excitations orthogonal to a drawn g
    that is nonzero on some zero's column, so the plan misses that unit column.
    Its residual is rarely the unit column itself, and it comes from the basis
    side at small rank and from the left-kernel side at large rank."""
    dims = Dims(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    pool = [(0, r, c) for r in range(1, dims.n + 1) for c in range(1, dims.n + 1)]
    pool += [(1, r, c) for r in range(1, dims.n + 1) for c in range(1, dims.m + 1)]
    zeros = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    p = Sparsity(*(frozenset((r, c) for block, r, c in zeros if block == b) for b in (0, 1)))
    vector = st.lists(st.integers(-2, 2), min_size=dims.total, max_size=dims.total)
    g, c = draw(vector), draw(st.sampled_from(sparsity_columns(p, dims)))
    g[c] = g[c] or 1
    gg = sum(x * x for x in g)
    drawn = draw(st.lists(vector, min_size=1, max_size=dims.total))
    columns = [[gg * x - sum(map(operator.mul, g, v)) * y for x, y in zip(v, g)] for v in drawn]
    return p, split_stacked(Mat(columns).T, dims), draw(st.integers(0, 99))


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(deficient_zero_patterns())
# a zero of B; the residual of e3 off (1, 0, 1) is (-1/2, 0, 1/2), so the partner's
# row carries a negative entry beside h_c = 1/2
@example((Sparsity(frozenset(), frozenset({(1, 1)})), InputSection(parse_matrix("1; 0"), parse_matrix("1")), 0))
# two missed zeros, A(1, 1) before A(2, 2); rank 2 of 3 takes the left-kernel side,
# where the residual of e1 is (1, -1, 1) / 3
@example((Sparsity(frozenset({(2, 2), (1, 1)}), frozenset()), InputSection(parse_matrix("1, 0; 1, 1"), parse_matrix("0, 1")), 0))
def test_zero_pattern_pair_equals_its_singleton_structure_pair(case):
    # the pair is the one the equivalent intersection of {0} singletons gets, with
    # the zero system seated by the signed solve and the partner broken along h
    p, plan, seed = case
    singleton = singleton_structure(Problem.of(p, plan.dims))
    span = read_span(plan.stacked())
    expected = adversary.counterexample_structure(plan, singleton, seed, span, target_gaps(span, singleton))
    assert counterexample_for(plan, p, seed) == expected


def test_each_recipe_checks_its_pair_once(monkeypatch):
    # the zero pattern's pair is the zero system and one projected row, checked
    # once with the zero-pattern oracle
    calls = []
    real = adversary._verified_pair
    monkeypatch.setattr(adversary, "_verified_pair", lambda *args: calls.append(args) or real(*args))
    b11 = LinearConstraint((0, 0, 0, 0, 1, 0), BoundedSet.singleton(0))
    cases = [
        (STATES_ONLY_21, Sparsity(frozenset(), frozenset({(1, 1)}))),
        (STATES_ONLY_21, LinearStructure.intersection([b11])),
        (TWO_COLUMN_PLAN, Stabilizability()),
        (TWO_COLUMN_PLAN, Controllability()),
        (InputSection(Mat.identity(1), Mat.zeros(1, 1)), Controllability()),
    ]
    for plan, prop in cases:
        calls.clear()
        assert_valid_pair(counterexample_for(plan, prop), prop)
        assert len(calls) == 1, prop


def test_structure_rich_plan_refused():
    sec = design_minimum_input(row_sum_structure(), Dims(2, 0))
    with pytest.raises(SectionIsRich):
        counterexample_for(sec, row_sum_structure())


# -- identifiability certificates ------------------------------------------------------------

def test_distinct_consistent_pair():
    hidden = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    d = excite(hidden, CORNER_PLAN)
    first, second = distinct_consistent_pair(d)
    assert first != second
    assert consistent_set_contains(d, first)
    assert consistent_set_contains(d, second)


@st.composite
def deficient_reads(draw):
    """(dataset, w): a plan of n from 1 to 3 and m from 0 to 2, mostly of rank below
    n+m, with zero rows, and the feedback of a drawn system on it; a column w to take off its
    span.  Entries are small, or up to 2^200 in magnitude over denominators up to
    2^61 - 1."""
    small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    large = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**61 - 1))
    entries = draw(st.sampled_from([small, large, st.one_of(small, large)]))
    if draw(st.booleans()):
        entries = st.one_of(st.just(Fraction(0)), entries)

    def block(rows, cols):
        return Mat.from_flat(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))

    dims = Dims(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    r, k = draw(st.integers(0, dims.total)), draw(st.integers(1, dims.total + 2))
    plan = block(dims.total, r) @ block(r, k) if r else Mat.zeros(dims.total, k)
    zero_rows = draw(st.sets(st.integers(0, dims.total - 1), max_size=1))
    plan = Mat.from_flat(dims.total, k, [0 if i in zero_rows else plan[i, j] for i in range(dims.total) for j in range(k)])
    section = split_stacked(plan, dims)
    return excite(SystemPair.from_ab(block(dims.n, dims.total)), section), block(dims.total, 1)


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(deficient_reads())
def test_pair_and_residual_match_their_matrix_formulas(case):
    """The pair of models and the residual, built on the read's integers, against the
    matrix formulas they replace: the model `solution.T` and that model plus the first
    kernel column in row 0; and w minus its projection B (B^T B)^-1 B^T w onto the
    basis B, which is also the projection onto the kernel."""
    d, w = case
    span = read_span(d.section.stacked(), d.x_plus)
    if span.rank == d.section.dims.total:
        with pytest.raises(SectionIsRich):
            distinct_consistent_pair(d, span)
    else:
        model, ann, n, total = span.solution.T, span.kernel.col(0), d.section.n, d.section.dims.total
        shift = Mat.from_flat(n, total, [ann[j, 0] if i == 0 else 0 for i in range(n) for j in range(total)])
        assert distinct_consistent_pair(d, span) == (SystemPair.from_ab(model), SystemPair.from_ab(model + shift))

    def projection(c: Mat) -> Mat:
        return c @ solve_right(c.T @ c, c.T @ w) if c.cols else Mat.zeros(w.rows, 1)

    h = w - projection(span.basis)
    assert h == projection(span.kernel)
    if h.is_zero():
        with pytest.raises(InternalFault):
            adversary._residual(span, w)
    else:
        assert adversary._residual(span, w) == h


@pytest.mark.parametrize("plan", [split_stacked(Mat.identity(3), Dims(2, 1)), CORNER_PLAN], ids=["full", "deficient"])
def test_identifiability_has_no_property_split_pair(eliminations, plan):
    # decided from the table before any read of the plan, on a full plan as on a deficient one
    def refused():
        with pytest.raises(ValueError, match="identifiability"):
            counterexample_for(plan, Identifiability())

    assert eliminations(refused) == 0


def test_distinct_pair_refused_on_full_data():
    hidden = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    d = excite(hidden, FULL_PLAN_21)
    with pytest.raises(SectionIsRich):
        distinct_consistent_pair(d)


# -- randomized soundness (small scale; the acceptance suite runs the full sweep) -----------

def test_randomized_pairs_all_valid():
    from minexcite import is_sufficiently_rich

    from conftest import rand_sparsity

    rng = random.Random(97)
    for trial in range(40):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        kind = rng.choice(["stab", "contr", "sparsity"])
        if kind == "stab":
            prop = Stabilizability()
        elif kind == "contr":
            prop = Controllability()
        else:
            prop = rand_sparsity(rng, dims)
        target = minimum_subspace(prop, dims)
        sec = deficient_section(rng, dims, target.basis, rng.randint(1, dims.total))
        assert not is_sufficiently_rich(sec, prop)
        pair = counterexample_for(sec, prop, seed=trial)
        assert_valid_pair(pair, prop)

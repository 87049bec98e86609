"""Counterexample construction: annihilators, sign selection, pair recipes."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minexcite import (
    BoundedSet,
    Controllability,
    CounterexamplePair,
    Dataset,
    Dims,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    SectionIsRich,
    Sparsity,
    Stabilizability,
    SystemPair,
    algorithm1_signs,
    algorithm2_signs,
    consistent_set_contains,
    counterexample_controllability,
    counterexample_for,
    counterexample_stabilizability,
    counterexample_structure,
    design_minimum_input,
    distinct_consistent_pair,
    excite,
    find_annihilator,
    has_property,
    minimum_subspace,
    parse_matrix,
)
from minexcite import adversary, properties
from minexcite.adversary import COMPLEMENT, KEEP
from minexcite.properties import And, Leaf, Or, parse_expr

from conftest import deficient_section

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
    ann = find_annihilator(TWO_COLUMN_PLAN)
    assert ann is not None
    assert (ann.T @ TWO_COLUMN_PLAN.stacked()).is_zero()
    assert not ann.is_zero()


def test_annihilator_none_when_persistently_exciting():
    assert find_annihilator(FULL_PLAN_21) is None


def test_annihilator_of_zero_section():
    sec = InputSection(Mat.zeros(2, 1), Mat.zeros(1, 1))
    ann = find_annihilator(sec)
    assert ann == Mat.identity(3).take_cols([0])


# -- stabilizability pairs --------------------------------------------------------

def test_stabilizability_pair_input_weight_case():
    pair = counterexample_stabilizability(STATES_ONLY_21)
    assert pair.sys_with.a == parse_matrix("1, 0; 0, 0")
    assert pair.sys_with.b == parse_matrix("1; 0")
    assert_valid_pair(pair, Stabilizability())


def test_stabilizability_pair_state_weight_case():
    # corner plan annihilates [0, 1, 0]: the construction lives in row 2
    pair = counterexample_stabilizability(CORNER_PLAN)
    assert_valid_pair(pair, Stabilizability())
    assert pair.sys_without.a == parse_matrix("0, 0; 0, 1")


def test_stabilizability_pair_from_two_column_plan():
    pair = counterexample_stabilizability(TWO_COLUMN_PLAN)
    assert_valid_pair(pair, Stabilizability())


def test_stabilizability_rich_plan_refused():
    with pytest.raises(SectionIsRich):
        counterexample_stabilizability(FULL_PLAN_21)


# -- controllability pairs ----------------------------------------------------------

def test_controllability_pair_scalar_state():
    sec = InputSection(Mat.zeros(1, 1), parse_matrix("0; 1"))  # misses input e2
    pair = counterexample_controllability(sec)
    assert pair.sys_with.b != Mat.zeros(1, 2)
    assert pair.sys_without == SystemPair(Mat.zeros(1, 1), Mat.zeros(1, 2))
    assert_valid_pair(pair, Controllability())


def test_controllability_pair_zero_input_scalar():
    sec = InputSection(parse_matrix("1"), parse_matrix("0"))
    pair = counterexample_controllability(sec)
    assert_valid_pair(pair, Controllability())
    assert pair.shared_feedback == Mat.zeros(1, 1)


def test_controllability_pair_diagonal_skeleton():
    pair = counterexample_controllability(STATES_ONLY_21)
    assert pair.sys_with.a == parse_matrix("1, 0; 0, 2")
    assert pair.sys_with.b == parse_matrix("1; 1")
    assert_valid_pair(pair, Controllability())


def test_controllability_pair_state_weight_cases():
    # plan spanning e1, e3 annihilates [0, 1, 0]: second coordinate carries weight
    pair = counterexample_controllability(CORNER_PLAN)
    assert_valid_pair(pair, Controllability())
    # plan spanning e2, e3 annihilates e1: permutation moves the weight
    sec = InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1"))
    pair2 = counterexample_controllability(sec)
    assert_valid_pair(pair2, Controllability())


def test_controllability_rich_plan_refused():
    with pytest.raises(SectionIsRich):
        counterexample_controllability(FULL_PLAN_21)
    scalar_rich = InputSection(Mat.zeros(1, 2), Mat.identity(2))
    with pytest.raises(SectionIsRich):
        counterexample_controllability(scalar_rich)


# -- sign selection --------------------------------------------------------------------

def two_constraints(expr, mode=Mode.EXPRESSION) -> LinearStructure:
    c1 = LinearConstraint((1, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1), BoundedSet.singleton(0))
    return LinearStructure((c1, c2), expr, mode)


def test_chain_signs_union_complements_prefix():
    p = two_constraints(Or(Leaf(1), Leaf(2)))
    assert algorithm1_signs(p, frozenset({2})) == (COMPLEMENT, KEEP)


def test_chain_signs_intersection_keeps_prefix():
    p = two_constraints(And(Leaf(1), Leaf(2)))
    assert algorithm1_signs(p, frozenset({2})) == (KEEP, KEEP)


def test_chain_signs_descend_to_first():
    c = LinearConstraint((1, 0, 0), BoundedSet.singleton(0))
    c2 = LinearConstraint((0, 1, 0), BoundedSet.singleton(0))
    c3 = LinearConstraint((0, 0, 1), BoundedSet.singleton(0))
    p = LinearStructure((c, c2, c3), parse_expr("1 | 2 & 3"), Mode.EXPRESSION)
    signs = algorithm1_signs(p, frozenset({1}))
    # scanning down: 3 sits after '&' so it is kept, 2 after '|' so complemented,
    # the loop then reaches the first constraint and keeps it
    assert signs == (KEEP, COMPLEMENT, KEEP)


def test_bracketed_signs_example():
    expr = parse_expr("(1 | 2) & (3 | 4)")
    signs = algorithm2_signs(expr, frozenset({3}))
    assert signs == (KEEP, KEEP, KEEP, COMPLEMENT)


def test_bracketed_signs_single_leaf():
    assert algorithm2_signs(Leaf(1), frozenset({1})) == (KEEP,)


def test_bracketed_signs_flat_chain_contract():
    # on a flat chain the two procedures need not return identical signs,
    # but both must produce a valid split; here they do coincide
    expr = parse_expr("1 & 2")
    assert algorithm2_signs(expr, frozenset({2})) == (KEEP, KEEP)


# -- structure pairs ----------------------------------------------------------------------

def row_sum_structure() -> LinearStructure:
    return LinearStructure.intersection(
        [LinearConstraint((1, 0, 1, 0), BoundedSet.singleton(0))]
    )


def test_structure_pair_single_constraint():
    sec = InputSection(parse_matrix("1; 0"), Mat.zeros(0, 1))
    pair = counterexample_structure(sec, row_sum_structure())
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
    pair = counterexample_structure(sec, p, seed=11)
    assert_valid_pair(pair, p)


def test_structure_pair_replayable():
    p = two_constraints(Or(Leaf(1), Leaf(2)))
    sec = InputSection(Mat.identity(1), Mat.zeros(1, 1))
    first = counterexample_structure(sec, p, seed=9)
    second = counterexample_structure(sec, p, seed=9)
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
    assert_valid_pair(counterexample_structure(plan, p, seed), p)


def test_dependent_intersection_is_searched_once(monkeypatch):
    # a11 in [0, 2] and a11 in [1, 3]: the midpoints have no signed solve, so the
    # pair seats the point that validation found with its one phase 1, not a second
    calls = []
    real = properties.nonnegative_solve
    monkeypatch.setattr(properties, "nonnegative_solve", lambda a, b: calls.append(b) or real(a, b))
    p = LinearStructure.intersection(
        [LinearConstraint((1, 0, 0, 0, 0, 0), BoundedSet.from_pairs([piece])) for piece in [(0, 2), (1, 3)]]
    )
    pair = counterexample_structure(InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1")), p)
    assert len(calls) == 1
    assert_valid_pair(pair, p)


def test_each_recipe_checks_its_pair_once(monkeypatch):
    # the zero pattern's pair is built as its structure's and checked once, with
    # the zero-pattern oracle
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
        counterexample_structure(sec, row_sum_structure())


# -- identifiability certificates ------------------------------------------------------------

def test_distinct_consistent_pair():
    hidden = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    d = excite(hidden, CORNER_PLAN)
    first, second = distinct_consistent_pair(d)
    assert first != second
    assert consistent_set_contains(d, first)
    assert consistent_set_contains(d, second)


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

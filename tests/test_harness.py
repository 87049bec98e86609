"""Scenario running, excitation protocol, efficiency reporting."""

import random
from fractions import Fraction

from minexcite import (
    BoundedSet,
    Controllability,
    Dims,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Scenario,
    Sparsity,
    Stabilizability,
    SystemPair,
    Verdict,
    efficiency_csv,
    efficiency_text,
    excite,
    has_property,
    parse_matrix,
    report_efficiency,
    run,
    solve_right,
)
from minexcite.properties import Identifiability

from conftest import rand_sparsity, rand_structure, rand_system
from minexcite import Mode

EXAMPLE_SPARSITY = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
HIDDEN = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))


# -- excitation ------------------------------------------------------------

def test_excite_corner_plan():
    sec = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))
    d = excite(HIDDEN, sec)
    assert d.x_plus == parse_matrix("0, 1; 2, 0")


def test_excite_zero_system():
    sec = InputSection(Mat.identity(2), Mat.zeros(1, 2))
    d = excite(SystemPair(Mat.zeros(2, 2), Mat.zeros(2, 1)), sec)
    assert d.x_plus.is_zero()


def test_excite_consistent_completion_reproduces_responses():
    plan = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
    responses = parse_matrix("0.5, -0.25; 1, 1")
    z = solve_right(plan.stacked().T, responses.T)
    ab = z.T
    completion = SystemPair(ab.take_cols([0, 1]), ab.take_cols([2]))
    assert excite(completion, plan).x_plus == responses


def test_excite_is_linear_in_the_system():
    rng = random.Random(61)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_system(rng, n, m)
        b = rand_system(rng, n, m)
        total = SystemPair(a.a + b.a, a.b + b.b)
        sec = InputSection(
            Mat.from_flat(n, 2, [Fraction(rng.randint(-2, 2)) for _ in range(2 * n)]),
            Mat.from_flat(m, 2, [Fraction(rng.randint(-2, 2)) for _ in range(2 * m)]),
        )
        assert excite(total, sec).x_plus == excite(a, sec).x_plus + excite(b, sec).x_plus


# -- scenario runs -----------------------------------------------------------

def test_designed_sparsity_scenario():
    sc = Scenario(Dims(2, 1), HIDDEN, EXAMPLE_SPARSITY)
    rep = run(sc)
    assert rep.outcome == "has_property"
    assert rep.k_used == 2
    assert rep.k_model_based == 3
    assert rep.q is not None


def test_designed_stabilizability_scenario_matches_oracle():
    rng = random.Random(67)
    for _ in range(10):
        hidden = rand_system(rng, 2, 1)
        sc = Scenario(Dims(2, 1), hidden, Stabilizability())
        rep = run(sc)
        expected = has_property(hidden, Stabilizability())
        assert rep.verdict is Verdict.of(expected)
        assert rep.k_used == 3


def test_explicit_deficient_plan_yields_counterexample():
    plan = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
    sc = Scenario(Dims(2, 1), HIDDEN, Stabilizability(), plan=plan)
    rep = run(sc)
    assert rep.outcome == "not_sufficiently_rich"
    assert rep.counterexample is not None
    assert rep.missing
    # square invertible state data also yields the opportunistic gain artifact
    assert rep.gain is not None and rep.gain.gain == parse_matrix("-1, -1/2")


def test_dependent_intersection_run_yields_counterexample():
    # a11 in [0, 2] and a11 in [1, 3]: the midpoints disagree, yet [1, 2] meets both
    constraints = [LinearConstraint((1, 0, 0, 0, 0, 0), BoundedSet.from_pairs([piece])) for piece in [(0, 2), (1, 3)]]
    p = LinearStructure.intersection(constraints)
    plan = InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1"))
    rep = run(Scenario(Dims(2, 1), HIDDEN, p, plan=plan))
    assert rep.outcome == "not_sufficiently_rich"
    pair = rep.counterexample
    assert has_property(pair.sys_with, p) and not has_property(pair.sys_without, p)


def test_identifiability_scenarios():
    sc = Scenario(Dims(2, 1), HIDDEN, Identifiability())
    rep = run(sc)
    assert rep.outcome == "identified"
    assert rep.recovered == HIDDEN

    poor_plan = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))
    rep2 = run(Scenario(Dims(2, 1), HIDDEN, Identifiability(), plan=poor_plan))
    assert rep2.outcome == "not_identifiable"
    assert rep2.model_pair is not None


def test_round_trip_verdicts_match_oracle():
    rng = random.Random(71)
    for _ in range(200):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        hidden = rand_system(rng, dims.n, dims.m)
        prop = rng.choice(
            [
                Stabilizability(),
                Controllability(),
                rand_sparsity(rng, dims),
                rand_structure(rng, dims, Mode.INTERSECTION),
                rand_structure(rng, dims, Mode.EXPRESSION),
            ]
        )
        rep = run(Scenario(dims, hidden, prop))
        assert rep.verdict is Verdict.of(has_property(hidden, prop))


# -- efficiency reports ---------------------------------------------------------

def test_single_interconnection_probe_needs_one_excitation():
    # asking whether state 2 feeds state 1 takes a single experiment
    p = Sparsity(frozenset({(1, 2)}), frozenset())
    sc = Scenario(Dims(3, 2), SystemPair(Mat.zeros(3, 3), Mat.zeros(3, 2)), p)
    row = report_efficiency([sc])[0]
    assert row.k_minimum == 1
    assert row.k_model_based == 5


def test_stabilizability_has_no_savings():
    sc = Scenario(Dims(2, 1), HIDDEN, Stabilizability())
    row = report_efficiency([sc])[0]
    assert row.savings == 0


def test_scalar_controllability_savings():
    hidden = SystemPair(Mat.zeros(1, 1), Mat.zeros(1, 3))
    sc = Scenario(Dims(1, 3), hidden, Controllability())
    row = report_efficiency([sc])[0]
    assert (row.k_minimum, row.k_model_based) == (3, 4)
    assert row.savings == Fraction(1, 4)


def test_efficiency_renderings():
    sc = Scenario(Dims(2, 1), HIDDEN, EXAMPLE_SPARSITY)
    rows = report_efficiency([sc])
    text = efficiency_text(rows)
    assert "savings" in text and "sparsity" in text
    csv = efficiency_csv(rows)
    assert csv.splitlines()[0] == "property,n,m,k_min,n_plus_m,savings"
    assert len(csv.splitlines()) == 2

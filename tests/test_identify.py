"""Direct identification from data: membership tests, recovery, gain synthesis."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minexcite import (
    BoundedSet,
    Controllability,
    Dataset,
    Dims,
    GainNotApplicable,
    Identifiability,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    NotIdentifiable,
    NotSufficientlyRich,
    Problem,
    Scenario,
    Sparsity,
    Stabilizability,
    SystemPair,
    Verdict,
    consistent_set_contains,
    design_minimum_input,
    excite,
    gain_from_data,
    has_property,
    identify_controllability,
    identify_linear_structure,
    identify_sparsity,
    identify_stabilizability,
    is_controllable,
    is_sufficiently_rich,
    kernel,
    minimum_subspace,
    missing_directions,
    parse_matrix,
    recover_model,
    run,
    solve_right,
    sparsity_columns,
    validate_property,
)
from minexcite import ratmat
from minexcite.adversary import _verified_pair, counterexample_controllability, distinct_consistent_pair
from minexcite.identify import identify_property
from minexcite.properties import block_traces
from minexcite.ratmat import Span, read_span, staircase
from minexcite.richness import target_gaps

from conftest import (
    deficient_section,
    rand_independent_rows,
    rand_invertible,
    rand_mat,
    rand_sparsity,
    rand_structure,
    rand_system,
)

EXAMPLE_SPARSITY = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
CORNER_PLAN = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))
HIDDEN = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
HIDDEN_OFFPATTERN = SystemPair(parse_matrix("1, 1; 2, 1"), parse_matrix("1; 0"))

TWO_COLUMN_PLAN = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))


# -- consistency ---------------------------------------------------------------

def test_consistency_of_true_system():
    d = excite(HIDDEN, CORNER_PLAN)
    assert consistent_set_contains(d, HIDDEN)


def test_consistency_detects_visible_perturbation():
    d = excite(HIDDEN, CORNER_PLAN)
    bumped = SystemPair(HIDDEN.a + Mat.from_flat(2, 2, [1, 0, 0, 0]), HIDDEN.b)
    assert not consistent_set_contains(d, bumped)  # entry (1,1) is excited by e1


def test_consistency_zero_on_zero():
    sec = InputSection(Mat.zeros(1, 1), Mat.zeros(1, 1))
    d = Dataset(sec, Mat.zeros(1, 1))
    assert consistent_set_contains(d, SystemPair(Mat.zeros(1, 1), Mat.zeros(1, 1)))


# -- sparsity identification ------------------------------------------------------

def test_sparsity_identification_split():
    d = excite(HIDDEN, CORNER_PLAN)
    rep = identify_sparsity(d, EXAMPLE_SPARSITY)
    assert rep.verdict is Verdict.HAS_PROPERTY
    assert rep.q == Mat.identity(2)
    assert [(e.row, e.col) for e in rep.checked] == [(1, 1), (2, 3)]

    rep2 = identify_sparsity(excite(HIDDEN_OFFPATTERN, CORNER_PLAN), EXAMPLE_SPARSITY)
    assert rep2.verdict is Verdict.LACKS_PROPERTY


def test_sparsity_on_designed_data_forward_direction():
    rng = random.Random(41)
    for _ in range(20):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        sys = rand_system(rng, dims.n, dims.m)
        # zero out one A entry and query exactly it
        r, c = rng.randint(1, dims.n), rng.randint(1, dims.n)
        cells = sys.a.to_lists()
        cells[r - 1][c - 1] = Fraction(0)
        sys = SystemPair(Mat(cells), sys.b)
        p = Sparsity(frozenset({(r, c)}), frozenset())
        d = excite(sys, design_minimum_input(p, dims))
        assert identify_sparsity(d, p).verdict is Verdict.HAS_PROPERTY


def test_sparsity_requires_rich_plan():
    poor = InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1"))
    d = excite(HIDDEN, poor)
    with pytest.raises(NotSufficientlyRich) as err:
        identify_sparsity(d, EXAMPLE_SPARSITY)
    assert err.value.missing


def test_sparsity_verdict_independent_of_q_choice():
    # widen the plan so the solve has free directions, then perturb q by them
    sec = InputSection(
        parse_matrix("1, 0, 1; 0, 0, 0"), parse_matrix("0, 1, 1")
    )
    d = excite(HIDDEN, sec)
    rep = identify_sparsity(d, EXAMPLE_SPARSITY)
    stacked = sec.stacked()
    null = kernel(stacked)
    assert null.cols > 0
    rng = random.Random(43)
    for _ in range(10):
        mix = rand_mat(rng, null.cols, rep.q.cols, span=2)
        q_alt = rep.q + null @ mix
        assert stacked @ q_alt == stacked @ rep.q
        assert d.x_plus @ q_alt == d.x_plus @ rep.q


# -- linear structure identification ------------------------------------------------

def trace_constraint():
    return LinearStructure.intersection(
        [LinearConstraint((1, 0, 0, 1), BoundedSet.singleton(0))]
    )


def row_sum_constraint():
    return LinearStructure.intersection(
        [LinearConstraint((1, 0, 1, 0), BoundedSet.singleton(0))]
    )


def test_structure_trace_of_swap_matrix():
    sys = SystemPair(parse_matrix("0, 1; 1, 0"), Mat.zeros(2, 0))
    sec = InputSection(Mat.identity(2), Mat.zeros(0, 2))
    rep = identify_linear_structure(excite(sys, sec), trace_constraint())
    assert rep.verdict is Verdict.HAS_PROPERTY
    assert rep.values == (Fraction(0),)


def test_structure_single_column_excitation():
    sys = SystemPair(parse_matrix("1, -1; 0, 2"), Mat.zeros(2, 0))
    sec = InputSection(parse_matrix("1; 1"), Mat.zeros(0, 1))
    d = excite(sys, sec)
    assert d.x_plus == parse_matrix("0; 2")
    rep = identify_linear_structure(d, row_sum_constraint())
    assert rep.verdict is Verdict.HAS_PROPERTY
    assert rep.values == (Fraction(0),)


def test_structure_identity_violates_row_sum():
    sys = SystemPair(Mat.identity(2), Mat.zeros(2, 0))
    sec = InputSection(parse_matrix("1; 1"), Mat.zeros(0, 1))
    rep = identify_linear_structure(excite(sys, sec), row_sum_constraint())
    assert rep.verdict is Verdict.LACKS_PROPERTY
    assert rep.values == (Fraction(1),)


# -- model recovery ------------------------------------------------------------------

def test_recovery_needs_full_excitation():
    result = recover_model(excite(HIDDEN, CORNER_PLAN))
    assert result == NotIdentifiable(stacked_rank=2, deficit=1)


def test_recovery_of_two_column_plan_fails():
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, -0.25; 1, 1"))
    assert isinstance(recover_model(d), NotIdentifiable)


def corrupted_dataset() -> Dataset:
    """An overdetermined plan, four excitations in R^3, with responses off by one entry."""
    sec = InputSection(
        parse_matrix("1, 0, 0, 1; 0, 1, 0, 1"), parse_matrix("0, 0, 1, 1")
    )
    d = excite(HIDDEN, sec)
    cells = d.x_plus.to_lists()
    cells[0][3] += 1
    return Dataset(sec, Mat(cells))


def test_corrupted_dataset_detected():
    from minexcite import InconsistentDataset

    with pytest.raises(InconsistentDataset):
        recover_model(corrupted_dataset())


def test_inconsistent_deficient_dataset_detected():
    """A rank-deficient plan whose responses no system reproduces: the two excitations
    are equal while their responses differ.  Model recovery reads the consistency off
    its one read of the plan beside X+ before it reports the deficit, as the pair of
    models does on the same read."""
    from minexcite import InconsistentDataset

    d = Dataset(InputSection(parse_matrix("1, 1; 0, 0"), parse_matrix("0, 0")), parse_matrix("1, 2; 0, 0"))
    with pytest.raises(InconsistentDataset):
        recover_model(d)
    with pytest.raises(InconsistentDataset):
        distinct_consistent_pair(d)
    consistent = Dataset(d.section, parse_matrix("1, 1; 0, 0"))
    assert recover_model(consistent) == NotIdentifiable(stacked_rank=1, deficit=2)


def test_corrupted_dataset_detected_by_zero_patterns_and_structures():
    """The one read of a rich plan beside its data also checks the data: a zero
    pattern or a structure on responses that no system reproduces raises, rather
    than giving a verdict that no system supports."""
    from minexcite import InconsistentDataset

    d = corrupted_dataset()
    structure = LinearStructure.intersection(
        [LinearConstraint((1, 0, 0, 1, 0, 0), BoundedSet.singleton(0))]
    )
    for identify, p in ((identify_sparsity, EXAMPLE_SPARSITY), (identify_linear_structure, structure)):
        assert is_sufficiently_rich(d.section, p)
        with pytest.raises(InconsistentDataset):
            identify(d, p)


@pytest.mark.parametrize(
    "x, u, xp",
    [
        ("1, 2, 0, 0", "0, 0, 1, 0; 0, 0, 0, 1", "1, 3, 0, 0"),  # A X- would be (a, 2a)
        ("0, 0, 0", "1, 0, 1; 0, 1, 0", "1, 1, 3"),  # equal inputs, different responses
    ],
)
def test_inconsistent_scalar_data_detected(x, u, xp):
    from minexcite import InconsistentDataset

    # one state: the plan spans the input directions without being the design
    d = Dataset(InputSection(parse_matrix(x), parse_matrix(u)), parse_matrix(xp))
    with pytest.raises(InconsistentDataset):
        identify_controllability(d)
    sys = SystemPair(parse_matrix("2"), parse_matrix("1, -1"))
    assert identify_controllability(excite(sys, d.section)) is Verdict.HAS_PROPERTY


def test_identity_excitation_recovers_exactly():
    rng = random.Random(47)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        sys = rand_system(rng, n, m)
        from minexcite import split_stacked

        sec = split_stacked(Mat.identity(n + m), Dims(n, m))
        recovered = recover_model(excite(sys, sec))
        assert recovered == sys


# -- stabilizability and controllability from data ------------------------------------

def full_plan(dims: Dims) -> InputSection:
    from minexcite import split_stacked

    return split_stacked(Mat.identity(dims.total), dims)


def test_identify_stabilizability_negative():
    sys = SystemPair(parse_matrix("1, 0; 0, 2"), Mat.zeros(2, 1))
    verdict = identify_stabilizability(excite(sys, full_plan(Dims(2, 1))))
    assert verdict is Verdict.LACKS_PROPERTY


def test_identify_stabilizability_of_consistent_completion():
    # any system consistent with the stabilizing two-column responses is
    # itself stabilizable: the shared closed loop contracts
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, -0.25; 1, 1"))
    z = solve_right(TWO_COLUMN_PLAN.stacked().T, d.x_plus.T)
    ab = z.T
    sys = SystemPair(ab.take_cols([0, 1]), ab.take_cols([2]))
    assert consistent_set_contains(d, sys)
    verdict = identify_stabilizability(excite(sys, full_plan(Dims(2, 1))))
    assert verdict is Verdict.HAS_PROPERTY


def test_identify_stabilizability_needs_full_span():
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, -0.25; 1, 1"))
    with pytest.raises(NotSufficientlyRich):
        identify_stabilizability(d)


def test_scalar_controllability_from_input_only():
    sec = InputSection(Mat.zeros(1, 1), Mat.identity(1))
    for response, expected in ((parse_matrix("2"), Verdict.HAS_PROPERTY), (Mat.zeros(1, 1), Verdict.LACKS_PROPERTY)):
        verdict = identify_controllability(Dataset(sec, response))
        assert verdict is expected


def test_identify_controllability_multistate():
    sys = SystemPair(parse_matrix("0, 1; 0, 0"), parse_matrix("0; 1"))
    verdict = identify_controllability(excite(sys, full_plan(Dims(2, 1))))
    assert verdict is Verdict.HAS_PROPERTY
    dead = SystemPair(parse_matrix("1, 0; 0, 1"), Mat.zeros(2, 1))
    assert identify_controllability(excite(dead, full_plan(Dims(2, 1)))) is Verdict.LACKS_PROPERTY


# -- gain synthesis --------------------------------------------------------------------

def test_gain_golden_stabilizing():
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, -0.25; 1, 1"))
    res = gain_from_data(d)
    assert res.gain == parse_matrix("-1, -1/2")
    assert res.closed_loop == parse_matrix("1/2, -1/2; 1, 1/2")
    assert abs(res.radius - math.sqrt(0.75)) < 1e-9


def test_gain_golden_not_stabilizing():
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, 0; 1, 2"))
    res = gain_from_data(d)
    assert res.closed_loop == parse_matrix("1/2, -1/4; 1, 3/2")
    assert abs(res.radius - 1.0) < 1e-9
    assert res.marginal


def test_gain_radius_is_computed_once_when_first_read(monkeypatch):
    from minexcite import identify

    # one exact characteristic polynomial serves both the verdict and the radius
    calls = []
    real = identify.characteristic_polynomial
    monkeypatch.setattr(identify, "characteristic_polynomial", lambda m: calls.append(m) or real(m))
    d = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, 0; 1, 2"))
    res = gain_from_data(d)
    # a run keeps the gain of an explicit square plan and never reads its radius
    assert run(Scenario(Dims(2, 1), HIDDEN, Stabilizability(), TWO_COLUMN_PLAN)).gain is not None
    assert not calls
    assert res.marginal and abs(res.radius - 1.0) < 1e-9
    assert res.stabilizing is False
    assert calls == [res.closed_loop]


def loop_gain(closed_loop: Mat):
    """The gain of square identity state data whose responses are `closed_loop`, with one zero input."""
    n = closed_loop.rows
    return gain_from_data(Dataset(InputSection(Mat.identity(n), Mat.zeros(1, n)), closed_loop))


@st.composite
def closed_loops(draw) -> Mat:
    """Square matrices of small rationals; a triangular one has its drawn diagonal
    as eigenvalues, so moduli of exactly 1 (such as 3/3 or -5/5) come up often."""
    n = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
    cells = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    if draw(st.booleans()):
        cells = [0 if k // n > k % n else c for k, c in enumerate(cells)]
    return Mat.from_flat(n, n, cells)


@settings(max_examples=200, deadline=None)
@given(closed_loops())
@example(parse_matrix("0.999999999999"))  # radius 1 - 1e-12
@example(parse_matrix("3/5, -4/5; 4/5, 3/5"))  # a rotation: both eigenvalues on the unit circle
def test_gain_stabilizing_is_the_exact_stability_of_the_closed_loop(closed_loop):
    assert loop_gain(closed_loop).stabilizing == staircase(closed_loop, True)[1]


@pytest.mark.parametrize(
    "closed_loop, stable",
    [
        ("0.999999999999", True),  # radius 1 - 1e-12
        ("1", False),
        ("3/5, -4/5; 4/5, 3/5", False),  # a rotation: both eigenvalues on the unit circle
        ("3/10, -4/10; 4/10, 3/10", True),
        ("1/2, 1; 0, 1/2", True),  # a repeated eigenvalue
        ("-1, 0; 0, 1/2", False),
    ],
)
def test_gain_stabilizing_at_the_unit_circle(eliminations, closed_loop, stable):
    res = loop_gain(parse_matrix(closed_loop))
    # the verdict and the radius read one characteristic polynomial; no staircase runs
    assert eliminations(lambda r: (r.stabilizing, r.radius), res) == 0
    assert res.stabilizing is stable
    assert staircase(res.closed_loop, True)[1] is stable


def test_gain_zero_input_returns_open_loop():
    sec = InputSection(Mat.identity(2), Mat.zeros(1, 2))
    a = parse_matrix("0, 1; 1, 0")
    res = gain_from_data(excite(SystemPair(a, Mat.zeros(2, 1)), sec))
    assert res.gain == Mat.zeros(1, 2)
    assert res.closed_loop == a


def test_gain_not_applicable():
    with pytest.raises(GainNotApplicable):
        gain_from_data(excite(HIDDEN, CORNER_PLAN))  # k = 2 = n but singular X-
    wide = InputSection(parse_matrix("1, 0, 0; 0, 1, 0"), parse_matrix("0, 0, 1"))
    with pytest.raises(GainNotApplicable):
        gain_from_data(excite(HIDDEN, wide))  # k = 3 != n


# -- invariance under basis changes -------------------------------------------------------

def test_verdicts_survive_right_multiplication():
    rng = random.Random(53)
    d = excite(HIDDEN, CORNER_PLAN)
    base = identify_sparsity(d, EXAMPLE_SPARSITY).verdict
    for _ in range(10):
        t = rand_invertible(rng, d.section.k)
        twisted = Dataset(
            InputSection(d.section.x_minus @ t, d.section.u_minus @ t), d.x_plus @ t
        )
        assert identify_sparsity(twisted, EXAMPLE_SPARSITY).verdict == base


# -- one read of the plan beside its data ---------------------------------------------

def test_rank_shortcut_only_for_the_identity_target():
    """A structure whose constraint matrix has n+m columns but rank 2 < n+m: a plan
    of rank 2 that spans it is rich, and its verdict is the oracle's.  Reading
    richness off the rank is right only for the target I."""
    dims = Dims(1, 2)
    p = LinearStructure.intersection(
        [
            LinearConstraint((1, 0, 0), BoundedSet.from_pairs([(0, 1)])),
            LinearConstraint((0, 1, 0), BoundedSet.from_pairs([(-1, 1)])),
            LinearConstraint((1, 1, 0), BoundedSet.from_pairs([(0, 2)])),
        ]
    )
    plan = InputSection(parse_matrix("1, 1, 2"), parse_matrix("1, -1, 2; 0, 0, 0"))
    assert plan.stacked().cols == 3 and Problem.of(p, dims).target.cols == dims.total
    assert is_sufficiently_rich(plan, p)
    assert missing_directions(plan, p) == []
    inside = SystemPair(parse_matrix("1/2"), parse_matrix("1/2, 7"))
    outside = SystemPair(parse_matrix("2"), parse_matrix("1/2, 7"))
    for sys in (inside, outside):
        expected = Verdict.of(has_property(sys, p))
        assert identify_linear_structure(excite(sys, plan), p).verdict is expected
        report = run(Scenario(dims, sys, p, plan))
        assert report.outcome == expected.value
    assert has_property(inside, p) and not has_property(outside, p)


def test_lazy_q_is_the_solve_and_reproduces_the_verdict(eliminations):
    """On a recombined rich plan the verdict comes from the read, and Q, solved on
    its first read only, is solve_right(S, target): X+ Q gives the same entries or
    traces as the verdict."""
    rng = random.Random(71)
    for _ in range(12):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 2))
        hidden = rand_system(rng, dims.n, dims.m)
        for p in (rand_sparsity(rng, dims), *(rand_structure(rng, dims, mode) for mode in Mode)):
            problem = Problem.of(p, dims)
            design = design_minimum_input(p, dims)
            t = rand_invertible(rng, design.k)
            plan = InputSection(design.x_minus @ t, design.u_minus @ t)
            data = excite(hidden, plan)
            expected_q = solve_right(plan.stacked(), problem.target)
            product = data.x_plus @ expected_q
            if isinstance(p, Sparsity):
                rep = identify_sparsity(data, p, problem)
                position = {c: l for l, c in enumerate(sparsity_columns(p, dims))}
                assert [e.value for e in rep.checked] == [product[r - 1, position[c - 1]] for r, c in p.positions(dims.n)]
            else:
                rep = identify_linear_structure(data, p, problem)
                assert rep.values == block_traces(data.x_plus, expected_q, dims.n)
            assert rep.verdict is Verdict.of(has_property(hidden, p))
            assert eliminations(lambda: rep.q) == 1
            assert eliminations(lambda: rep.q) == 0
            assert rep.q == expected_q
            assert identify_property(data, problem).q() == expected_q


# -- elimination budget ------------------------------------------------------------

def test_elimination_budget(eliminations, monkeypatch):
    """A designed run reuses the design's elimination, and a run validates nothing.

    Constructing a scenario validates its property once and, for a designed
    structure, makes the one elimination that picks the basis and its Q.  A
    designed run then eliminates only inside the property's own test; the
    identifier's solve of an explicit plan is its richness test.  The membership
    oracles of stabilizability and controllability are one Krylov staircase each."""
    rng = random.Random(59)
    dims = Dims(3, 2)
    hidden = rand_system(rng, dims.n, dims.m)
    sparsity = Sparsity(frozenset({(1, 2), (3, 3)}), frozenset({(2, 1)}))
    structures = [rand_structure(rng, dims, mode) for mode in (Mode.INTERSECTION, Mode.EXPRESSION)]
    scalar_dims, scalar = Dims(1, 2), rand_system(rng, 1, 2)
    props = [sparsity, *structures, Identifiability(), Stabilizability(), Controllability()]
    validations = []
    for cls in (Sparsity, LinearStructure, Controllability, Identifiability, Stabilizability):
        real = cls._validate
        monkeypatch.setattr(cls, "_validate", lambda p, d, real=real: validations.append(p) or real(p, d))

    for p in props:
        design = 1 if isinstance(p, LinearStructure) else 0
        assert eliminations(Scenario, dims, hidden, p) == eliminations(validate_property, p, dims) + design
    for p in props:
        sc = Scenario(dims, hidden, p)
        validations.clear()
        expected = 1 if isinstance(p, (Stabilizability, Controllability)) else 0  # the oracle's staircase
        assert eliminations(run, sc) == expected
        assert not validations
    assert eliminations(run, Scenario(scalar_dims, scalar, Controllability())) == 0

    # a deficient run, with no validation.  Every explicit plan takes one read of its
    # span beside its data: its rank or its product with the target decides richness,
    # and the same read gives the missing directions and annihilators (stabilizability
    # and controllability add the staircases of the pair's two oracle calls).  A zero
    # pattern adds the projection of its missed unit column; a structure adds the
    # projection and the signed solve, and its missing directions also need the
    # pivots of its target.
    deficient = {Sparsity: 2, LinearStructure: 4, Identifiability: 1, Stabilizability: 3, Controllability: 3}
    drng = random.Random(61)
    for p in props:
        sc = Scenario(dims, hidden, p, deficient_section(drng, dims, minimum_subspace(p, dims).basis, 4))
        validations.clear()
        assert eliminations(run, sc) == deficient[type(p)]
        assert not validations

    def rich(p, d=dims, sys=hidden):
        return excite(sys, design_minimum_input(p, d))

    def twisted(p, d=dims, sys=hidden):
        """A rich plan other than the design: the design's columns recombined."""
        plan = design_minimum_input(p, d)
        t = rand_invertible(rng, plan.k)
        return excite(sys, InputSection(plan.x_minus @ t, plan.u_minus @ t))

    # the public identifiers build their own problem: on the designed plan the
    # design's Q is reused, on any other rich plan one read decides, and Q is
    # solved only when read
    assert eliminations(identify_sparsity, rich(sparsity), sparsity) == 0
    assert eliminations(identify_sparsity, twisted(sparsity), sparsity) == 1
    for p in (sparsity, *structures):
        problem = Problem.of(p, dims, design=True)
        assert eliminations(identify_property, twisted(p), problem) == 1
    for p in structures:
        for data in (rich(p), twisted(p)):
            assert eliminations(identify_linear_structure, data, p) == 1 + eliminations(validate_property, p, dims)
    assert eliminations(identify_stabilizability, rich(Stabilizability())) == 1
    assert eliminations(identify_stabilizability, twisted(Stabilizability())) == 2
    own_test = eliminations(is_controllable, hidden)
    assert eliminations(identify_controllability, rich(Controllability())) == own_test
    assert eliminations(identify_controllability, twisted(Controllability())) == 1 + own_test
    assert eliminations(identify_controllability, rich(Controllability(), scalar_dims, scalar)) == 0
    # one read of an explicit scalar plan decides richness, consistency and the B
    # that every consistent model shares
    assert eliminations(identify_controllability, twisted(Controllability(), scalar_dims, scalar)) == 1

    cases = [(design_minimum_input(p, dims), p) for p in [sparsity, *structures, Stabilizability(), Controllability()]]
    cases.append((TWO_COLUMN_PLAN, Stabilizability()))  # not rich
    for section, p in cases:
        assert eliminations(is_sufficiently_rich, section, p) == 1 + eliminations(validate_property, p, section.dims)
        assert eliminations(missing_directions, section, p) == 1 + eliminations(validate_property, p, section.dims)


def test_product_budget(products):
    """A system on a plan is one product, [A, B] [X-; U-], and a product by the
    identity costs nothing.  A designed whole-space run has S = I and Q = I, so
    it makes no product; a designed zero pattern's plan is unit columns and its
    Q is I, so it makes the one product of its excitation, and so does a designed
    structure, whose Q is not I."""
    rng = random.Random(67)
    dims = Dims(3, 2)
    hidden = rand_system(rng, dims.n, dims.m)
    for p in (Identifiability(), Stabilizability()):
        assert products(run, Scenario(dims, hidden, p)) == 0
    sparsity = Sparsity(frozenset({(1, 2), (3, 3)}), frozenset({(2, 1)}))
    assert products(run, Scenario(dims, hidden, sparsity)) == 1
    # a structure's values are traces read from two factors, never their product:
    # X+ and the design's Q in a designed run, [A, B] and the target in the oracle
    for count in (2, 3):
        rows = rand_independent_rows(rng, count, dims.n * dims.total)
        structure = LinearStructure.intersection([LinearConstraint(r, BoundedSet.singleton(0)) for r in rows])
        assert products(run, Scenario(dims, hidden, structure)) == 1
        assert products(Problem.of(structure, dims).holds, hidden) == 0

    # a plan of four columns in R^5 and a partner moved along its left kernel
    section = InputSection(rand_mat(rng, dims.n, 4), rand_mat(rng, dims.m, 4))
    h = kernel(section.stacked().T).col(0)
    partner = SystemPair.from_ab(hidden.ab() + Mat.column([1, 0, 0]) @ h.T)
    data = excite(hidden, section)
    assert products(excite, hidden, section) == 1
    assert products(consistent_set_contains, data, partner) == 1
    # the pair's shared feedback, then the partner's consistency check; the
    # oracle here makes no product, so the count is the data equation's alone
    holds = lambda sys: sys is hidden  # noqa: E731
    assert products(_verified_pair, section, hidden, partner, holds) == 2
    # the controllability pair is built in the plan's own state coordinates: where the
    # annihilator e1 weighs the first state but not the second, only the data check's
    # two products remain
    section = InputSection(parse_matrix("0, 0; 1, 0"), parse_matrix("0, 1"))
    span, problem = read_span(section.stacked()), Problem.of(Controllability(), section.dims)
    assert products(counterexample_controllability, section, problem, 0, span, target_gaps(span, problem)) == 2
    # a deficient zero pattern's run: its excitation, then its pair's shared feedback and
    # consistency check; the residual of its missed column is formed on the integers of
    # the plan's read, with no product
    section = deficient_section(random.Random(61), dims, minimum_subspace(sparsity, dims).basis, 4)
    assert products(run, Scenario(dims, hidden, sparsity, section)) == 3


def test_replay_budget(monkeypatch):
    """The data columns beside a plan follow its elimination only when first read.  A
    deficient run of a property other than identifiability reads the plan alone, so it
    replays no data column; a deficient identifiability run replays them once, for the
    consistency and the pair of models, and so does the one read of a rich explicit plan.
    The Gram and signed solves of the certificates replay their own right-hand sides."""
    def primitive(rows) -> tuple:  # the row count, then the cells over their gcd: equal for positive multiples
        cells = [x for row in rows for x in row]
        g = math.gcd(*cells) or 1
        return (len(rows), *(x // g for x in cells))

    replays, real = [], ratmat._replay
    monkeypatch.setattr(ratmat, "_replay", lambda *args: replays.append(primitive(args[1])) or real(*args))

    def of_data(x_plus: Mat) -> int:  # the replays of X+'s columns, each a row beside the plan's transpose
        return replays.count(primitive([x_plus._nums[j :: x_plus.cols] for j in range(x_plus.cols)]))

    rng, dims = random.Random(73), Dims(3, 2)
    hidden = rand_system(rng, dims.n, dims.m)
    props = [
        Sparsity(frozenset({(1, 2), (3, 3)}), frozenset({(2, 1)})),
        *(rand_structure(rng, dims, mode) for mode in Mode),
        Stabilizability(),
        Controllability(),
        Identifiability(),
    ]
    for p in props:
        plan = deficient_section(rng, dims, minimum_subspace(p, dims).basis, 4)
        replays.clear()
        report = run(Scenario(dims, hidden, p, plan))
        assert report.outcome in ("not_sufficiently_rich", "not_identifiable")
        assert of_data(report.dataset.x_plus) == (report.outcome == "not_identifiable")
    for p in props:
        design = design_minimum_input(p, dims)
        t = rand_invertible(rng, design.k)
        data, problem = excite(hidden, InputSection(design.x_minus @ t, design.u_minus @ t)), Problem.of(p, dims)
        replays.clear()
        identify_property(data, problem)
        assert of_data(data.x_plus) == len(replays) == 1


def test_a_deficient_run_reads_the_gaps_of_its_plan_once(monkeypatch):
    """A deficient run of a property split finds the target columns its plan misses with
    one product of the plan's left kernel and the target (`Span.unspanned`), the target I
    of stabilizability and controllability included: the richness test, the missing
    directions and the recipe's missed columns all read it.  Model recovery decides by
    the rank of its read and makes no such product."""
    calls, real = [], Span.unspanned
    monkeypatch.setattr(Span, "unspanned", lambda span, b: calls.append(b.shape) or real(span, b))
    rng, dims = random.Random(71), Dims(3, 2)
    hidden = rand_system(rng, dims.n, dims.m)
    patterns = [Sparsity(frozenset({(1, 2), (3, 3)}), frozenset({(2, 1)})), rand_sparsity(rng, dims)]
    structures = [rand_structure(rng, dims, mode) for mode in (Mode.INTERSECTION, Mode.EXPRESSION)]
    for p in patterns + structures + [Stabilizability(), Controllability()]:
        sc = Scenario(dims, hidden, p, deficient_section(rng, dims, minimum_subspace(p, dims).basis, 4))
        calls.clear()
        report = run(sc)
        assert report.outcome == "not_sufficiently_rich" and report.missing and report.counterexample
        assert len(calls) == 1
    sc = Scenario(dims, hidden, Identifiability(), deficient_section(rng, dims, Mat.identity(dims.total), 4))
    calls.clear()
    report = run(sc)
    assert report.outcome == "not_identifiable" and report.model_pair
    assert not calls

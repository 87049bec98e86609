"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check is exact unless a tolerance is stated
inline; the stated wall-clock budgets are asserted.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from minexcite import (
    BoundedSet,
    Controllability,
    Dataset,
    Dims,
    Identifiability,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    NotIdentifiable,
    SectionIsRich,
    Sparsity,
    Stabilizability,
    Subspace,
    SystemPair,
    Verdict,
    consistent_set_contains,
    contains,
    counterexample_for,
    design_minimum_input,
    excite,
    gain_from_data,
    has_property,
    identify_linear_structure,
    identify_sparsity,
    image,
    is_sufficiently_rich,
    minimum_subspace,
    parse_matrix,
    recover_model,
)
from minexcite.properties import Leaf, Or

from conftest import (
    deficient_section,
    rand_expr,
    rand_independent_rows,
    rand_invertible,
    rand_sparsity,
    rand_system,
    reference_values,
)


def report(num: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {description}")


TWO_COLUMN_PLAN = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))


def test_criterion_1_gain_synthesis():
    started = time.perf_counter()
    stabilizing = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, -0.25; 1, 1"))
    res = gain_from_data(stabilizing)
    assert res.gain == parse_matrix("-1, -1/2")  # U- times the exact inverse of X-
    assert abs(res.radius - math.sqrt(0.75)) < 1e-9

    hopeless = Dataset(TWO_COLUMN_PLAN, parse_matrix("0.5, 0; 1, 2"))
    res2 = gain_from_data(hopeless)
    assert abs(res2.radius - 1.0) < 1e-9
    assert not res2.radius < 1.0 - 1e-9  # not stabilizing
    report(1, "closed-loop gain and spectral radii from two-excitation data", started, 1.0)


def test_criterion_2_sparsity_membership():
    started = time.perf_counter()
    prop = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
    dims = Dims(2, 1)
    section = design_minimum_input(prop, dims)
    assert section.k == 2
    assert section.stacked() == Mat.identity(3).take_cols([0, 2])

    inside = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    outside = SystemPair(parse_matrix("1, 1; 2, 1"), parse_matrix("1; 0"))
    data = excite(inside, section)
    rep = identify_sparsity(data, prop)
    assert rep.q == Mat.identity(2)
    assert rep.verdict is Verdict.HAS_PROPERTY
    assert identify_sparsity(excite(outside, section), prop).verdict is Verdict.LACKS_PROPERTY
    assert recover_model(data) == NotIdentifiable(stacked_rank=2, deficit=1)
    report(2, "pattern membership decided on data that cannot identify the model", started, 1.0)


def test_criterion_3_structure_subspaces():
    started = time.perf_counter()
    dims = Dims(2, 0)

    def lp(*hs):
        constraints = [LinearConstraint(tuple(h), BoundedSet.singleton(0)) for h in hs]
        return minimum_subspace(LinearStructure.intersection(constraints), dims)

    assert lp((1, 0, 0, 1)) == Subspace(2, Mat.identity(2))  # trace
    assert lp((1, 0, 1, 0)) == image(parse_matrix("1; 1"))  # first row sum
    assert lp((1, 1, 0, 0)) == image(parse_matrix("1; 0"))  # first column sum
    assert lp((1, 1, 1, 1)) == image(parse_matrix("1; 1"))  # grand sum
    assert lp((1, 0, 1, 0), (0, 1, 0, 1)) == image(parse_matrix("1; 1"))  # both row sums
    report(3, "minimum subspaces of five linear-structure variants", started, 1.0)


def test_criterion_4_dimension_table():
    started = time.perf_counter()
    for n, m in itertools.product(range(1, 5), range(1, 5)):
        dims = Dims(n, m)
        assert minimum_subspace(Stabilizability(), dims).dim == n + m
        expected = m if n == 1 else n + m
        assert minimum_subspace(Controllability(), dims).dim == expected

        positions = [("a", r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
        positions += [("b", r, c) for r in range(1, n + 1) for c in range(1, m + 1)]
        specs = [[p] for p in positions]
        specs += [list(pair) for pair in itertools.combinations(positions, 2)]
        for chosen in specs:
            za = frozenset((r, c) for kind, r, c in chosen if kind == "a")
            zb = frozenset((r, c) for kind, r, c in chosen if kind == "b")
            prop = Sparsity(za, zb)
            affected = {c - 1 for _, c in za} | {n + c - 1 for _, c in zb}
            assert minimum_subspace(prop, dims).dim == len(affected)
    report(4, "minimum dimensions across the catalog for 1 <= n, m <= 4", started, 5.0)


def catalog_for(dims: Dims, rng: random.Random):
    props = [Identifiability(), Stabilizability(), Controllability()]
    positions = [(r, c) for r in range(1, dims.n + 1) for c in range(1, dims.n + 1)]
    props += [Sparsity(frozenset({p}), frozenset()) for p in positions[:2]]
    props.append(rand_sparsity(rng, dims))
    width = dims.n * dims.total
    rows = rand_independent_rows(rng, min(2, width), width)
    props.append(
        LinearStructure.intersection(
            [LinearConstraint(r, BoundedSet.singleton(0)) for r in rows]
    ))
    if len(rows) == 2:
        props.append(
            LinearStructure(
                tuple(LinearConstraint(r, BoundedSet.singleton(0)) for r in rows),
                Or(Leaf(1), Leaf(2)),
                Mode.EXPRESSION,
            )
        )
    return props


def test_criterion_5_design_minimality():
    started = time.perf_counter()
    rng = random.Random(201)
    for n, m in itertools.product(range(1, 4), range(1, 4)):
        dims = Dims(n, m)
        for prop in catalog_for(dims, rng):
            section = design_minimum_input(prop, dims)
            target = minimum_subspace(prop, dims)
            assert is_sufficiently_rich(section, prop)
            stacked = section.stacked()
            for j in range(stacked.cols):
                thinned = image(stacked.drop_col(j))
                assert not contains(thinned, target), (
                    f"dropping column {j} kept richness for {prop!r} at {dims}"
                )
    report(5, "every designed plan loses richness when any column is removed", started, 10.0)


def adapted_structure(rng: random.Random, sys: SystemPair, dims: Dims, mode: Mode) -> LinearStructure:
    """Random structure whose value sets straddle the system's actual values."""
    count = rng.randint(1, 3)
    width = dims.n * dims.total
    rows = rand_independent_rows(rng, min(count, width), width)
    holders = [LinearConstraint(r, BoundedSet.singleton(0)) for r in rows]
    values = reference_values(sys, holders)
    constraints = []
    for r, v in zip(rows, values):
        if rng.random() < 0.5:
            radius = Fraction(rng.randint(0, 2), 2)
            piece = (v - radius, v + radius)  # contains the true value
        else:
            piece = (v + 1, v + 1 + Fraction(rng.randint(0, 2), 2))  # misses it
        constraints.append(LinearConstraint(r, BoundedSet.from_pairs([piece])))
    constraints = tuple(constraints)
    if mode is Mode.INTERSECTION:
        return LinearStructure.intersection(constraints)
    return LinearStructure(constraints, rand_expr(rng, len(constraints)), Mode.EXPRESSION)


def test_criterion_6_identifier_matches_oracle():
    started = time.perf_counter()
    rng = random.Random(202)
    outcomes = {True: 0, False: 0}
    for trial in range(500):
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        sys = rand_system(rng, dims.n, dims.m)
        kind = trial % 3
        if kind == 0:
            prop = rand_sparsity(rng, dims)
            if rng.random() < 0.5:
                cells = sys.a.to_lists()
                for r, c in prop.zeros_a:
                    cells[r - 1][c - 1] = Fraction(0)
                bcells = sys.b.to_lists()
                for r, c in prop.zeros_b:
                    bcells[r - 1][c - 1] = Fraction(0)
                sys = SystemPair(
                    Mat(cells), Mat(bcells) if bcells else Mat.zeros(dims.n, 0)
                )
            identifier = identify_sparsity
        else:
            mode = Mode.INTERSECTION if kind == 1 else Mode.EXPRESSION
            prop = adapted_structure(rng, sys, dims, mode)
            identifier = identify_linear_structure
        section = design_minimum_input(prop, dims)
        verdict = identifier(excite(sys, section), prop).verdict
        expected = has_property(sys, prop)
        assert verdict is Verdict.of(expected), f"mismatch on trial {trial}"
        outcomes[expected] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50  # both branches exercised
    report(6, "500 random systems: data verdict equals the membership oracle", started, 30.0)


def test_criterion_7_counterexample_soundness():
    started = time.perf_counter()
    rng = random.Random(203)
    families = ["stab", "contr", "sparsity", "intersection", "expression"]
    produced = 0
    while produced < 300:
        family = families[produced % len(families)]
        dims = Dims(rng.randint(1, 3), rng.randint(1, 3))
        if family == "stab":
            prop = Stabilizability()
        elif family == "contr":
            prop = Controllability()
        elif family == "sparsity":
            prop = rand_sparsity(rng, dims)
        else:
            mode = Mode.INTERSECTION if family == "intersection" else Mode.EXPRESSION
            sys = rand_system(rng, dims.n, dims.m)
            prop = adapted_structure(rng, sys, dims, mode)
        target = minimum_subspace(prop, dims)
        section = deficient_section(rng, dims, target.basis, rng.randint(1, dims.total))
        assert not is_sufficiently_rich(section, prop)
        pair = counterexample_for(section, prop, seed=produced)
        shared = Dataset(pair.section, pair.shared_feedback)
        assert consistent_set_contains(shared, pair.sys_with)
        assert consistent_set_contains(shared, pair.sys_without)
        assert has_property(pair.sys_with, prop)
        assert not has_property(pair.sys_without, prop)
        produced += 1

    refused = 0
    rng2 = random.Random(204)
    for _ in range(50):
        dims = Dims(rng2.randint(1, 3), rng2.randint(1, 3))
        prop = rng2.choice(
            [Stabilizability(), Controllability(), rand_sparsity(rng2, dims)]
        )
        section = design_minimum_input(prop, dims)
        with pytest.raises(SectionIsRich):
            counterexample_for(section, prop)
        refused += 1
    assert refused == 50
    report(7, "300 deficient plans certified; 50 rich plans refused", started, 60.0)


GRID = [Fraction(v, 2) for v in range(-4, 5)]


def scalar_properties():
    def stab(a, b):
        return abs(a) < 1 or b != 0

    def contr(a, b):
        return b != 0

    a_zero = Sparsity(frozenset({(1, 1)}), frozenset())
    b_zero = Sparsity(frozenset(), frozenset({(1, 1)}))
    coupled = LinearStructure.intersection(
        [LinearConstraint((1, 1), BoundedSet.singleton(0))]
    )
    either = LinearStructure(
        (
            LinearConstraint((1, 0), BoundedSet.singleton(0)),
            LinearConstraint((0, 1), BoundedSet.singleton(0)),
        ),
        Or(Leaf(1), Leaf(2)),
        Mode.EXPRESSION,
    )
    return [
        (Stabilizability(), stab),
        (Controllability(), contr),
        (a_zero, lambda a, b: a == 0),
        (b_zero, lambda a, b: b == 0),
        (coupled, lambda a, b: a + b == 0),
        (either, lambda a, b: a == 0 or b == 0),
    ]


def test_criterion_8_scalar_exhaustive():
    started = time.perf_counter()
    systems = [(a, b) for a in GRID for b in GRID]
    sections = [
        InputSection(Mat([[x]]), Mat([[u]])) for x in GRID for u in GRID
    ]
    rng = random.Random(205)
    for _ in range(15):
        x1, u1, x2, u2 = (rng.choice(GRID) for _ in range(4))
        sections.append(InputSection(Mat([[x1, x2]]), Mat([[u1, u2]])))

    props = scalar_properties()
    memberships = [
        [oracle(a, b) for (a, b) in systems] for _, oracle in props
    ]
    for section in sections:
        k = section.k
        signatures = {}
        for idx, (a, b) in enumerate(systems):
            sig = tuple(
                a * section.x_minus[0, j] + b * section.u_minus[0, j] for j in range(k)
            )
            signatures.setdefault(sig, []).append(idx)
        for (prop, _), member in zip(props, memberships):
            split_exists = any(
                any(member[i] for i in group) and any(not member[i] for i in group)
                for group in signatures.values()
            )
            assert split_exists == (not is_sufficiently_rich(section, prop)), (
                f"grid search disagrees with the subspace verdict for {prop!r} "
                f"on X={section.x_minus!r} U={section.u_minus!r}"
            )
    report(8, "scalar grid: consistent split pairs exist exactly when plans are poor", started, 30.0)


def test_criterion_9_basis_invariance():
    started = time.perf_counter()
    rng = random.Random(206)
    inside = SystemPair(parse_matrix("0, 1; 2, 1"), parse_matrix("1; 0"))
    outside = SystemPair(parse_matrix("1, 1; 2, 1"), parse_matrix("1; 0"))
    pattern = Sparsity(frozenset({(1, 1)}), frozenset({(2, 1)}))
    dims = Dims(2, 1)
    jobs = []
    for sys in (inside, outside):
        jobs.append((pattern, sys, identify_sparsity))
    structure = LinearStructure.intersection(
        [LinearConstraint((1, 0, 1, 0, 0, 0), BoundedSet.singleton(1))]
    )
    for sys in (inside, outside):
        jobs.append((structure, sys, identify_linear_structure))

    twists = 0
    while twists < 50:
        prop, sys, identifier = jobs[twists % len(jobs)]
        section = design_minimum_input(prop, dims)
        data = excite(sys, section)
        base = identifier(data, prop).verdict
        t = rand_invertible(rng, section.k)
        twisted = Dataset(
            InputSection(section.x_minus @ t, section.u_minus @ t), data.x_plus @ t
        )
        assert identifier(twisted, prop).verdict == base
        twists += 1
    report(9, "verdicts invariant under 50 invertible data basis changes", started, 10.0)

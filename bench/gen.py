"""Seeded input generators for the benchmark workloads.

The logic follows the randomized-test generators of the repository, but it
lives here so that editing the tests can never change a workload.  Every
function draws only from the `random.Random` it is given; the same seed
gives the same systems, properties and plans.
"""

from __future__ import annotations

import random
from fractions import Fraction

from minexcite import (
    BoundedSet,
    Controllability,
    Dims,
    Identifiability,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    Sparsity,
    Stabilizability,
    Subspace,
    SystemPair,
    image,
    minimum_subspace,
    rank,
    solve_right,
    split_stacked,
    vec,
    vec_inv,
)
from minexcite.properties import And, Leaf, Or

KINDS = ("sparsity", "intersection", "expression", "controllability", "stabilizability", "identifiability")

# n + m -> (n, m); two thirds of the coordinates are states
DIMS = {6: Dims(4, 2), 12: Dims(8, 4), 24: Dims(16, 8), 48: Dims(32, 16)}


def rand_fraction(rng: random.Random, span: int = 3, denominators=(1, 1, 2)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_mat(rng: random.Random, rows: int, cols: int, span: int = 3) -> Mat:
    return Mat.from_flat(rows, cols, [rand_fraction(rng, span) for _ in range(rows * cols)])


def rand_system(rng: random.Random, dims: Dims) -> SystemPair:
    return SystemPair(rand_mat(rng, dims.n, dims.n), rand_mat(rng, dims.n, dims.m))


def rand_sparsity(rng: random.Random, dims: Dims, zeros: int) -> Sparsity:
    """`zeros` distinct positions of [A, B] drawn uniformly."""
    pool = [("a", (r, c)) for r in range(1, dims.n + 1) for c in range(1, dims.n + 1)]
    pool += [("b", (r, c)) for r in range(1, dims.n + 1) for c in range(1, dims.m + 1)]
    chosen = rng.sample(pool, zeros)
    return Sparsity(
        frozenset(p for kind, p in chosen if kind == "a"),
        frozenset(p for kind, p in chosen if kind == "b"),
    )


def _plant_zeros(sys: SystemPair, p: Sparsity) -> SystemPair:
    a = [sys.a.row_list(i) for i in range(sys.n)]
    b = [sys.b.row_list(i) for i in range(sys.n)]
    for r, c in p.zeros_a:
        a[r - 1][c - 1] = Fraction(0)
    for r, c in p.zeros_b:
        b[r - 1][c - 1] = Fraction(0)
    return SystemPair(Mat(a), Mat(b))


def _plant_values(sys: SystemPair, p: LinearStructure) -> SystemPair:
    """Minimal-support shift of the system that puts the independent leading
    constraints at their midpoints; a dependent last constraint of
    `rand_structure` then lands inside its set as well."""
    dims = sys.dims
    independent = p.constraints[: rank(Mat([list(c.h) for c in p.constraints]))]
    hmat = Mat([list(c.h) for c in independent])
    theta = Mat.column(vec(sys.ab()))
    wanted = Mat.column([c.values.point_inside() for c in independent])
    shift = solve_right(hmat, wanted - hmat @ theta)
    ab = vec_inv((theta + shift).col_list(0), dims.n, dims.total)
    return SystemPair(ab.take_cols(range(dims.n)), ab.take_cols(range(dims.n, dims.total)))


def _plant_uncontrollable(sys: SystemPair, eigenvalue: Fraction) -> SystemPair:
    """Decouple the last state from the rest and from the input, with the given pole."""
    n = sys.n
    a = [sys.a.row_list(i) for i in range(n)]
    b = [sys.b.row_list(i) for i in range(n)]
    a[n - 1] = [Fraction(0)] * (n - 1) + [eigenvalue]
    b[n - 1] = [Fraction(0)] * sys.m
    return SystemPair(Mat(a), Mat(b))


def rand_hidden(rng: random.Random, kind: str, prop, dims: Dims) -> SystemPair:
    """Random system; for half of them the property is planted or broken on purpose,
    so both verdicts occur."""
    sys = rand_system(rng, dims)
    if rng.random() < 0.5:
        return sys
    if kind == "sparsity":
        return _plant_zeros(sys, prop)
    if kind in ("intersection", "expression"):
        return _plant_values(sys, prop)
    if kind == "controllability":
        return _plant_uncontrollable(sys, Fraction(1, 2))
    if kind == "stabilizability":
        return _plant_uncontrollable(sys, Fraction(2))
    return sys


def rand_bounded_set(rng: random.Random, around: Fraction = Fraction(0)) -> BoundedSet:
    lo = around - Fraction(rng.randint(0, 2), 2)
    hi = around + Fraction(rng.randint(0, 2), 2)
    pieces = [(lo, hi)]
    if rng.random() < 0.4:
        start = hi + 1
        pieces.append((start, start + Fraction(rng.randint(0, 2), 2)))
    return BoundedSet.from_pairs(pieces)


def rand_independent_rows(rng: random.Random, count: int, width: int) -> list:
    while True:
        rows = [tuple(rand_fraction(rng, 2) for _ in range(width)) for _ in range(count)]
        if rank(Mat([list(r) for r in rows])) == count and all(any(r) for r in rows):
            return rows


def rand_expr(rng: random.Random, count: int):
    """Random bracketing that references 1..count exactly once."""
    nodes = [Leaf(i) for i in range(1, count + 1)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        left, right = nodes[i], nodes.pop(i + 1)
        nodes[i] = And(left, right) if rng.random() < 0.5 else Or(left, right)
    return nodes[0]


def rand_structure(rng: random.Random, dims: Dims, mode: Mode, count: int, dependent: bool = False) -> LinearStructure:
    """`count` dense constraints on vec([A, B]), independent unless `dependent`.

    A dependent structure ends with the sum of its first two constraints,
    whose value set surrounds the sum of their midpoints, so the intersection
    is not empty and validating it runs the Fourier-Motzkin check.
    """
    rows = rand_independent_rows(rng, count - 1 if dependent else count, dims.n * dims.total)
    sets = [rand_bounded_set(rng) for _ in rows]
    if dependent:
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[1])))
        sets.append(rand_bounded_set(rng, sets[0].point_inside() + sets[1].point_inside()))
    constraints = tuple(LinearConstraint(r, values) for r, values in zip(rows, sets))
    if mode is Mode.INTERSECTION:
        return LinearStructure.intersection(constraints)
    return LinearStructure(constraints, rand_expr(rng, count), Mode.EXPRESSION)


def rand_property(rng: random.Random, kind: str, dims: Dims, count: int, dependent: bool = False):
    """Property of the given kind; `count` is the number of zeros or constraints,
    and `dependent` asks for a dependent intersection (see `rand_structure`)."""
    if kind == "sparsity":
        return rand_sparsity(rng, dims, count)
    if kind == "intersection":
        return rand_structure(rng, dims, Mode.INTERSECTION, count, dependent)
    if kind == "expression":
        return rand_structure(rng, dims, Mode.EXPRESSION, count)
    if kind == "controllability":
        return Controllability()
    if kind == "stabilizability":
        return Stabilizability()
    if kind == "identifiability":
        return Identifiability()
    raise ValueError(f"unknown property kind {kind!r}")


def deficient_section(rng: random.Random, dims: Dims, target_basis: Mat, k: int) -> InputSection:
    """Plan that misses one direction of the target.

    One basis vector is dropped and every further excitation is kept inside
    the orthogonal complement of the dropped direction's residual, so the
    plan spans everything but that direction.
    """
    drop = rng.randrange(target_basis.cols)
    keep = target_basis.drop_col(drop)
    w = target_basis.col(drop)
    h = w - Subspace(dims.total, image(keep).basis).project(w) if keep.cols else w
    hh = (h.T @ h)[0, 0]
    cols = [[keep[i, j] for i in range(dims.total)] for j in range(keep.cols)]
    while len(cols) < k:
        v = Mat.from_flat(dims.total, 1, [rand_fraction(rng, 2, (1,)) for _ in range(dims.total)])
        proj = v - ((h.T @ v)[0, 0] / hh) * h
        cols.append([proj[i, 0] for i in range(dims.total)])
    stacked = Mat([[cols[j][i] for j in range(len(cols))] for i in range(dims.total)])
    return split_stacked(stacked, dims)


def deficient_plan(rng: random.Random, prop, dims: Dims) -> InputSection:
    """Deficient plan with as many excitations as the minimum subspace has directions."""
    target = minimum_subspace(prop, dims).basis
    return deficient_section(rng, dims, target, target.cols)

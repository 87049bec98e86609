"""Shared generators for randomized tests, everything seeded, and elimination and product counters."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from minexcite import (
    BoundedSet,
    Dims,
    InputSection,
    LinearConstraint,
    LinearStructure,
    Mat,
    Mode,
    Problem,
    Sparsity,
    SystemPair,
    rank,
)
from minexcite import ratmat
from minexcite.properties import And, Leaf, Or

# HYPOTHESIS_PROFILE=ci runs the same examples on every run and prints the blob of a
# failing one, so a CI failure replays locally with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
# HYPOTHESIS_PROFILE=thorough draws fresh examples on every run, and more of them in the tests
# that ask for max(their own count, the profile's)
settings.register_profile("thorough", max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rand_fraction(rng: random.Random, span: int = 3, denominators=(1, 1, 2)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_mat(rng: random.Random, rows: int, cols: int, span: int = 3) -> Mat:
    return Mat.from_flat(rows, cols, [rand_fraction(rng, span) for _ in range(rows * cols)])


def rand_system(rng: random.Random, n: int, m: int, span: int = 3) -> SystemPair:
    return SystemPair(rand_mat(rng, n, n, span), rand_mat(rng, n, m, span))


def rand_invertible(rng: random.Random, k: int) -> Mat:
    while True:
        m = rand_mat(rng, k, k, span=2)
        if rank(m) == k:
            return m


def rand_sparsity(rng: random.Random, dims: Dims) -> Sparsity:
    positions_a = [(r, c) for r in range(1, dims.n + 1) for c in range(1, dims.n + 1)]
    positions_b = [(r, c) for r in range(1, dims.n + 1) for c in range(1, dims.m + 1)]
    pool = [("a", p) for p in positions_a] + [("b", p) for p in positions_b]
    chosen = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    zeros_a = frozenset(p for kind, p in chosen if kind == "a")
    zeros_b = frozenset(p for kind, p in chosen if kind == "b")
    if not zeros_a and not zeros_b:
        zeros_a = frozenset([positions_a[0]])
    return Sparsity(zeros_a, zeros_b)


def rand_bounded_set(rng: random.Random, around: Fraction = Fraction(0)) -> BoundedSet:
    pieces = []
    lo = around - Fraction(rng.randint(0, 2), 2)
    hi = around + Fraction(rng.randint(0, 2), 2)
    pieces.append((lo, hi))
    if rng.random() < 0.4:
        start = hi + 1
        pieces.append((start, start + Fraction(rng.randint(0, 2), 2)))
    return BoundedSet.from_pairs(pieces)


def rand_independent_rows(rng: random.Random, count: int, width: int) -> list:
    while True:
        rows = [tuple(rand_fraction(rng, 2) for _ in range(width)) for _ in range(count)]
        m = Mat([list(r) for r in rows])
        if rank(m) == count and all(any(v != 0 for v in r) for r in rows):
            return rows


def rand_expr(rng: random.Random, count: int):
    """Random tree that references 1..count exactly once."""
    nodes = [Leaf(i) for i in range(1, count + 1)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        left, right = nodes[i], nodes.pop(i + 1)
        nodes[i] = And(left, right) if rng.random() < 0.5 else Or(left, right)
    return nodes[0]


def rand_structure(rng: random.Random, dims: Dims, mode: Mode) -> LinearStructure:
    count = rng.randint(1, 3)
    width = dims.n * dims.total
    rows = rand_independent_rows(rng, min(count, width), width)
    constraints = tuple(LinearConstraint(r, rand_bounded_set(rng)) for r in rows)
    if mode is Mode.INTERSECTION:
        return LinearStructure.intersection(constraints)
    expr = rand_expr(rng, len(constraints))
    return LinearStructure(constraints, expr, Mode.EXPRESSION)


def singleton_structure(problem: Problem) -> Problem:
    """A zero pattern's problem as its equivalent structure's: one {0}
    singleton per zero position, in `Sparsity.positions` order."""
    n, total = problem.dims.n, problem.dims.total
    constraints = []
    for r, c in problem.prop.positions(n):
        h = [Fraction(0)] * (n * total)
        h[(c - 1) * n + (r - 1)] = Fraction(1)
        constraints.append(LinearConstraint(tuple(h), BoundedSet.singleton(0)))
    structure = LinearStructure.intersection(constraints)
    return Problem(structure, problem.dims, structure._target(problem.dims))


def reference_values(sys: SystemPair, constraints) -> list:
    """The constraint values h_i . vec([A, B]) in Fraction arithmetic, straight from
    the definition: entry k of vec([A, B]) is cell (k mod n, k div n)."""
    ab, n = sys.ab(), sys.n
    return [sum((h * ab[k % n, k // n] for k, h in enumerate(c.h)), Fraction(0)) for c in constraints]


def deficient_section(rng: random.Random, dims: Dims, target_basis: Mat, k: int) -> InputSection:
    """Plan that misses one direction of the target: drop a basis vector and
    keep every excitation inside its orthogonal complement."""
    from minexcite import Subspace, image, split_stacked

    drop = rng.randrange(target_basis.cols)
    keep = target_basis.drop_col(drop)
    w = target_basis.col(drop)
    if keep.cols:
        h = w - Subspace(dims.total, image(keep).basis).project(w)
    else:
        h = w
    hh = (h.T @ h)[0, 0]
    cols = [[keep[i, j] for i in range(dims.total)] for j in range(keep.cols)]
    while len(cols) < k:
        v = Mat.from_flat(dims.total, 1, [rand_fraction(rng, 2, (1,)) for _ in range(dims.total)])
        dot = (h.T @ v)[0, 0]
        proj = v - (dot / hh) * h
        cols.append([proj[i, 0] for i in range(dims.total)])
    stacked = Mat([[cols[j][i] for j in range(len(cols))] for i in range(dims.total)])
    return split_stacked(stacked, dims)


@pytest.fixture
def eliminations(monkeypatch):
    """`eliminations(f, *args)` calls f and returns how many eliminations it ran:
    calls of `ratmat._rref`, and of the Krylov staircase `ratmat._staircase`,
    one elimination per call."""
    calls = []
    for name in ("_rref", "_staircase"):
        real = getattr(ratmat, name)

        def counting(*args, real=real):
            calls.append(real)
            return real(*args)

        monkeypatch.setattr(ratmat, name, counting)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    return count


@pytest.fixture
def products(monkeypatch):
    """`products(f, *args)` calls f and returns how many `Mat @` calls reached the
    multiply loop.  A product by the identity returns its left operand itself,
    while the loop always builds a new matrix, so the first is not counted."""
    calls = []
    real = Mat.__matmul__

    def counting(left, right):
        out = real(left, right)
        if out is not left:
            calls.append(out.shape)
        return out

    monkeypatch.setattr(Mat, "__matmul__", counting)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    return count

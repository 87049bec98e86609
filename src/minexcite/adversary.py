"""Certifying counterexamples for deficient excitation plans.

When a plan is not sufficiently rich for a property, two systems exist
that reproduce the exact same feedback data while exactly one has the
property; no amount of cleverness on such data can settle the question.
This module constructs such pairs explicitly, one recipe per property
family, and validates every pair against the exact membership oracle
before returning it; the property table in `identify` picks the recipe.
Each recipe reads the plan's `Span` (`ratmat.read_span`) that the
identifier made when it found the plan deficient: its left kernel gives
the annihilated directions, its basis the projection of a structure's
missed column, and, for a pair of models, its transposed solve the
consistent model.  Called without it, a recipe makes that one read itself.
The pairs are built on the integers of those matrices and of the problem's
target, and each is checked once, with the oracle of the property asked.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .errors import InconsistentDataset, InternalFault, SectionIsRich
from .properties import (
    Controllability,
    Leaf,
    LinearStructure,
    Mode,
    Or,
    Problem,
    SetExpr,
    Sparsity,
    SystemPair,
    as_structure_problem,
    expr_leaves,
    flat_chain_ops,
    is_stabilizable,
)
from .ratmat import Mat, Span, Subspace, read_span, solve_right
from .richness import Dataset, InputSection, consistent_set_contains


@dataclass(frozen=True)
class CounterexamplePair:
    """Two systems sharing one dataset, exactly one with the property."""

    sys_with: SystemPair
    sys_without: SystemPair
    section: InputSection
    shared_feedback: Mat


def find_annihilator(section: InputSection, span: Optional[Span] = None) -> Optional[Mat]:
    """First kernel direction of the transposed plan, an (n+m) x 1 column
    orthogonal to every excitation, or None when the plan has full rank.
    `span` is the caller's read of the plan, if it has made one."""
    null = (span or read_span(section.stacked())).kernel
    return null.col(0) if null.cols else None


def _verified_pair(
    section: InputSection, sys_with: SystemPair, sys_without: SystemPair, holds: Callable[[SystemPair], bool]
) -> CounterexamplePair:
    """The pair sharing the feedback `sys_with` gives on `section`, checked with
    `holds`, the exact oracle of a property validated by the recipe's caller."""
    feedback = sys_with.a @ section.x_minus + sys_with.b @ section.u_minus
    if not consistent_set_contains(Dataset(section, feedback), sys_without):
        raise InternalFault("constructed system without the property is inconsistent")
    if not holds(sys_with):
        raise InternalFault("constructed system fails to have the property")
    if holds(sys_without):
        raise InternalFault("constructed partner unexpectedly has the property")
    return CounterexamplePair(sys_with, sys_without, section, feedback)


def _single_row(n: int, cols: int, row: int, nums: Sequence[int], den: int = 1) -> Mat:
    """The n x cols matrix whose row `row` is nums / den, for a nonzero int den, and whose other rows are 0."""
    cells = [0] * (n * cols)
    cells[row * cols : (row + 1) * cols] = nums if den > 0 else [-x for x in nums]
    return Mat._make(n, cols, cells, abs(den))


def _unit(n: int, i: int) -> list:
    return [int(j == i) for j in range(n)]


def counterexample_stabilizability(section: InputSection, span: Optional[Span] = None) -> CounterexamplePair:
    """Stabilizable system and a consistent partner with an uncontrollable
    eigenvalue at 1, built along an annihilated direction.  Every row is read
    off the integers of the annihilator h over its denominator d.

    Raises SectionIsRich when the plan is persistently exciting.
    """
    ann = find_annihilator(section, span)
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; stabilizability is decidable")
    n, m = section.n, section.m
    hs, hu = ann._nums[:n], ann._nums[n:]
    if not any(hs):
        # all annihilated weight sits on the input block
        a_with = a_without = _single_row(n, n, 0, _unit(n, 0))
        b_with = _single_row(n, m, 0, hu, ann._den)
    else:
        # row l of [A, B] is e_l - h / h_l, which h annihilates against the partner's e_l
        l = next(i for i, v in enumerate(hs) if v)
        a_with = _single_row(n, n, l, [0 if i == l else -v for i, v in enumerate(hs)], hs[l])
        b_with = _single_row(n, m, l, [-v for v in hu], hs[l])
        a_without = _single_row(n, n, l, _unit(n, l))
    sys_with, sys_without = SystemPair(a_with, b_with), SystemPair(a_without, Mat.zeros(n, m))
    return _verified_pair(section, sys_with, sys_without, is_stabilizable)


def counterexample_controllability(
    section: InputSection, problem: Optional[Problem] = None, span: Optional[Span] = None
) -> CounterexamplePair:
    """Controllable system and a consistent uncontrollable partner.

    For a scalar state the pair is built from any annihilated direction
    with a nonzero input block against the zero system; otherwise a
    diagonal skeleton carries the annihilated direction in its first row
    and the partner simply drops that row's contribution.
    """
    holds = (problem or Problem.of(Controllability(), section.dims)).holds
    n, m = section.n, section.m
    if n == 1:
        null = (span or read_span(section.stacked())).kernel
        h = next((c for c in map(null.col, range(null.cols)) if any(c._nums[1:])), None)
        if h is None:
            raise SectionIsRich("the plan already pins down the input-to-state map")
        sys_with = SystemPair.from_ab(h.T)
        return _verified_pair(section, sys_with, SystemPair(Mat.zeros(1, 1), Mat.zeros(1, m)), holds)

    ann = find_annihilator(section, span)
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; controllability is decidable")
    den, hs, hu = ann._den, list(ann._nums[:n]), list(ann._nums[n:])

    # arrange a nonzero second state coordinate by a symmetric swap
    perm = Mat.identity(n)
    if any(hs) and hs[1] == 0:
        first = next(i for i, v in enumerate(hs) if v)
        order = list(range(n))
        order[1], order[first], hs[1], hs[first] = first, 1, hs[first], hs[1]
        perm = perm.take_cols(order)

    # the first row of [A, B] on the diagonal skeleton is h, or h / h_1 when h_1 is nonzero
    if not any(hs):
        diag, first = range(1, n + 1), [0] * n + hu
    elif hs[0] == 0:
        diag, first = [1, *range(1, n)], hs + hu
    else:
        diag, first, den = range(1, n + 1), hs + hu, hs[0]

    base_a = Mat._make(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])
    b_without = Mat._make(n, m, [0] * m + [1] * (m * (n - 1)))
    a_with = base_a + _single_row(n, n, 0, first[:n], den)
    b_with = b_without + _single_row(n, m, 0, first[n:], den)

    # undo the coordinate swap
    a_with = perm.T @ a_with @ perm
    b_with = perm.T @ b_with
    a_without = perm.T @ base_a @ perm
    b_without = perm.T @ b_without
    return _verified_pair(section, SystemPair(a_with, b_with), SystemPair(a_without, b_without), holds)


# -- sign selection for combined structures ---------------------------------

KEEP = "keep"
COMPLEMENT = "complement"


def algorithm1_signs(p: LinearStructure, c1: frozenset) -> tuple:
    """Signs for an unbracketed chain, scanned from the last constraint down.

    Returns one of KEEP or COMPLEMENT per constraint; kept constraints pin
    the reference system inside their value set, complemented ones outside.
    """
    ops = flat_chain_ops(p.expr)
    if ops is None:
        raise ValueError("the expression is not an unbracketed left-to-right chain")
    count = len(p.constraints)
    if not c1:
        raise InternalFault("the touched-constraint set cannot be empty")
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


def algorithm2_signs(expr: SetExpr, c1: frozenset) -> tuple:
    """Signs for an arbitrarily bracketed expression.

    Descends from the last-executed operator toward a touched constraint,
    fixing the discarded side at each step: complemented under a union,
    kept under an intersection.
    """
    if not c1:
        raise InternalFault("the touched-constraint set cannot be empty")
    total = len(expr_leaves(expr))
    signs = {}

    def assign_side(node: SetExpr, sign: str) -> None:
        for idx in expr_leaves(node):
            signs[idx] = sign

    node = expr
    while True:
        if isinstance(node, Leaf):
            if node.index not in c1:
                raise InternalFault("descent ended on an untouched constraint")
            signs[node.index] = KEEP
            break
        discard_sign = COMPLEMENT if isinstance(node, Or) else KEEP
        left_leaf_c1 = isinstance(node.left, Leaf) and node.left.index in c1
        right_leaf_c1 = isinstance(node.right, Leaf) and node.right.index in c1
        if left_leaf_c1 or right_leaf_c1:
            taken, other = (node.left, node.right) if left_leaf_c1 else (node.right, node.left)
            signs[taken.index] = KEEP
            assign_side(other, discard_sign)
            break
        left_has = any(i in c1 for i in expr_leaves(node.left))
        taken, other = (node.left, node.right) if left_has else (node.right, node.left)
        assign_side(other, discard_sign)
        node = taken
    return tuple(signs[i] for i in range(1, total + 1))


def counterexample_sparsity(
    section: InputSection, p: Sparsity, seed: int = 0, problem: Optional[Problem] = None, span: Optional[Span] = None
) -> CounterexamplePair:
    """Property-split pair for a zero pattern, built on its equivalent
    structure and checked with the zero-pattern oracle."""
    problem = problem or Problem.of(p, section.dims)
    structure = as_structure_problem(problem)
    return _verified_pair(section, *_structure_systems(section, structure, seed, span), problem.holds)


def counterexample_structure(
    section: InputSection,
    p: LinearStructure,
    seed: int = 0,
    problem: Optional[Problem] = None,
    span: Optional[Span] = None,
) -> CounterexamplePair:
    """Property-split pair for a combined linear structure (see `_structure_systems`)."""
    problem = problem or Problem.of(p, section.dims)
    return _verified_pair(section, *_structure_systems(section, problem, seed, span), problem.holds)


def _structure_systems(
    section: InputSection, problem: Problem, seed: int, span: Optional[Span]
) -> Tuple[SystemPair, SystemPair]:
    """The unchecked systems with and without the structure `problem.prop`.

    Picks a constraint-matrix column the plan misses, strips its component
    inside the plan's span to get a direction invisible to the data, seats
    a reference system according to the sign selection, and perturbs it
    along the invisible direction far enough to break every touched
    constraint.  The perturbation scale for bracketed combinations uses a
    seeded generator so results are replayable.  The missed columns and the
    span's basis come from `span`, the caller's read of the plan, or from
    one read here; the constraint rows and the reference system are read
    off the integers of the target and of the signed solve.
    """
    p, dims, m_mat = problem.prop, problem.dims, problem.target
    n, total, count = dims.n, dims.total, len(p.constraints)
    span = span or read_span(section.stacked())
    missed = span.unspanned(m_mat)
    if not missed:
        raise SectionIsRich("the plan spans the constraint directions; the structure is decidable")
    col_idx = missed[0]
    l, j = col_idx // n, col_idx % n
    w = m_mat.col(col_idx)
    h = w - Subspace._of_independent(span.basis).project(w)
    if h.is_zero():
        raise InternalFault("a missed column must leave a nonzero residual")

    # entry i*n + r of h^T M is row r of vec_inv(h_i) @ h, M's block i being vec_inv(h_i)^T
    touched = (h.T @ m_mat).row_list(0)
    c1 = frozenset(i + 1 for i in range(count) if any(touched[i * n : (i + 1) * n]))
    if (l + 1) not in c1:
        raise InternalFault("the missed column's constraint must be touched")

    signs = algorithm1_signs(p, c1) if flat_chain_ops(p.expr) is not None else algorithm2_signs(p.expr, c1)

    targets = [
        c.values.point_inside() if s == KEEP else c.values.point_outside()
        for c, s in zip(p.constraints, signs)
    ]
    # h_i is row r of M's block i for r = 1..n+m in turn, and theta is vec([A, B])
    rows = m_mat._int_rows()
    h_nums = [x for i in range(count) for row in rows for x in row[i * n : (i + 1) * n]]
    hmat = Mat._make(count, n * total, h_nums, m_mat._den)
    theta = solve_right(hmat, Mat.column(targets))
    if theta is None and problem.point:
        # dependent constraints whose midpoints disagree; every sign keeps, so
        # the point of the intersection that validation found serves
        targets = problem.point
        theta = solve_right(hmat, Mat.column(targets))
    if theta is None:
        raise InternalFault("no system realizes the signed constraint targets")
    ab0 = Mat._make(n, total, [theta._nums[c * n + r] for r in range(n) for c in range(total)], theta._den)

    if p.mode is Mode.INTERSECTION:
        scalar = (p.constraints[l].values.point_outside() - targets[l]) / touched[col_idx]
        perturbation = _single_row(n, total, j, h._nums, h._den) * scalar
    else:
        rng = random.Random(seed)
        while True:  # a nonzero g with g . (vec_inv(h_i) @ h) nonzero for every touched i
            g = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            dots = [(i - 1, sum(map(operator.mul, g, touched[(i - 1) * n : i * n]))) for i in sorted(c1)]
            if any(g) and all(dot for _, dot in dots):
                break
        needed = [(p.constraints[i].values.magnitude_bound() + abs(targets[i]) + 1) / abs(dot) for i, dot in dots]
        alpha = max([Fraction(1)] + [1 + v for v in needed])
        perturbation = Mat.column([alpha * v for v in g]) @ h.T

    return SystemPair.from_ab(ab0), SystemPair.from_ab(ab0 + perturbation)


def distinct_consistent_pair(d: Dataset, span: Optional[Span] = None) -> Tuple[SystemPair, SystemPair]:
    """Two different systems reproducing a rank-deficient dataset exactly.

    This certifies that the model cannot be identified from the data; it
    carries no property split.  One read of the plan beside X+ gives both:
    the consistent model whose free directions are 0 (the transposed solve)
    and a second one shifted along the first annihilator.  `span` is that
    read when model recovery has already made it.
    """
    span = span or read_span(d.section.stacked(), d.x_plus)
    ann = find_annihilator(d.section, span)
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; the model is unique")
    if span.solution is None:
        raise InconsistentDataset("no linear system reproduces this dataset")
    base = SystemPair.from_ab(span.solution.T)
    shift = _single_row(d.section.n, d.section.dims.total, 0, ann._nums, ann._den)
    other = SystemPair.from_ab(base.ab() + shift)
    for sys in (base, other):
        if not consistent_set_contains(d, sys):
            raise InternalFault("constructed consistent system fails to reproduce the data")
    if base == other:
        raise InternalFault("the two consistent systems must differ")
    return base, other

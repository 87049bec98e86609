"""Certifying counterexamples for deficient excitation plans.

When a plan is not sufficiently rich for a property, two systems exist
that reproduce the exact same feedback data while exactly one has the
property; no amount of cleverness on such data can settle the question.
This module constructs such pairs explicitly, one recipe per property
family, and validates every pair against the exact membership oracle
before returning it.  Every recipe takes (section, problem, seed, span,
gaps), and the property table in `identify` holds them as they are.  The
table hands each recipe the plan's read (`ratmat.read_span`) and the list of
target columns it misses (`richness.target_gaps`): those the identifier
found when it found the plan deficient, or those of one read made for the
recipe.  Its first kernel column (`Span.annihilator`) gives the annihilated
direction; the integer columns of its left kernel or its basis (the fewer)
give the residual of a missed column of the target, one Gram solve and no
matrix product; and, for a pair of models, its transposed solve (`Span.model`)
gives the consistent model, and the second model is that one with the
annihilator's integers added to its row 0.  A zero
pattern's pair is the zero system and one row along that residual; a
controllability pair is a diagonal skeleton read in the plan's own state
coordinates, with the annihilator in one row; a structure's seats its
reference system by a signed solve, its signs chosen by reading each node's
operator.  The pairs are built on the integers of those matrices and of the
problem's target, and each is checked once, with the oracle of the validated
problem.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .errors import InternalFault, SectionIsRich
from .properties import (
    Leaf,
    Mode,
    Problem,
    SetExpr,
    SystemPair,
    expr_leaves,
    flat_chain_ops,
    sparsity_columns,
)
from .ratmat import Mat, Span, read_span, solve_right
from .richness import Dataset, InputSection, consistent_set_contains, feedback


@dataclass(frozen=True)
class CounterexamplePair:
    """Two systems sharing one dataset, exactly one with the property."""

    sys_with: SystemPair
    sys_without: SystemPair
    section: InputSection
    shared_feedback: Mat


def _verified_pair(
    section: InputSection, sys_with: SystemPair, sys_without: SystemPair, holds: Callable[[SystemPair], bool]
) -> CounterexamplePair:
    """The pair sharing the feedback `sys_with` gives on `section`, checked with
    `holds`, the exact oracle of a property validated by the recipe's caller."""
    shared = feedback(sys_with, section)
    if not consistent_set_contains(Dataset(section, shared), sys_without):
        raise InternalFault("constructed system without the property is inconsistent")
    if not holds(sys_with):
        raise InternalFault("constructed system fails to have the property")
    if holds(sys_without):
        raise InternalFault("constructed partner unexpectedly has the property")
    return CounterexamplePair(sys_with, sys_without, section, shared)


def _single_row(n: int, cols: int, row: int, nums: Sequence[int], den: int = 1) -> Mat:
    """The n x cols matrix whose row `row` is nums / den, for a nonzero int den, and whose other rows are 0."""
    cells = [0] * (n * cols)
    cells[row * cols : (row + 1) * cols] = nums if den > 0 else [-x for x in nums]
    return Mat._make(n, cols, cells, abs(den))


def counterexample_stabilizability(
    section: InputSection, problem: Problem, seed: int, span: Span, gaps: list
) -> CounterexamplePair:
    """Stabilizable system and a consistent partner with an uncontrollable
    eigenvalue at 1, built along an annihilated direction.  Every row of [A, B]
    is read off the integers of the annihilator h over its denominator.

    Raises SectionIsRich when the plan is persistently exciting.
    """
    ann = span.annihilator
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; stabilizability is decidable")
    n, total, nums = section.n, section.dims.total, ann._nums
    # row l of [A, B] is e_l - h / h_l, which h annihilates against the partner's e_l, for
    # the first state l that h weighs; when it weighs none, row 0 is e_0 + h
    l, d = next(((i, -v) for i, v in enumerate(nums[:n]) if v), (0, ann._den))
    ab_with = _single_row(n, total, l, [d * (i == l) + v for i, v in enumerate(nums)], d)
    ab_without = _single_row(n, total, l, [int(j == l) for j in range(total)])
    return _verified_pair(section, SystemPair.from_ab(ab_with), SystemPair.from_ab(ab_without), problem.holds)


def counterexample_controllability(
    section: InputSection, problem: Problem, seed: int, span: Span, gaps: list
) -> CounterexamplePair:
    """Controllable system and a consistent uncontrollable partner.

    For a scalar state the pair is built from any annihilated direction
    with a nonzero input block against the zero system; otherwise a
    diagonal skeleton carries the annihilated direction in one row and the
    partner simply drops that row's contribution.
    """
    n, total = section.n, section.dims.total
    if n == 1:
        null = span.kernel
        h = next((c for c in map(null.col, range(null.cols)) if any(c._nums[1:])), None)
        if h is None:
            raise SectionIsRich("the plan already pins down the input-to-state map")
        return _verified_pair(section, SystemPair.from_ab(h.T), SystemPair.from_ab(Mat.zeros(1, total)), problem.holds)

    ann = span.annihilator
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; controllability is decidable")
    den, hs = ann._den, ann._nums[:n]

    # the skeleton reads the states in `order`, where h weighs state order[1] unless it
    # weighs no state: the first weighted state trades places with state 1
    order = list(range(n))
    if any(hs) and hs[1] == 0:
        first = next(i for i, v in enumerate(hs) if v)
        order[1], order[first] = first, 1
    r = order[0]

    # row r of [A, B] on the diagonal skeleton is h, or h / h_r when h_r is nonzero
    diag = [1, *range(1, n)] if any(hs) and hs[r] == 0 else range(1, n + 1)
    den = hs[r] or den
    cells = [diag[order[i]] if i == j else int(j >= n and i != r) for i in range(n) for j in range(total)]
    ab_without = Mat._make(n, total, cells)
    ab_with = ab_without + _single_row(n, total, r, ann._nums, den)
    return _verified_pair(section, SystemPair.from_ab(ab_with), SystemPair.from_ab(ab_without), problem.holds)


# -- sign selection for combined structures ---------------------------------

KEEP = "keep"
COMPLEMENT = "complement"


def algorithm2_signs(expr: SetExpr, c1: frozenset) -> tuple:
    """Signs for any bracketing of the constraints, unbracketed chains among them.

    Descends from the last-executed operator toward a touched constraint,
    fixing the discarded side at each step: complemented under a union,
    kept under an intersection.  A child that is a touched leaf is taken, else
    the side that holds a touched constraint.  When both children are touched
    leaves, which on a chain happens only at its bottom node `1 op 2`, a chain
    takes the right one and any other bracketing the left: on a chain this is
    Algorithm 1, which scans from the last constraint down and so stops at 2.

    Returns one of KEEP or COMPLEMENT per constraint; kept constraints pin
    the reference system inside their value set, complemented ones outside.
    Raises InternalFault when the descent ends on an untouched constraint, as
    it does when `c1` is empty.
    """
    tie = -1 if flat_chain_ops(expr) is not None else 0
    node, signs = expr, {}
    while not isinstance(node, Leaf):
        sides = [(node.left, node.right), (node.right, node.left)]
        leaves = [side for side in sides if isinstance(side[0], Leaf) and side[0].index in c1]
        if leaves:
            taken, other = leaves[tie]
        else:
            taken, other = sides[0] if any(i in c1 for i in expr_leaves(node.left)) else sides[1]
        for idx in expr_leaves(other):
            signs[idx] = COMPLEMENT if node.op == "|" else KEEP
        node = taken
    if node.index not in c1:
        raise InternalFault("descent ended on an untouched constraint")
    signs[node.index] = KEEP
    return tuple(signs[i] for i in range(1, len(signs) + 1))


def counterexample_sparsity(
    section: InputSection, problem: Problem, seed: int, span: Span, gaps: list
) -> CounterexamplePair:
    """Property-split pair for a zero pattern: the zero system, and the partner whose row r
    is h / h_c for the first zero (r, c), in `Sparsity.positions` order, whose e_c the plan
    misses (by `gaps`), with h the residual of e_c, which the data cannot see."""
    n, total = problem.dims.n, problem.dims.total
    columns = sparsity_columns(problem.prop, problem.dims)
    missed = {columns[i]: i for i in gaps}
    zero = next(((r - 1, c - 1) for r, c in problem.prop.positions(n) if c - 1 in missed), None)
    if zero is None:
        raise SectionIsRich("the plan spans the constraint directions; the structure is decidable")
    row, col = zero
    h = _residual(span, problem.target.col(missed[col]))
    partner = SystemPair.from_ab(_single_row(n, total, row, h._nums, h._nums[col]))
    return _verified_pair(section, SystemPair.from_ab(Mat.zeros(n, total)), partner, problem.holds)


def _residual(span: Span, w: Mat) -> Mat:
    """The residual of the column w off the plan's span, nonzero for a column the
    plan misses: w minus its projection onto the span's basis when 2 rank <= n+m,
    else its projection onto the left kernel, so the Gram solve is the smaller.
    The projection C (C^T C)^-1 C^T w, the same for any scaling of C's columns, is
    formed on the integer columns C of that basis or kernel and w's integers, with
    one solve and no matrix product."""
    on_basis = 2 * span.rank <= w.rows
    c, wn = span.basis if on_basis else span.kernel, w._nums
    cols = [c._nums[j :: c.cols] for j in range(c.cols)]
    gram = Mat._make(c.cols, c.cols, [sum(map(operator.mul, x, y)) for x in cols for y in cols])
    y = solve_right(gram, Mat._make(c.cols, 1, [sum(map(operator.mul, x, wn)) for x in cols]))
    proj = [sum(map(operator.mul, row, y._nums)) for row in zip(*cols)] or [0] * w.rows  # C y over y's denominator
    h = [x * y._den - v for x, v in zip(wn, proj)] if on_basis else proj
    if not any(h):
        raise InternalFault("a missed column must leave a nonzero residual")
    return Mat._make(w.rows, 1, h, w._den * y._den)


def counterexample_structure(
    section: InputSection, problem: Problem, seed: int, span: Span, gaps: list
) -> CounterexamplePair:
    """Property-split pair for a combined linear structure.

    Picks a constraint-matrix column the plan misses, strips its component
    inside the plan's span to get a direction invisible to the data, seats
    a reference system according to the sign selection, and perturbs it
    along the invisible direction far enough to break every touched
    constraint.  The perturbation scale for bracketed combinations uses a
    seeded generator so results are replayable.  The missed column, the first
    of `gaps`, and its residual (`_residual`) come from the read of the plan;
    the constraint rows and the reference system are read off the integers of
    the target and of the signed solve.
    """
    p, dims, m_mat = problem.prop, problem.dims, problem.target
    n, total, count = dims.n, dims.total, len(p.constraints)
    if not gaps:
        raise SectionIsRich("the plan spans the constraint directions; the structure is decidable")
    col_idx = gaps[0]
    l, j = col_idx // n, col_idx % n
    h = _residual(span, m_mat.col(col_idx))

    # entry i*n + r of h^T M is row r of vec_inv(h_i) @ h, M's block i being vec_inv(h_i)^T
    touched = (h.T @ m_mat).row_list(0)
    c1 = frozenset(i + 1 for i in range(count) if any(touched[i * n : (i + 1) * n]))
    if (l + 1) not in c1:
        raise InternalFault("the missed column's constraint must be touched")

    signs = algorithm2_signs(p.expr, c1)

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

    return _verified_pair(section, SystemPair.from_ab(ab0), SystemPair.from_ab(ab0 + perturbation), problem.holds)


def distinct_consistent_pair(d: Dataset, span: Optional[Span] = None) -> Tuple[SystemPair, SystemPair]:
    """Two different systems reproducing a rank-deficient dataset exactly.

    This certifies that the model cannot be identified from the data; it
    carries no property split.  One read of the plan beside X+ gives both:
    the consistent model whose free directions are 0 (the transposed solve)
    and a second one, its row 0 shifted along the first annihilator.  `span`
    is that read when model recovery has already made it.  Raises
    InconsistentDataset when no system reproduces the data.
    """
    span = span or read_span(d.section.stacked(), d.x_plus)
    ann = span.annihilator
    if ann is None:
        raise SectionIsRich("the plan is persistently exciting; the model is unique")
    model = span.model
    den = math.lcm(model._den, ann._den)
    cells, f = list(model._scaled_nums(den)), den // ann._den
    cells[: ann.rows] = [x + f * v for x, v in zip(cells, ann._nums)]  # row 0 moves along the annihilator
    base, other = SystemPair.from_ab(model), SystemPair.from_ab(Mat._make(model.rows, model.cols, cells, den))
    for sys in (base, other):
        if not consistent_set_contains(d, sys):
            raise InternalFault("constructed consistent system fails to reproduce the data")
    if base == other:
        raise InternalFault("the two consistent systems must differ")
    return base, other

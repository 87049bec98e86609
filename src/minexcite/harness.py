"""End-to-end scenario running and data-efficiency reporting.

A scenario holds a hidden system, a property and a plan: either
"designed", the minimum excitation synthesized, or explicit experiments.
Running it excites the hidden system one step per column in one product,
X+ = [A, B] [X-; U-] (states are reset, never continued along a
trajectory), then applies the matching identifier; a deficient explicit
plan also gets a certifying counterexample.  A designed plan is the
design's basis, so the identifier reuses the design's Q with no solve and
a full-space model is X+ itself: a designed run eliminates only inside the
property's own test, and a whole-space one (S = I, Q = I) makes no
product.  On an explicit plan the identifier's read of the plan's span
travels with its failure, in `NotSufficientlyRich` or the not_identifiable
result, to the certificate, which reads its annihilators and consistent
model from it.  A report computes a square plan's gain, and a rich explicit
plan's Q, only when `gain` or `q` is read, and the gain's spectral radius
only when that is read.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, List, Optional, Sequence

from .adversary import CounterexamplePair, distinct_consistent_pair
from .errors import DimensionMismatch, GainNotApplicable, NotSufficientlyRich
from .identify import GainResult, Verdict, counterexample_report, gain_from_data, identify_property
from .properties import Dims, Problem, PropertySpec, SystemPair
from .ratmat import Mat
from .richness import Dataset, InputSection, feedback, split_stacked


@dataclass(frozen=True)
class Scenario:
    """One experiment description; `plan=None` requests a designed minimum input.

    Construction validates the property once into `problem`, with the design
    when the plan is designed, and `run` reads it."""

    dims: Dims
    hidden: SystemPair
    prop: PropertySpec
    plan: Optional[InputSection] = None
    seed: int = 0
    problem: Problem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.hidden.dims != self.dims:
            raise DimensionMismatch("hidden system does not match the declared dimensions")
        if self.plan is not None and self.plan.dims != self.dims:
            raise DimensionMismatch("explicit plan does not match the declared dimensions")
        object.__setattr__(self, "problem", Problem.of(self.prop, self.dims, design=self.plan is None))


@dataclass
class RunReport:
    """Everything a scenario run produced.

    `outcome` is one of: has_property, lacks_property, identified,
    not_identifiable, not_sufficiently_rich.  `q` is the identification's Q,
    read through `_q`: on an explicit rich plan it is solved on first read.
    `gain`, read through `_gain`, is the feedback gain of a square explicit
    plan, computed on first read and kept, and None where it does not apply.
    """

    dataset: Dataset
    outcome: str
    k_used: int
    k_model_based: int
    verdict: Optional[Verdict] = None
    _q: Callable[[], Optional[Mat]] = field(default=lambda: None, repr=False, compare=False)
    recovered: Optional[SystemPair] = None
    _gain: Callable[[], Optional[GainResult]] = field(default=lambda: None, repr=False, compare=False)
    counterexample: Optional[CounterexamplePair] = None
    model_pair: Optional[tuple] = None
    missing: tuple = ()

    q = property(lambda self: self._q())
    gain = cached_property(lambda self: self._gain())


def excite(hidden: SystemPair, section: InputSection) -> Dataset:
    """One exact step per excitation column; no trajectory continuation."""
    return Dataset(section, feedback(hidden, section))


def run(sc: Scenario) -> RunReport:
    section = sc.plan if sc.plan is not None else split_stacked(sc.problem.basis, sc.dims)
    dataset = excite(sc.hidden, section)
    k_used = section.k
    k_full = sc.dims.total

    def gain() -> Optional[GainResult]:
        try:
            return gain_from_data(dataset) if sc.plan is not None else None
        except GainNotApplicable:
            return None

    def report(outcome, **extra) -> RunReport:
        return RunReport(dataset, outcome, k_used, k_full, _gain=gain, **extra)

    try:
        res = identify_property(dataset, sc.problem)
    except NotSufficientlyRich as exc:
        pair = counterexample_report(section, sc.problem, sc.seed, exc.span, exc.gaps).pair
        return report("not_sufficiently_rich", counterexample=pair, missing=exc.missing)
    if res.outcome == "not_identifiable":
        return report(res.outcome, model_pair=distinct_consistent_pair(dataset, res.span))
    return report(res.outcome, verdict=res.verdict, _q=res.q, recovered=res.recovered)


@dataclass(frozen=True)
class EfficiencyRow:
    label: str
    n: int
    m: int
    k_minimum: int
    k_model_based: int
    savings: Fraction


def report_efficiency(batch: Sequence[Scenario]) -> List[EfficiencyRow]:
    """Minimum excitation count against full-model excitation, per scenario."""
    rows = []
    for sc in batch:
        k, total = sc.problem.minimum_basis().cols, sc.dims.total
        rows.append(EfficiencyRow(sc.prop.label(), sc.dims.n, sc.dims.m, k, total, Fraction(total - k, total)))
    return rows


def efficiency_text(rows: Sequence[EfficiencyRow]) -> str:
    headers = ("property", "n", "m", "k_min", "n+m", "savings")
    table = [headers] + [
        (r.label, str(r.n), str(r.m), str(r.k_minimum), str(r.k_model_based), f"{float(r.savings):.3f}")
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines)


def csv_text(table: Iterable[Iterable]) -> str:
    """Rows as CSV lines joined by newlines, each cell its str(), quoted where it holds a comma or quote."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([str(cell) for cell in row] for row in table)
    return out.getvalue()[:-1]


def efficiency_csv(rows: Sequence[EfficiencyRow]) -> str:
    header = ("property", "n", "m", "k_min", "n_plus_m", "savings")
    return csv_text([header] + [(r.label, r.n, r.m, r.k_minimum, r.k_model_based, float(r.savings)) for r in rows])

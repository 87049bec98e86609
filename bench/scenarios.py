"""The `designed` and `deficient` workloads.

Each workload is a fixed list of `harness.run` scenarios built from the
seed.  `designed` leaves the plan to `design_minimum_input` (the rich path);
`deficient` supplies a plan that misses one direction of the minimum
subspace (the counterexample path).  This module builds the scenarios,
renders and checks what `run` returns, and replays a scenario through the
same public calls with a span around each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import gen
from minexcite import (
    Controllability,
    Dataset,
    GainNotApplicable,
    Identifiability,
    LinearStructure,
    Mode,
    NotIdentifiable,
    NotSufficientlyRich,
    Scenario,
    SpecValidationError,
    Sparsity,
    Stabilizability,
    Verdict,
    consistent_set_contains,
    counterexample_for,
    design_minimum_input,
    distinct_consistent_pair,
    excite,
    format_matrix,
    gain_from_data,
    has_property,
    identify_controllability,
    identify_linear_structure,
    identify_sparsity,
    identify_stabilizability,
    is_sufficiently_rich,
    kernel,
    minimum_subspace,
    missing_directions,
    rank,
    recover_model,
    run,
    solve_right,
    validate_property,
)

def _mix(size: int, kinds, per_kind: int, counts=(1, 2, 3)) -> tuple:
    """(n+m, kind, scenarios, counts) rows; the k-th scenario of a kind has
    counts[k % len(counts)] zeros or constraints."""
    return tuple((size, kind, per_kind, counts) for kind in kinds)


# Each mix is laid out by cost so that every end-to-end read falls inside one
# block of inputs of one steady cost, whatever the seed.  The median falls in
# the middle of a block of model recoveries at n+m = 12, with as many inputs
# below that block as above it.  The tail (the 11th and 12th slowest inputs)
# falls in the middle of a block of eight or ten, with seven slower inputs
# above it.  A structure's cost follows its number of constraints, so the
# rows fix that number where it matters.  Rows are grouped by where their cost
# puts them: below the median block, the median block, between, the tail
# block, above it.  deficient keeps size 24 to the families whose certificates stay cheap
# there.  A pass takes about 1.4 s (designed) and 1.3 s (deficient) on a
# quiet 2-core Xeon VM, so a 50 s run repeats every input 20 to 35 times.
STRUCTURES = ("intersection", "expression")
MIXES = {
    "designed": _mix(6, ("sparsity", "identifiability"), 6)
    + _mix(6, ("stabilizability", "controllability"), 5)
    + _mix(6, STRUCTURES, 1, (1,))
    + _mix(12, ("sparsity",), 3)
    + _mix(24, ("sparsity",), 2, (1, 2))
    # median block: 18
    + _mix(12, ("identifiability",), 18)
    # between: 14
    + _mix(6, STRUCTURES, 2, (2, 3))
    + _mix(12, ("stabilizability",), 3)
    + _mix(12, ("controllability",), 2)
    + _mix(12, STRUCTURES, 1, (1,))
    + _mix(24, ("identifiability",), 3)
    # tail block: 8
    + _mix(24, ("stabilizability",), 8)
    # above the tail block: 7
    + _mix(12, STRUCTURES, 1, (2,))
    + _mix(12, STRUCTURES, 1, (3,))
    + _mix(24, ("controllability",) + STRUCTURES, 1, (1,)),
    "deficient": _mix(6, ("sparsity",), 6)
    + _mix(6, ("identifiability", "stabilizability", "controllability"), 5)
    + _mix(12, ("sparsity",), 2, (1,))
    # median block: 24
    + _mix(12, ("identifiability",), 24)
    # between: 4
    + _mix(24, ("sparsity",), 4, (1,))
    # tail block: 10
    + _mix(12, ("stabilizability",), 10, (3,))
    # above the tail block: 7
    + _mix(6, STRUCTURES, 1, (3,))
    + _mix(12, ("controllability",), 1)
    + _mix(12, STRUCTURES, 1, (1,))
    + _mix(24, ("stabilizability",), 1, (1,))
    + _mix(24, ("identifiability",), 1),
}
SMOKE_MIX = _mix(6, gen.KINDS, 1)

# dependent three-constraint intersections per size, validated in the traced
# designed run; only they take the Fourier-Motzkin path of validation
FM_PROBES = ((6, 4), (12, 4), (24, 4))

# inputs replayed through the elimination kernels only, at every size above 6:
# (kind, count); size 48 appears nowhere else, as one size-48 scenario runs for seconds
KERNEL_SIZES = (12, 24, 48)
KERNEL_CASES = (("intersection", 1), ("sparsity", 3), ("identifiability", 1))
KERNEL_OPS = ("rank", "solve_right", "kernel", "matmul")

SPANS = (
    "harness.run",
    "harness.excite",
    "properties.validate_property",
    "properties.minimum_subspace",
    "properties.has_property",
    "richness.design_minimum_input",
    "richness.is_sufficiently_rich",
    "richness.missing_directions",
    "identify.identify_sparsity",
    "identify.identify_linear_structure",
    "identify.identify_controllability",
    "identify.identify_stabilizability",
    "identify.recover_model",
    "identify.gain_from_data",
    "adversary.counterexample_for",
    "adversary.distinct_consistent_pair",
) + tuple(f"ratmat.{op}.n{size}" for op in KERNEL_OPS for size in (6, 12, 24, 48))

COUNTS = ("richness.k_used_sum", "richness.k_full_sum", "identify.q_bits_max", "adversary.pair_bits_max")


@dataclass(frozen=True)
class Case:
    sid: int
    kind: str
    scenario: Scenario


def _case(workload: str, seed: int, sid: int, size: int, kind: str, count: int) -> Case:
    rng = random.Random(f"{workload}:{seed}:{sid}")
    dims = gen.DIMS[size]
    prop = gen.rand_property(rng, kind, dims, count)
    hidden = gen.rand_hidden(rng, kind, prop, dims)
    plan = gen.deficient_plan(rng, prop, dims) if workload == "deficient" else None
    return Case(sid, kind, Scenario(dims, hidden, prop, plan, seed=rng.randrange(1 << 16)))


def build(workload: str, seed: int, smoke: bool) -> list:
    """The workload's scenarios; constructing each `Scenario` validates it."""
    cases = []
    for size, kind, per_kind, counts in SMOKE_MIX if smoke else MIXES[workload]:
        for k in range(per_kind):
            cases.append(_case(workload, seed, len(cases), size, kind, counts[k % len(counts)]))
    return cases


def call(case: Case):
    return run(case.scenario)


def _pair_mats(pair) -> list:
    return [pair.sys_with.a, pair.sys_with.b, pair.sys_without.a, pair.sys_without.b, pair.shared_feedback]


def render(report) -> str:
    """Canonical text of everything `run` decided: verdicts, plans, Q, models and pairs."""
    mats = [report.dataset.section.stacked()]
    if report.q is not None:
        mats.append(report.q)
    if report.recovered is not None:
        mats += [report.recovered.a, report.recovered.b]
    if report.gain is not None:
        mats += [report.gain.gain, report.gain.closed_loop]
    if report.counterexample is not None:
        mats += _pair_mats(report.counterexample)
    if report.model_pair is not None:
        mats += [s for sys in report.model_pair for s in (sys.a, sys.b)]
    mats += [col.T for col in report.missing]
    return "\n".join([report.outcome] + [format_matrix(m) for m in mats])


def _pair_error(pair, prop, plan) -> Optional[str]:
    shared = Dataset(pair.section, pair.shared_feedback)
    if pair.section != plan:
        return "counterexample is built on another plan"
    if not (consistent_set_contains(shared, pair.sys_with) and consistent_set_contains(shared, pair.sys_without)):
        return "counterexample system does not reproduce the shared data"
    if not has_property(pair.sys_with, prop) or has_property(pair.sys_without, prop):
        return "counterexample does not split the property"
    return None


def check(case: Case, report) -> Optional[str]:
    """None when the report is right, else what is wrong with it."""
    sc = case.scenario
    identifiability = isinstance(sc.prop, Identifiability)
    if sc.plan is None:
        if identifiability:
            return None if report.outcome == "identified" and report.recovered == sc.hidden else "model not recovered"
        expected = Verdict.of(has_property(sc.hidden, sc.prop)).value
        return None if report.outcome == expected else f"verdict {report.outcome}, oracle {expected}"
    if identifiability:
        if report.outcome != "not_identifiable" or report.model_pair is None:
            return f"outcome {report.outcome} on a rank-deficient plan"
        first, second = report.model_pair
        if first == second:
            return "the consistent pair is not distinct"
        if not all(consistent_set_contains(report.dataset, sys) for sys in (first, second)):
            return "a consistent-pair system does not reproduce the data"
        return None
    if report.outcome != "not_sufficiently_rich" or not report.missing or report.counterexample is None:
        return f"outcome {report.outcome} on a deficient plan"
    return _pair_error(report.counterexample, sc.prop, sc.plan)


def max_bits(mats) -> int:
    """Largest numerator or denominator bit-length over the entries."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for m in mats for row in m.to_lists() for v in row),
        default=0,
    )


# -- traced replay ----------------------------------------------------------

_IDENTIFIERS = (
    (Sparsity, "identify.identify_sparsity", identify_sparsity, True),
    (LinearStructure, "identify.identify_linear_structure", identify_linear_structure, True),
    (Controllability, "identify.identify_controllability", identify_controllability, False),
    (Stabilizability, "identify.identify_stabilizability", identify_stabilizability, False),
)


def replay(case: Case, tracer) -> str:
    """Run the scenario through the public calls `run` makes, in its order, with
    spans; also span the richness and subspace calls `run` makes inside the
    identifiers, the membership oracle and the elimination kernels on the
    scenario's own plan and target.  Returns the outcome reached."""
    sc, sid = case.scenario, case.sid
    span = tracer.span
    with span("harness.run", sid):
        with span("properties.validate_property", sid):
            validate_property(sc.prop, sc.dims)
        if sc.plan is None:
            with span("richness.design_minimum_input", sid):
                section = design_minimum_input(sc.prop, sc.dims)
        else:
            section = sc.plan
        with span("harness.excite", sid):
            data = excite(sc.hidden, section)
        if sc.plan is not None:
            with span("identify.gain_from_data", sid):
                try:
                    gain_from_data(data)
                except GainNotApplicable:
                    pass
        with span("properties.minimum_subspace", sid):
            target = minimum_subspace(sc.prop, sc.dims)
        with span("richness.is_sufficiently_rich", sid):
            rich = is_sufficiently_rich(section, sc.prop)
        if not rich:
            with span("richness.missing_directions", sid):
                missing_directions(section, sc.prop)
        outcome, pair_mats = _replay_identify(sc, sid, section, data, span, tracer)
    tracer.count_add("richness.k_used_sum", section.k)
    tracer.count_add("richness.k_full_sum", sc.dims.total)
    if pair_mats:
        tracer.count_max("adversary.pair_bits_max", max_bits(pair_mats))
    if not isinstance(sc.prop, Identifiability):
        with span("properties.has_property", sid):
            has_property(sc.hidden, sc.prop)
    replay_kernels(section, target.basis, sc.hidden, sid, tracer)
    return outcome


def _replay_identify(sc, sid, section, data, span, tracer):
    if isinstance(sc.prop, Identifiability):
        with span("identify.recover_model", sid):
            result = recover_model(data)
        if not isinstance(result, NotIdentifiable):
            return "identified", []
        with span("adversary.distinct_consistent_pair", sid):
            first, second = distinct_consistent_pair(data)
        return "not_identifiable", [first.a, first.b, second.a, second.b]
    _, name, identify, takes_prop = next(entry for entry in _IDENTIFIERS if isinstance(sc.prop, entry[0]))
    try:
        with span(name, sid, expected=NotSufficientlyRich):
            result = identify(data, sc.prop) if takes_prop else identify(data)
    except NotSufficientlyRich:
        with span("adversary.counterexample_for", sid):
            pair = counterexample_for(section, sc.prop, sc.seed)
        return "not_sufficiently_rich", _pair_mats(pair)
    if takes_prop:
        tracer.count_max("identify.q_bits_max", max_bits([result.q]))
        return result.verdict.value, []
    return result.value, []


def replay_kernels(section, target_basis, hidden, sid, tracer) -> None:
    """The four elimination-layer operations on one plan and its target."""
    stacked = section.stacked()
    size = stacked.rows
    span = tracer.span
    with span(f"ratmat.rank.n{size}", sid):
        rank(stacked)
    with span(f"ratmat.solve_right.n{size}", sid):
        solve_right(stacked, target_basis)
    with span(f"ratmat.kernel.n{size}", sid):
        kernel(stacked.T)
    with span(f"ratmat.matmul.n{size}", sid):
        hidden.ab() @ stacked


def kernel_cases(workload: str, seed: int) -> list:
    """(plan, target, system) per size and case, from the workload's own generators;
    the rich plan is designed, the deficient one misses a direction."""
    cases = []
    for size in KERNEL_SIZES:
        dims = gen.DIMS[size]
        for index, (kind, count) in enumerate(KERNEL_CASES):
            rng = random.Random(f"{workload}:{seed}:kernel{size}:{index}")
            prop = gen.rand_property(rng, kind, dims, count)
            hidden = gen.rand_system(rng, dims)
            plan = gen.deficient_plan(rng, prop, dims) if workload == "deficient" else design_minimum_input(prop, dims)
            cases.append((plan, minimum_subspace(prop, dims).basis, hidden))
    return cases


def fm_probes(seed: int, tracer) -> tuple:
    """Validate dependent intersections that are non-empty by construction.

    Returns (probes, rejected); a rejection is a wrong verdict of the check
    and marks its span failed.
    """
    probes = rejected = 0
    for size, count in FM_PROBES:
        for index in range(count):
            rng = random.Random(f"fm:{seed}:{size}:{index}")
            prop = gen.rand_structure(rng, gen.DIMS[size], Mode.INTERSECTION, 3, dependent=True)
            probes += 1
            try:
                with tracer.span("properties.validate_property", f"fm-{size}-{index}"):
                    validate_property(prop, gen.DIMS[size])
            except SpecValidationError:
                rejected += 1
    return probes, rejected

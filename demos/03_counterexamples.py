"""Certifying that an excitation plan is too poor to settle a question.

Two excitations cannot settle stabilizability of a two-state, one-input
plant.  The certificate is a pair of systems that produce byte-identical
data on the plan while exactly one of them is stabilizable: whatever the
feedback says, both remain possible, so no verdict is safe.
"""

from minexcite import (
    Dataset,
    InputSection,
    Stabilizability,
    consistent_set_contains,
    counterexample_for,
    format_matrix,
    has_property,
    is_sufficiently_rich,
    parse_matrix,
)
from minexcite.ratmat import read_span

plan = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
prop = Stabilizability()

print("Plan columns (state; input):")
print(f"  [{format_matrix(plan.stacked())}]")
print(f"sufficiently rich for stabilizability: {is_sufficiently_rich(plan, prop)}\n")

direction = read_span(plan.stacked()).annihilator
print(f"Blind direction (orthogonal to every excitation): [{format_matrix(direction.T)}]")

pair = counterexample_for(plan, prop, seed=0)
print("\nTwo plants, one dataset:")
print(f"  stabilizable:      A = [{format_matrix(pair.sys_with.a)}], B = [{format_matrix(pair.sys_with.b)}]")
print(f"  not stabilizable:  A = [{format_matrix(pair.sys_without.a)}], B = [{format_matrix(pair.sys_without.b)}]")
print(f"  shared feedback X+ = [{format_matrix(pair.shared_feedback)}]\n")

data = Dataset(pair.section, pair.shared_feedback)
checks = [
    ("first plant reproduces the data", consistent_set_contains(data, pair.sys_with)),
    ("second plant reproduces the data", consistent_set_contains(data, pair.sys_without)),
    ("first plant is stabilizable", has_property(pair.sys_with, prop)),
    ("second plant is not", not has_property(pair.sys_without, prop)),
]
for label, ok in checks:
    print(f"  verified: {label}: {ok}")

print(
    "\nThe pair is replayable (seeded) and exact: both products A X- + B U-"
    "\nmatch the shared feedback with no tolerance involved."
)

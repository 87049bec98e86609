"""Reading a feedback gain straight off the data, no model in sight.

With exactly n excitations whose states form an invertible matrix, the
gain K = U- X-^{-1} makes the closed loop equal X+ X-^{-1}: the very
feedback observed in the experiments.  Whether that loop contracts is a
property of the data, not of any recovered model.
"""

from minexcite import (
    Dataset,
    InputSection,
    format_matrix,
    gain_from_data,
    parse_matrix,
    recover_model,
    NotIdentifiable,
)

plan = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
print(f"States X- = [{format_matrix(plan.x_minus)}], inputs U- = [{format_matrix(plan.u_minus)}]\n")

for label, responses in [
    ("favourable feedback", "0.5, -0.25; 1, 1"),
    ("unfavourable feedback", "0.5, 0; 1, 2"),
]:
    data = Dataset(plan, parse_matrix(responses))
    assert isinstance(recover_model(data), NotIdentifiable)  # model stays unknown
    result = gain_from_data(data)
    print(f"{label}: X+ = [{responses}]")
    print(f"  K = [{format_matrix(result.gain)}]")
    print(f"  closed loop = [{format_matrix(result.closed_loop)}]")
    print(f"  spectral radius = {result.radius:.10f}")
    print(f"  stabilizing: {result.stabilizing}" + ("  (marginal!)" if result.marginal else ""))
    print()

print(
    "The second dataset has a double eigenvalue exactly on the unit circle;"
    "\nthe verdict is decided exactly, with no margin, and the radius is"
    "\ncomputed from the exact characteristic polynomial, so the boundary"
    "\ncase is reported as 1.0 and flagged marginal rather than drifting to"
    "\n1.00000001 as float eigensolvers do."
)

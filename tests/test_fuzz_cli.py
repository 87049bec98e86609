"""Malformed documents through every CLI verb: a clean exit, never a traceback.

Each example takes valid documents for one verb, mutates them (drops or
retypes fields, puts junk scalars, huge or non-integral counts, ragged
matrix literals and deeply bracketed or very long expressions in their
place), writes them as YAML and runs the verb in process through
`cli.main`.  Whatever the mutation, the verb must answer
with a documented status (0, 2 or 3), print no traceback and finish within
the deadline.  A mutated argument list (a required argument dropped, a junk
verb, seed or format) is a usage error: status 3, never argparse's 2.
"""

import contextlib
import copy
import io

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minexcite.cli import EXIT_BAD_INPUT, EXIT_NOT_RICH, EXIT_OK, main

H_TRACE = "1, 0, 0, 1, 0, 0"  # tr A, over vec([A, B]) for n = 2, m = 1
H_B = "0, 0, 0, 0, 1, 0"  # B(1, 1)
H_SUM = "1, 0, 0, 1, 1, 0"  # tr A + B(1, 1), dependent on the two above

PROPERTIES = [
    {"type": "sparsity", "n": 2, "m": 1, "zeros_A": [[1, 1]], "zeros_B": [[2, 1]]},
    {"type": "stabilizability", "n": 2, "m": 1},
    {"type": "controllability", "n": 2, "m": 1},
    {"type": "controllability", "n": 1, "m": 2},
    {"type": "identifiability", "n": 2, "m": 1},
    {
        "type": "linear_structure",
        "n": 2,
        "m": 1,
        "constraints": [{"h": H_TRACE, "set": [[-1, 1]]}, {"h": H_B, "set": [[0, 0], [2, 3]]}],
        "mode": "intersection",
    },
    {
        "type": "structure",
        "n": 2,
        "m": 1,
        "constraints": [{"h": H_TRACE, "set": [[-1, 1]]}, {"h": H_B, "set": [0]}],
        "expr": "1 | 2",
    },
    {
        "type": "linear_structure",
        "n": 2,
        "m": 1,
        "constraints": [
            {"h": H_TRACE, "set": [[-1, 1]]},
            {"h": H_B, "set": [[0, 0], [2, 3]]},
            {"h": H_SUM, "set": [[-1, 1], [4, 5]]},  # around 0 + 0, the sum of the midpoints
        ],
    },
]
EXPRESSION_PROPERTY = next(doc for doc in PROPERTIES if "expr" in doc)
PLANS = [
    {"n": 2, "m": 1, "k": 3, "X": "1, 0, 0; 0, 1, 0", "U": "0, 0, 1"},
    {"n": 2, "m": 1, "k": 2, "X": "1, 0.5; 0, 1", "U": "-1, -1"},
]
DATASETS = [
    {"n": 2, "m": 1, "k": 3, "X": "1, 0, 0; 0, 1, 0", "U": "0, 0, 1", "Xp": "0, 2, 1; 1, 1, 0"},
    {"n": 2, "m": 1, "k": 2, "X": "1, 0.5; 0, 1", "U": "-1, -1", "Xp": "0.5, -0.25; 1, 1"},
]
SCENARIOS = [
    {"n": 2, "m": 1, "hidden": {"A": "0, 1; 2, 1", "B": "1; 0"}, "property": {"type": "stabilizability"}},
    {
        "n": 2,
        "m": 1,
        "hidden": {"A": "0, 1; 2, 1", "B": "1; 0"},
        "property": PROPERTIES[0],
        "plan": {"X": "1, 0.5; 0, 1", "U": "-1, -1"},
        "seed": 3,
    },
    {"n": 2, "m": 1, "hidden": {"A": "0.5, 0; 1, 0", "B": "0; 1"}, "property": PROPERTIES[5], "plan": "designed"},
]
SEEDS = {"property": PROPERTIES, "plan": PLANS, "data": DATASETS, "scenario": SCENARIOS}

# verb: the documents it reads, and its arguments given their paths
VERBS = {
    "design": (("property",), lambda p: ["design", "--property", p["property"]]),
    "check": (("property", "plan"), lambda p: ["check", "--property", p["property"], "--input", p["plan"]]),
    "identify": (("property", "data"), lambda p: ["identify", "--property", p["property"], "--data", p["data"]]),
    "recover": (("data",), lambda p: ["recover", "--data", p["data"]]),
    "gain": (("data",), lambda p: ["gain", "--data", p["data"]]),
    "counterexample": (
        ("property", "plan"),
        lambda p: ["counterexample", "--property", p["property"], "--input", p["plan"]],
    ),
    "simulate": (("scenario",), lambda p: ["simulate", "--scenario", p["scenario"]]),
    "bench": (("scenario",), lambda p: ["bench", p["scenario"]]),
}

JUNK = [None, True, 0, -1, "", ".", "abc", "1/0", "1e400", "1e-400", "nan", "²", "1, 2; 3",
        [], {}, [[1]], [1, "a"], {"a": 1}, 1e300, float("inf"), float("nan")]
HUGE_COUNTS = [10**9, 10**18, 2**64, 10**400, -(10**9)]
NON_INTEGRAL_COUNTS = [2.5, "2.5", 0.5, "1/2", 1e-3, "2e0"]
COUNT_FIELDS = {"n", "m", "k", "seed"}


def paths(node, prefix=()):
    """Every position in a document: the root, each mapping value and list item."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def ragged(literal: str, draw) -> str:
    """The literal with one row an entry short or an entry long."""
    rows = [row.split(",") for row in literal.split(";")]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if len(row) > 1 and draw(st.booleans()):
        row.pop()
    else:
        row.append(" 7")
    return ";".join(",".join(r) for r in rows)


def mutate(doc, draw):
    """The document with one position dropped, retyped or given a bad value; an
    expression may instead be wrapped in hundreds of parentheses or replaced by a
    union of more than a thousand indices."""
    return mutate_at(doc, draw(st.sampled_from(list(paths(doc)))), draw)


def mutate_at(doc, where, draw):
    """The document with the value at `where` mutated as `mutate` does."""
    if not where:
        return copy.deepcopy(draw(st.sampled_from(JUNK)))
    *parents, key = where
    parent = doc
    for step in parents:
        parent = parent[step]
    value = parent[key]
    kinds = ["drop", "junk"]
    if key in COUNT_FIELDS:
        kinds += ["huge", "non_integral"]
    if isinstance(value, str) and "," in value:
        kinds.append("ragged")
    if key == "expr" and isinstance(value, str):
        kinds += ["nested", "long"]
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "junk":
        parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))  # a later mutation may edit it
    elif kind == "huge":
        parent[key] = draw(st.sampled_from(HUGE_COUNTS))
    elif kind == "non_integral":
        parent[key] = draw(st.sampled_from(NON_INTEGRAL_COUNTS))
    elif kind == "nested":
        depth = draw(st.integers(500, 3000))
        parent[key] = "(" * depth + value + ")" * depth
    elif kind == "long":
        parent[key] = " | ".join(map(str, range(1, draw(st.integers(1001, 3000)) + 1)))
    else:
        parent[key] = ragged(value, draw)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(workdir, data):
    verb = data.draw(st.sampled_from(sorted(VERBS)), label="verb")
    roles = VERBS[verb][0]
    docs = {role: copy.deepcopy(data.draw(st.sampled_from(SEEDS[role]), label=role)) for role in roles}
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        role = data.draw(st.sampled_from(roles), label="target")
        docs[role] = mutate(docs[role], data.draw)
    assert_exits_cleanly(workdir, verb, docs)


@settings(max_examples=60, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_expressions_exit_cleanly(workdir, data):
    # the expression is one position of many above, so its mutations are drawn
    # here for every verb that reads a property document
    verb = data.draw(st.sampled_from([v for v in sorted(VERBS) if "property" in VERBS[v][0]]), label="verb")
    docs = {role: copy.deepcopy(data.draw(st.sampled_from(SEEDS[role]), label=role)) for role in VERBS[verb][0]}
    docs["property"] = mutate_at(copy.deepcopy(EXPRESSION_PROPERTY), ("expr",), data.draw)
    assert_exits_cleanly(workdir, verb, docs)


def assert_exits_cleanly(workdir, verb, docs):
    """Write the documents, run the verb on them in process, and check its status and stderr."""
    files = {}
    for role, doc in docs.items():
        files[role] = workdir / f"{role}.yaml"
        files[role].write_text(yaml.safe_dump(doc, sort_keys=False))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(VERBS[verb][1]({role: str(path) for role, path in files.items()}))
    assert status in (EXIT_OK, EXIT_NOT_RICH, EXIT_BAD_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()


JUNK_ARGUMENTS = ["", "abc", "1.5", "1e3", "0x10", "\u00b2", "desgin", "DESIGN", "json"]


@settings(max_examples=100, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_arguments_are_usage_errors(workdir, data):
    verb = data.draw(st.sampled_from(sorted(VERBS)), label="verb")
    docs = {role: data.draw(st.sampled_from(SEEDS[role]), label=role) for role in VERBS[verb][0]}
    files = {}
    for role, doc in docs.items():
        files[role] = workdir / f"{role}.yaml"
        files[role].write_text(yaml.safe_dump(doc, sort_keys=False))
    argv = VERBS[verb][1]({role: str(path) for role, path in files.items()})
    junk = data.draw(st.sampled_from(JUNK_ARGUMENTS), label="junk")
    kind = data.draw(st.sampled_from(["drop", "verb", "seed", "format"]), label="kind")
    if kind == "drop":  # a required flag and its value, or bench's scenario list
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        start = data.draw(st.sampled_from(flags), label="flag") if flags else 1
        del argv[start : start + 2 if flags else None]
    elif kind == "verb":
        argv[0] = junk
    elif kind == "seed":  # not an int, or no option of the verb
        argv += ["--seed", junk]
    else:
        argv = ["--format", junk, *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status == EXIT_BAD_INPUT, err.getvalue()
    assert err.getvalue().startswith("usage: ") and "\nbad input: " in err.getvalue()
    assert "Traceback" not in err.getvalue() and not out.getvalue()

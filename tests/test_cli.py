"""Command line behavior and exit statuses."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minexcite
from minexcite import specio
from minexcite import (
    Dataset,
    InputSection,
    LinearStructure,
    SystemPair,
    consistent_set_contains,
    counterexample_for,
    parse_matrix,
)
from minexcite.properties import PropertySpec
from minexcite.cli import EXIT_BAD_INPUT, EXIT_NOT_RICH, EXIT_OK, main


@pytest.fixture
def sparsity_prop(tmp_path: Path) -> str:
    f = tmp_path / "prop.yaml"
    f.write_text("type: sparsity\nn: 2\nm: 1\nzeros_A: [[1, 1]]\nzeros_B: [[2, 1]]\n")
    return str(f)


@pytest.fixture
def stab_prop(tmp_path: Path) -> str:
    f = tmp_path / "stab.yaml"
    f.write_text("type: stabilizability\nn: 2\nm: 1\n")
    return str(f)


@pytest.fixture
def corner_dataset(tmp_path: Path) -> str:
    f = tmp_path / "data.yaml"
    f.write_text(
        'n: 2\nm: 1\nk: 2\nX: "1, 0; 0, 0"\nU: "0, 1"\nXp: "0, 1; 2, 0"\n'
    )
    return str(f)


def _cli_process(*argv, timeout=30) -> subprocess.CompletedProcess:
    """`python -m minexcite.cli *argv` in a process of its own, so that a traceback shows."""
    src = str(Path(minexcite.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "minexcite.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_design_then_check(tmp_path, sparsity_prop, capsys):
    plan = tmp_path / "plan.yaml"
    assert main(["design", "--property", sparsity_prop, "--out", str(plan)]) == EXIT_OK
    assert plan.exists()
    assert main(["check", "--property", sparsity_prop, "--input", str(plan)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sufficiently_rich  True" in out


def test_check_deficient_plan(tmp_path, stab_prop, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text('n: 2\nm: 1\nk: 2\nX: "1, 0.5; 0, 1"\nU: "-1, -1"\n')
    assert main(["check", "--property", stab_prop, "--input", str(plan)]) == EXIT_NOT_RICH


def test_identify_verdict(sparsity_prop, corner_dataset, capsys):
    assert main(["identify", "--property", sparsity_prop, "--data", corner_dataset]) == EXIT_OK
    assert "has_property" in capsys.readouterr().out


def test_identify_not_rich_exit(tmp_path, stab_prop, corner_dataset):
    assert (
        main(["identify", "--property", stab_prop, "--data", corner_dataset])
        == EXIT_NOT_RICH
    )


def test_recover_deficit(corner_dataset, capsys):
    assert main(["recover", "--data", corner_dataset]) == EXIT_NOT_RICH
    out = capsys.readouterr().out
    assert "not_identifiable" in out and "deficit" in out


def test_recover_inconsistent_deficient_dataset_exits_bad_input(tmp_path):
    # a rank-deficient plan, two equal excitations, whose responses differ: no system
    # reproduces it, which is bad input, not a deficit; in a whole process, so that an
    # uncaught exception would show as a traceback
    data = tmp_path / "data.yaml"
    data.write_text('n: 2\nm: 1\nk: 2\nX: "1, 1; 0, 0"\nU: "0, 0"\nXp: "1, 2; 0, 0"\n')
    proc = _cli_process("recover", "--data", str(data))
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert "bad input: no linear system reproduces this dataset" in proc.stderr
    assert "not_identifiable" not in proc.stdout


def test_identify_corrupted_rich_dataset_exits_bad_input(tmp_path, sparsity_prop):
    # a rich, overdetermined plan whose responses no linear system reproduces (its
    # last column should read 2; 3): the one read of the plan beside its data refuses
    # it, in a whole process so that an uncaught exception would show as a traceback
    data = tmp_path / "data.yaml"
    data.write_text('n: 2\nm: 1\nk: 4\nX: "1, 0, 0, 1; 0, 1, 0, 1"\nU: "0, 0, 1, 1"\nXp: "0, 1, 1, 3; 2, 1, 0, 3"\n')
    proc = _cli_process("identify", "--property", sparsity_prop, "--data", str(data))
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert "no linear system reproduces this dataset" in proc.stderr


def test_gain_report(tmp_path, capsys):
    f = tmp_path / "gain.yaml"
    f.write_text(
        'n: 2\nm: 1\nk: 2\nX: "1, 0.5; 0, 1"\nU: "-1, -1"\nXp: "0.5, -0.25; 1, 1"\n'
    )
    assert main(["gain", "--data", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "K" in out and "stabilizing  True" in out


def test_gain_not_applicable(corner_dataset):
    assert main(["gain", "--data", corner_dataset]) == EXIT_BAD_INPUT


def test_counterexample_report(tmp_path, stab_prop, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text('n: 2\nm: 1\nk: 2\nX: "1, 0.5; 0, 1"\nU: "-1, -1"\n')
    assert (
        main(["counterexample", "--property", stab_prop, "--input", str(plan), "--seed", "4"])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "with_A" in out and "without_A" in out and "shared_Xp" in out


def test_counterexample_on_rich_plan(tmp_path, stab_prop, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text('n: 2\nm: 1\nk: 3\nX: "1, 0, 0; 0, 1, 0"\nU: "0, 0, 1"\n')
    assert (
        main(["counterexample", "--property", stab_prop, "--input", str(plan)]) == EXIT_OK
    )
    assert "section_is_rich" in capsys.readouterr().out


def test_simulate_and_bench(tmp_path, capsys):
    sc = tmp_path / "scenario.yaml"
    sc.write_text(
        "n: 2\nm: 1\n"
        "hidden: {A: '0, 1; 2, 1', B: '1; 0'}\n"
        "property: {type: sparsity, zeros_A: [[1, 1]], zeros_B: [[2, 1]]}\n"
        "plan: designed\n"
    )
    assert main(["simulate", "--scenario", str(sc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "has_property" in out and "k_used" in out

    assert main(["--format", "csv", "bench", str(sc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "property,n,m,k_min,n_plus_m,savings"


def test_simulate_deficient_explicit_plan(tmp_path, capsys):
    sc = tmp_path / "scenario.yaml"
    sc.write_text(
        "n: 2\nm: 1\n"
        "hidden: {A: '0, 1; 2, 1', B: '1; 0'}\n"
        "property: {type: stabilizability}\n"
        "plan: {X: '1, 0.5; 0, 1', U: '-1, -1'}\n"
    )
    assert main(["simulate", "--scenario", str(sc)]) == EXIT_NOT_RICH
    out = capsys.readouterr().out
    assert "not_sufficiently_rich" in out and "without_A" in out


def test_identify_identifiability(tmp_path, capsys):
    prop = tmp_path / "ident.yaml"
    prop.write_text("type: identifiability\nn: 2\nm: 1\n")
    data = tmp_path / "full.yaml"
    data.write_text(
        'n: 2\nm: 1\nk: 3\nX: "1, 0, 0; 0, 1, 0"\nU: "0, 0, 1"\nXp: "0, 1, 1; 2, 1, 0"\n'
    )
    assert main(["identify", "--property", str(prop), "--data", str(data)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "identified" in out and "0, 1; 2, 1" in out


def test_malformed_input_exit(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("type: sparsity\nn: 2\nm: 1\nzeros_A: [[9, 9]]\n")
    assert main(["design", "--property", str(bad)]) == EXIT_BAD_INPUT
    assert main(["design", "--property", str(tmp_path / "missing.yaml")]) == EXIT_BAD_INPUT
    garbled = tmp_path / "garbled.yaml"
    garbled.write_text("{{{:::")
    assert main(["design", "--property", str(garbled)]) == EXIT_BAD_INPUT


USAGE_ERRORS = {
    "missing-flag": ["design"],
    "unknown-verb": ["frobnicate"],
    "seed-not-int": ["counterexample", "--property", "prop.yaml", "--input", "plan.yaml", "--seed", "abc"],
    "unknown-format": ["--format", "json", "design", "--property", "prop.yaml"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_bad_input(argv, capsys):
    # argparse's own status 2 is the documented "not sufficiently rich"; a typo must not read as a verdict
    proc = _cli_process(*argv)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr.startswith("usage: ") and "\nbad input: " in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["design", "--help"]])
def test_help_exits_ok(argv):
    proc = _cli_process(*argv)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("usage: ") and not proc.stderr


def test_gain_on_triple_eigenvalue_is_marginal(tmp_path):
    # the closed loop I3 has eigenvalue 1 three times; root finding on the
    # whole characteristic polynomial once failed there with a traceback
    data = tmp_path / "identity.yaml"
    data.write_text('n: 3\nm: 1\nk: 3\nX: "1, 0, 0; 0, 1, 0; 0, 0, 1"\nU: "0, 0, 0"\nXp: "1, 0, 0; 0, 1, 0; 0, 0, 1"\n')
    proc = _cli_process("gain", "--data", str(data), timeout=60)
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    rows = dict(line.split(None, 1) for line in proc.stdout.splitlines() if " " in line)
    assert rows["radius"] == "1"
    assert rows["marginal"] == "True"
    assert rows["stabilizing"] == "False"


def test_gain_decides_stabilizing_exactly(tmp_path, capsys):
    # the closed loop [1 - 1e-12] is stable; its radius lies inside the display margin
    data = tmp_path / "near.yaml"
    data.write_text('n: 1\nm: 1\nk: 1\nX: "1"\nU: "0"\nXp: "0.999999999999"\n')
    assert main(["gain", "--data", str(data)]) == EXIT_OK
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert rows["stabilizing"] == "True"
    assert rows["marginal"] == "True"


def test_cli_import_loads_no_numpy(tmp_path):
    # numpy is not a dependency: neither the import nor a computed radius loads it
    data = tmp_path / "gain.yaml"
    data.write_text('n: 2\nm: 1\nk: 2\nX: "1, 0.5; 0, 1"\nU: "-1, -1"\nXp: "0.5, -0.25; 1, 1"\n')
    src = str(Path(minexcite.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\nfrom minexcite.cli import main\nassert main(['gain', '--data', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(data)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *rows, loaded = proc.stdout.splitlines()
    assert any(row.startswith("radius") for row in rows)
    assert loaded == "[]"


def test_csv_cells_with_commas_are_quoted(tmp_path, capsys):
    data = tmp_path / "data.yaml"
    data.write_text('n: 2\nm: 1\nk: 3\nX: "1, 0, 0; 0, 1, 0"\nU: "0, 0, 1"\nXp: "1, 2, 3; 4, 5, 6"\n')
    assert main(["--format", "csv", "recover", "--data", str(data)]) == EXIT_OK
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(header) == len(row) == 3
    cells = dict(zip(header, row))
    assert parse_matrix(cells["A"]) == parse_matrix("1, 2; 4, 5")


@pytest.mark.parametrize(
    "field, text",
    [("X", "1/0, 1"), ("X", "abc, 1"), ("Xp", "1e999999999, 0")],
    ids=["zero-denominator", "not-a-number", "huge-exponent"],
)
def test_malformed_number_exits_bad_input(tmp_path, field, text):
    # a whole process, so an uncaught exception shows as a traceback, and a
    # timeout, so an exponent check that only came after building
    # 10**999999999 would fail the test instead of stalling the suite
    doc = {"n": 1, "m": 1, "k": 2, "X": "1, 0", "U": "0, 1", "Xp": "1, 1", field: text}
    data = tmp_path / "data.yaml"
    data.write_text("".join(f'{key}: "{value}"\n' for key, value in doc.items()))
    proc = _cli_process("recover", "--data", str(data))
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert repr(text.split(",")[0]) in proc.stderr


@pytest.mark.parametrize(
    "verb, flag, text",
    [
        ("recover", "--data", 'n: 1\nm: 1\nk: 2\nX: [[{digits}, 0]]\nU: "0, 1"\nXp: "1, 1"\n'),
        ("design", "--property", "type: structure\nn: 1\nm: 0\nconstraints: [{{h: '1', set: [[0, {digits}]]}}]\n"),
    ],
    ids=["matrix", "value-set"],
)
@pytest.mark.parametrize("length", [4100, 5000], ids=["under-yaml-limit", "over-yaml-limit"])
def test_huge_yaml_integer_exits_bad_input(tmp_path, verb, flag, text, length):
    # an unquoted integer of more than 4300 digits makes yaml.safe_load raise
    # ValueError on Python 3.11 and later, while 3.10 reads it; both must
    # exit 3 without a traceback and without echoing the digits
    doc = tmp_path / "doc.yaml"
    doc.write_text(text.format(digits="7" * length))
    proc = _cli_process(verb, flag, str(doc))
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert "7" * 40 not in proc.stderr
    assert str(4000) in proc.stderr


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--input", 'n: 1\nm: 1\nk: 2\nX: {nested}\nU: "0, 1"\n'),
        ("--data", 'n: 1\nm: 1\nk: 2\nX: {nested}\nU: "0, 1"\nXp: "1, 1"\n'),
        ("--property", "type: sparsity\nn: 1\nm: 1\nzeros_A: {nested}\n"),
    ],
    ids=["plan", "dataset", "property"],
)
@pytest.mark.parametrize("depth", [600, 20000])
def test_deeply_nested_document_exits_bad_input(tmp_path, stab_prop, flag, text, depth):
    # the YAML composer recurses once per level, past the frame limit at these depths;
    # a whole process, so that the RecursionError would show as a traceback
    doc = tmp_path / "doc.yaml"
    doc.write_text(text.format(nested="[" * depth + "]" * depth))
    argv = {"--input": ["check", "--property", stab_prop], "--data": ["recover"], "--property": ["design"]}[flag]
    proc = _cli_process(*argv, flag, str(doc))
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"bad input: {doc}: nested too deeply\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check", "--property", None, "--input"], 'n: 1\nm: 0\nk: 2\nX: "1, 0"\nU: "7, 7"\n'),
        (["recover", "--data"], 'n: 1\nm: 0\nk: 2\nX: "1, 0"\nU: "7, 7"\nXp: "1, 0"\n'),
        (["simulate", "--scenario"], "n: 1\nm: 0\nhidden: {A: '0', B: '7'}\nproperty: {type: stabilizability}\n"),
    ],
    ids=["check-plan", "recover-dataset", "simulate-scenario"],
)
def test_literal_for_a_zero_size_block_exits_bad_input(tmp_path, capsys, argv, text):
    # with m = 0 the input block has no cells, so a literal for it is not dropped but refused
    prop = tmp_path / "prop.yaml"
    prop.write_text("type: stabilizability\nn: 1\nm: 0\n")
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    assert main([str(prop) if arg is None else arg for arg in argv] + [str(doc)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("bad input: expected 0 ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "verb, text, field",
    [
        ("design", "type: stabilizability\nn: abc\nm: 1\n", "'n'"),
        ("design", 'type: structure\nn: 1\nm: 0\nconstraints: [{h: "1", set: [[0, 0]]}]\nmode: bogus\n', "'mode'"),
        ("design", "type: sparsity\nn: 2\nm: 1\nzeros_A: [[a, 1]]\n", "zeros_A"),
        ("design", "type: sparsity\nn: 2\nm: 1\nzeros_A: 5\n", "zeros_A"),
        ("design", "type: structure\nn: 1\nm: 0\nconstraints: [{set: [[0, 0]]}]\n", "'h'"),
        ("design", "type: structure\nn: 1\nm: 0\nconstraints: [5]\n", "constraint 1"),
        ("design", "type: structure\nn: 1\nm: 0\nconstraints: 5\n", "constraints"),
        ("check", 'n: 2\nm: 1\nX: "1, 0; 0, 1"\nU: "0, 0"\n', "'k'"),
        ("simulate", 'n: 1\nm: 1\nhidden: {B: "1"}\nproperty: {type: stabilizability}\n', "'A'"),
        ("simulate", "n: 1\nm: 1\nhidden: {A: '0', B: '1'}\nproperty: {type: stabilizability}\nseed: abc\n", "'seed'"),
        ("design", "type: sparsity\nn: 2\nm: 1\nzeros_A: [[1.5, 1]]\n", "zeros_A"),
        ("design", "type: stabilizability\nn: 2.7\nm: 1\n", "'n'"),
        ("design", "type: stabilizability\nn: 2\nm: true\n", "'m'"),
        ("design", "type: identifiability\nn: 1000000000\nm: 0\n", "exceeds 1000"),
        ("design", "type: sparsity\nn: 2\nm: 1000000000000000000000\nzeros_A: [[1, 1]]\n", "exceeds 1000"),
        ("design", 'type: structure\nn: 1\nm: 0\nconstraints: [{h: "1", set: [[0, 0]]}]\nexpr: "1 \u00b2"\n', "'\u00b2'"),
        ("simulate", "n: 1\nm: 1\nhidden: {A: '0', B: '1'}\nproperty: ''\n", "directory"),
    ],
    ids=["n-not-int", "mode-bogus", "zero-position-not-int", "zeros-not-list", "constraint-without-h",
         "constraint-not-mapping", "constraints-not-list", "plan-without-k", "hidden-without-A", "seed-not-int",
         "zero-position-not-integral", "n-not-integral", "m-bool", "n-past-cap", "m-past-cap",
         "expr-superscript-digit", "property-path-a-directory"],
)
def test_malformed_document_exits_bad_input(tmp_path, stab_prop, capsys, verb, text, field):
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    argv = {
        "design": ["design", "--property", str(doc)],
        "check": ["check", "--property", stab_prop, "--input", str(doc)],
        "simulate": ["simulate", "--scenario", str(doc)],
    }[verb]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("bad input: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["check", "--property", None, "--input"], 'n: 1\nm: 1\nk: 2\nX: "1, 0"\nU: "0, 1"\n',
         "plan dimensions disagree with the property document"),
        (["counterexample", "--property", None, "--input"], 'n: 1\nm: 1\nk: 2\nX: "1, 0"\nU: "0, 1"\n',
         "plan dimensions disagree with the property document"),
        (["identify", "--property", None, "--data"], 'n: 1\nm: 1\nk: 2\nX: "1, 0"\nU: "0, 1"\nXp: "0, 1"\n',
         "dataset dimensions disagree with the property document"),
        (["simulate", "--scenario"],
         "n: 2\nm: 1\nhidden: {A: '0, 1; 2, 1', B: '1; 0'}\nproperty: {type: stabilizability, n: 1}\n",
         "property dimensions disagree with the scenario"),
    ],
    ids=["check-plan", "counterexample-plan", "identify-dataset", "simulate-inline-property"],
)
def test_documents_of_other_dimensions_exit_bad_input(tmp_path, stab_prop, capsys, argv, text, message):
    # None stands for the two-state, one-input property document
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    assert main([stab_prop if arg is None else arg for arg in argv] + [str(doc)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"bad input: {message}\n"


def test_verbose_design_names_the_file_it_wrote(tmp_path, sparsity_prop, capsys):
    plan = tmp_path / "plan.yaml"
    assert main(["--verbose", "design", "--property", sparsity_prop, "--out", str(plan)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {plan}\n"
    assert main(["design", "--property", sparsity_prop]) == EXIT_OK
    assert capsys.readouterr().out == plan.read_text()


def test_constraint_vector_as_a_list_or_a_mapping(tmp_path, capsys):
    # h written as a YAML list reads as its string form; a mapping is no vector
    plans = {}
    for name, h in (("string", '"1, 0, 2"'), ("list", "[1, 0, 2]"), ("mapping", "{a: 1}")):
        doc = tmp_path / f"{name}.yaml"
        doc.write_text(f"type: structure\nn: 1\nm: 2\nconstraints: [{{h: {h}, set: [[0, 1]]}}]\n")
        plans[name] = main(["design", "--property", str(doc)]), capsys.readouterr()
    assert plans["list"][0] == plans["string"][0] == EXIT_OK
    assert plans["list"][1].out == plans["string"][1].out != ""
    assert plans["mapping"][0] == EXIT_BAD_INPUT
    assert plans["mapping"][1].err == "bad input: cannot read {'a': 1} as a vector\n"


def test_integral_float_count_accepted(tmp_path, capsys):
    # a YAML float that is integral is the count it writes; 2.7 and true are not
    docs = {}
    for n in ("2", "2.0"):
        doc = tmp_path / f"prop-{n}.yaml"
        doc.write_text(f"type: sparsity\nn: {n}\nm: 1\nzeros_A: [[1.0, 2]]\n")
        assert main(["design", "--property", str(doc)]) == EXIT_OK
        docs[n] = capsys.readouterr().out
    assert docs["2.0"] == docs["2"]


def _constraint_doc(hs) -> str:
    rows = "".join(f'  - {{h: "{h}", set: [[-100, 100]]}}\n' for h in hs)
    return f"type: linear_structure\nn: 2\nm: 1\nconstraints:\n{rows}"


SEVEN_DEPENDENT = ["-2,1,3,3,3,-3", "-1,-3,0,3,0,0", "2,0,3,-2,-3,0", "-3,3,0,0,1,3",
                   "3,-3,2,0,-1,2", "3,-2,1,-3,-1,-3", "-3,-3,2,1,-3,0"]


@pytest.mark.parametrize(
    "hs", [SEVEN_DEPENDENT, SEVEN_DEPENDENT + ["1,2,-3,1,2,-1"]], ids=["seven-constraints", "eight-constraints"]
)
def test_dependent_intersection_finishes(tmp_path, hs):
    # seven or eight dependent constraints in six unknowns, all met by theta = 0:
    # the document is decided non-empty quickly, in its own process so that a
    # hang fails the test
    doc = tmp_path / "prop.yaml"
    doc.write_text(_constraint_doc(hs))
    proc = _cli_process("design", "--property", str(doc), timeout=10)
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr


def test_gain_past_the_float_range(tmp_path):
    # the closed loop diag(1e400, 1) has characteristic coefficients past float64;
    # its radius reads inf, in a process of its own so that a traceback shows
    doc = tmp_path / "data.yaml"
    doc.write_text('n: 2\nm: 1\nk: 2\nX: "1, 0; 0, 1"\nU: "0, 0"\nXp: "1e400, 0; 0, 1"\n')
    proc = _cli_process("gain", "--data", str(doc))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = dict(line.split(None, 1) for line in proc.stdout.splitlines())
    assert rows["radius"] == "inf" and rows["stabilizing"] == "False" and "marginal" not in rows


def test_counterexample_for_identifiability(tmp_path, capsys):
    prop = tmp_path / "ident.yaml"
    prop.write_text("type: identifiability\nn: 2\nm: 1\n")
    plan = tmp_path / "plan.yaml"
    plan.write_text('n: 2\nm: 1\nk: 2\nX: "1, 0.5; 0, 1"\nU: "-1, -1"\n')
    assert main(["counterexample", "--property", str(prop), "--input", str(plan)]) == EXIT_OK
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert rows["verdict"] == "not_identifiable"
    section = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
    shared = Dataset(section, parse_matrix(rows["shared_Xp"], rows=2, cols=2))
    assert shared.x_plus.is_zero()
    first, second = (SystemPair(parse_matrix(rows[f"system_{i}_A"]), parse_matrix(rows[f"system_{i}_B"])) for i in (1, 2))
    assert first != second
    assert consistent_set_contains(shared, first) and consistent_set_contains(shared, second)


def test_csv_format(sparsity_prop, corner_dataset, capsys):
    assert (
        main(["--format", "csv", "identify", "--property", sparsity_prop, "--data", corner_dataset])
        == EXIT_OK
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("property,")
    assert "has_property" in lines[1]


STRUCTURE_DOC = (
    "type: linear_structure\nn: 2\nm: 0\nconstraints:\n"
    '  - {h: "1, 0, 1, 0", set: [[0, 0]]}\n'
    '  - {h: "0, 1, 0, 1", set: [[-1, 1]]}\n'
)


@pytest.mark.parametrize("verb", ["design", "check", "identify", "counterexample", "recover", "simulate"])
def test_each_verb_validates_the_property_once(tmp_path, monkeypatch, capsys, verb):
    # the document is validated at the boundary and the problem passed down; check
    # --verbose on a deficient plan also lists the missing directions
    (tmp_path / "prop.yaml").write_text(STRUCTURE_DOC)
    (tmp_path / "plan.yaml").write_text('n: 2\nm: 0\nk: 1\nX: "1; 0"\n')
    (tmp_path / "data.yaml").write_text('n: 2\nm: 0\nk: 1\nX: "1; 0"\nXp: "0; 1"\n')
    (tmp_path / "scenario.yaml").write_text(
        "n: 2\nm: 0\nhidden: {A: '0, 1; 2, 1'}\nproperty: prop.yaml\nplan: designed\n"
    )
    files = {flag: str(tmp_path / name) for flag, name in
             [("--property", "prop.yaml"), ("--input", "plan.yaml"), ("--data", "data.yaml"),
              ("--scenario", "scenario.yaml")]}
    flags = {
        "design": ["--property"],
        "check": ["--property", "--input"],
        "identify": ["--property", "--data"],
        "counterexample": ["--property", "--input"],
        "recover": ["--data"],
        "simulate": ["--scenario"],
    }[verb]
    calls = []
    for cls in (LinearStructure, PropertySpec):  # what validate_property runs, however it is reached
        real = cls._validate
        monkeypatch.setattr(cls, "_validate", lambda p, dims, real=real: calls.append(p) or real(p, dims))
    status = main(["--verbose", verb, *(x for flag in flags for x in (flag, files[flag]))])
    assert status in (EXIT_OK, EXIT_NOT_RICH), capsys.readouterr().err
    assert len(calls) == 1


DEPENDENT_PAIR_DOC = (
    "type: linear_structure\nn: 2\nm: 1\nconstraints:\n"
    '  - {h: "1, 0, 0, 0, 0, 0", set: [[0, 2]]}\n'
    '  - {h: "1, 0, 0, 0, 0, 0", set: [[1, 3]]}\n'
)
UNSEEN_A11_PLAN = 'n: 2\nm: 1\nk: 2\nX: "0, 0; 1, 0"\nU: "0, 1"\n'


def test_dependent_intersection_counterexample(tmp_path, capsys):
    # both constraints read a11, and the midpoints 1 and 2 of their intervals
    # disagree; a point of the intersection seats the system with the property
    (tmp_path / "prop.yaml").write_text(DEPENDENT_PAIR_DOC)
    (tmp_path / "plan.yaml").write_text(UNSEEN_A11_PLAN)
    files = ["--property", str(tmp_path / "prop.yaml"), "--input", str(tmp_path / "plan.yaml")]
    assert main(["check", *files]) == EXIT_NOT_RICH
    capsys.readouterr()
    assert main(["--verbose", "counterexample", *files]) == EXIT_OK
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert rows["verdict"] == "counterexample"
    assert rows["with_has_property"] == "True" and rows["without_has_property"] == "False"
    assert rows["with_consistent"] == rows["without_consistent"] == "True"


UNION_DOC = (
    "type: linear_structure\nn: 2\nm: 1\nexpr: 1 | 2\nconstraints:\n"
    '  - {h: "1, 0, 0, 0, 0, 0", set: [[0, 2]]}\n'
    '  - {h: "0, 1, 0, 0, 0, 0", set: [[1, 3]]}\n'
)


@pytest.mark.parametrize("doc", [DEPENDENT_PAIR_DOC, UNION_DOC], ids=["intersection", "expression"])
def test_verbose_check_reads_the_plan_once(tmp_path, eliminations, capsys, doc):
    # validation, one read of the plan for the verdict and the missing
    # directions, and the pivots of the target for its basis
    (tmp_path / "prop.yaml").write_text(doc)
    (tmp_path / "plan.yaml").write_text(UNSEEN_A11_PLAN)
    prop = str(tmp_path / "prop.yaml")
    argv = ["--verbose", "check", "--property", prop, "--input", str(tmp_path / "plan.yaml")]
    assert eliminations(main, argv) == eliminations(specio.load_problem, prop) + 2
    assert "missing_1" in capsys.readouterr().out


KIND_DOCS = {
    "identifiability": "type: identifiability\nn: 2\nm: 1\n",
    "stabilizability": "type: stabilizability\nn: 2\nm: 1\n",
    "controllability": "type: controllability\nn: 2\nm: 1\n",
    "sparsity": "type: sparsity\nn: 2\nm: 1\nzeros_A: [[1, 1]]\n",
    "intersection": DEPENDENT_PAIR_DOC,
    "expression": UNION_DOC,
}
# eliminations of `counterexample` and of `counterexample_for` on UNSEEN_A11_PLAN,
# validation and the staircases of the oracle included, as measured before the
# recipes took one signature; identifiability has no property-split pair.  A zero
# pattern's pair is the plan's read and one projection, with no signed solve
COUNTEREXAMPLE_ELIMINATIONS = {
    "identifiability": (1, None),
    "stabilizability": (3, 3),
    "controllability": (3, 3),
    "sparsity": (2, 2),
    "intersection": (5, 5),
    "expression": (4, 4),
}


@pytest.mark.parametrize("kind", KIND_DOCS)
def test_counterexample_elimination_counts(tmp_path, eliminations, capsys, kind):
    (tmp_path / "prop.yaml").write_text(KIND_DOCS[kind])
    (tmp_path / "plan.yaml").write_text(UNSEEN_A11_PLAN)
    argv = ["counterexample", "--property", str(tmp_path / "prop.yaml"), "--input", str(tmp_path / "plan.yaml")]
    by_cli, by_call = COUNTEREXAMPLE_ELIMINATIONS[kind]
    assert eliminations(main, argv) == by_cli
    assert "verdict" in capsys.readouterr().out
    if by_call is not None:
        problem = specio.load_problem(str(tmp_path / "prop.yaml"))
        section = specio.load_input_section(str(tmp_path / "plan.yaml"))
        assert eliminations(counterexample_for, section, problem.prop) == by_call


def _one_state_structure(count: int, expr: str) -> str:
    rows = "".join('  - {h: "1", set: [[0, 1]]}\n' for _ in range(count))
    return f"type: linear_structure\nn: 1\nm: 0\nconstraints:\n{rows}expr: \"{expr}\"\n"


@pytest.mark.parametrize(
    "count, expr, status, printed",
    [
        (1, "(" * 3000 + "1" + ")" * 3000, EXIT_OK, "{n: 1, m: 0, k: 1, X: '1', U: ''}\n"),
        (1500, " | ".join(map(str, range(1, 1501))), EXIT_BAD_INPUT,
         "bad input: expression mode requires linearly independent constraint vectors\n"),
    ],
    ids=["3000-nested-parentheses", "1500-constraint-union"],
)
def test_deep_or_long_expression_exits_cleanly(tmp_path, capsys, count, expr, status, printed):
    # past the interpreter's frame limit: every expression reader walks the tree on a list
    doc = tmp_path / "prop.yaml"
    doc.write_text(_one_state_structure(count, expr))
    assert main(["design", "--property", str(doc)]) == status
    out, err = capsys.readouterr()
    assert (out if status == EXIT_OK else err) == printed
    assert "Traceback" not in err

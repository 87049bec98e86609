"""The `cli` workload: one `minexcite` process per call, on small YAML documents.

Every call names a verb, its documents and the exit status it must end
with (0, 2 or 3).  Each call also carries a check of its standard output
against the library, run in this process on the same inputs.
"""

from __future__ import annotations

import io
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import yaml

import gen
from minexcite import (
    Controllability,
    Dataset,
    Dims,
    Identifiability,
    Mat,
    Scenario,
    Stabilizability,
    SystemPair,
    Verdict,
    consistent_set_contains,
    design_minimum_input,
    excite,
    format_matrix,
    has_property,
    minimum_subspace,
    parse_matrix,
    rank,
    split_stacked,
)
from minexcite import cli, specio

DIMS = Dims(4, 2)
CHILD_CPU_LIMIT_S = 60
SPANS = (
    "specio.load_property",
    "specio.load_input_section",
    "specio.load_dataset",
    "specio.load_scenario",
    "cli.process",
    "cli.import",
    "cli.main",
)
# document kind -> the span and the loader that reads it
LOADERS = {
    "property": ("specio.load_property", specio.load_property),
    "plan": ("specio.load_input_section", specio.load_input_section),
    "data": ("specio.load_dataset", specio.load_dataset),
    "scenario": ("specio.load_scenario", specio.load_scenario),
}


@dataclass(frozen=True)
class Call:
    sid: int
    argv: tuple
    status: int
    check: Callable[[str], Optional[str]]  # stdout -> None, or what is wrong


@dataclass(frozen=True)
class Outcome:
    status: int
    stdout: str
    stderr: str
    max_rss_kb: int


def _fields(stdout: str) -> dict:
    """`key  value` lines of the text output format."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


def _mat(text: str, rows: int, cols: int) -> Mat:
    return parse_matrix(text, rows=rows, cols=cols) if rows and cols else Mat.zeros(rows, cols)


def _expect(**wanted) -> Callable[[str], Optional[str]]:
    def check(stdout: str) -> Optional[str]:
        got = _fields(stdout)
        for key, value in wanted.items():
            if got.get(key) != value:
                return f"{key} is {got.get(key)!r}, expected {value!r}"
        return None

    return check


def _expect_model(sys: SystemPair):
    return _expect(verdict="identified", A=format_matrix(sys.a), B=format_matrix(sys.b))


def _expect_design(prop, dims: Dims):
    expected = design_minimum_input(prop, dims)

    def check(stdout: str) -> Optional[str]:
        got = specio.load_input_section(yaml.safe_load(stdout))
        return None if got == expected else "designed plan differs from design_minimum_input"

    return check


def _expect_pair(prop, plan):
    """Re-check a printed counterexample with the public oracle."""
    n, m, k = plan.n, plan.m, plan.k

    def check(stdout: str) -> Optional[str]:
        got = _fields(stdout)
        if got.get("verdict") != "counterexample" or "seed" not in got:
            return f"verdict {got.get('verdict')!r}"
        with_sys = SystemPair(_mat(got["with_A"], n, n), _mat(got["with_B"], n, m))
        without = SystemPair(_mat(got["without_A"], n, n), _mat(got["without_B"], n, m))
        shared = Dataset(plan, _mat(got["shared_Xp"], n, k))
        if not (consistent_set_contains(shared, with_sys) and consistent_set_contains(shared, without)):
            return "counterexample system does not reproduce the shared data"
        if not has_property(with_sys, prop) or has_property(without, prop):
            return "counterexample does not split the property"
        return None

    return check


def _expect_consistent_pair(plan):
    n, m, k = plan.n, plan.m, plan.k

    def check(stdout: str) -> Optional[str]:
        got = _fields(stdout)
        first = SystemPair(_mat(got["system_1_A"], n, n), _mat(got["system_1_B"], n, m))
        second = SystemPair(_mat(got["system_2_A"], n, n), _mat(got["system_2_B"], n, m))
        shared = Dataset(plan, _mat(got["shared_Xp"], n, k))
        if first == second or not all(consistent_set_contains(shared, s) for s in (first, second)):
            return "the printed systems are not two distinct consistent models"
        return None

    return check


def _expect_simulated_pair(prop, plan):
    """`simulate` prints both systems but not the feedback: they must agree on the plan."""
    n, m = plan.n, plan.m

    def check(stdout: str) -> Optional[str]:
        got = _fields(stdout)
        if got.get("outcome") != "not_sufficiently_rich":
            return f"outcome {got.get('outcome')!r}"
        with_sys = SystemPair(_mat(got["with_A"], n, n), _mat(got["with_B"], n, m))
        without = SystemPair(_mat(got["without_A"], n, n), _mat(got["without_B"], n, m))
        if excite(with_sys, plan).x_plus != excite(without, plan).x_plus:
            return "the two systems give different data"
        if not has_property(with_sys, prop) or has_property(without, prop):
            return "the two systems do not split the property"
        return None

    return check


def _expect_gain(data: Dataset):
    n, m = data.section.n, data.section.m

    def check(stdout: str) -> Optional[str]:
        got = _fields(stdout)
        gain = _mat(got["K"], m, n)
        loop = _mat(got["closed_loop"], n, n)
        if gain @ data.section.x_minus != data.section.u_minus or loop @ data.section.x_minus != data.x_plus:
            return "K or the closed loop does not reproduce the data"
        return None

    return check


def _expect_bench(scenarios):
    rows = [f"{minimum_subspace(sc.prop, sc.dims).dim},{sc.dims.total}" for sc in scenarios]

    def check(stdout: str) -> Optional[str]:
        lines = stdout.splitlines()[1:]
        got = [",".join(line.rsplit(",", 5)[3:5]) for line in lines]  # labels may hold commas
        return None if got == rows else f"k_min,n+m columns {got}, expected {rows}"

    return check


def _verdict(sys: SystemPair, prop) -> str:
    return Verdict.of(has_property(sys, prop)).value


def _rand_full_rank(rng: random.Random, size: int) -> Mat:
    while True:
        m = gen.rand_mat(rng, size, size, span=2)
        if rank(m) == size:
            return m


def build(seed: int, smoke: bool, workdir: Path) -> tuple:
    """Write the documents under `workdir`; return the calls and the documents by kind."""
    rng = random.Random(f"cli:{seed}")
    dims = DIMS
    docs = {kind: [] for kind in LOADERS}

    def write(kind: str, name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        docs[kind].append(path)
        return str(path)

    def write_prop(name, prop):
        return write("property", name, specio.dump_property(prop, dims))

    def write_plan(name, plan):
        return write("plan", name, specio.dump_input_section(plan))

    def write_data(name, data):
        return write("data", name, specio.dump_dataset(data))

    sparsity = gen.rand_property(rng, "sparsity", dims, 2)
    structure = gen.rand_property(rng, "intersection", dims, 2)
    hidden_sp = gen.rand_hidden(rng, "sparsity", sparsity, dims)
    hidden_st = gen.rand_hidden(rng, "intersection", structure, dims)
    hidden = gen.rand_system(rng, dims)
    sp_rich = design_minimum_input(sparsity, dims)
    st_rich = design_minimum_input(structure, dims)
    sp_poor = gen.deficient_plan(rng, sparsity, dims)
    st_poor = gen.deficient_plan(rng, structure, dims)
    full = split_stacked(_rand_full_rank(rng, dims.total), dims)
    full_poor = gen.deficient_plan(rng, Identifiability(), dims)
    square = split_stacked(
        Mat.vstack([_rand_full_rank(rng, dims.n), gen.rand_mat(rng, dims.m, dims.n)]), dims
    )
    cx_seed = str(rng.randrange(100))
    sc_rich = Scenario(dims, hidden_sp, sparsity, None, seed=1)
    sc_poor = Scenario(dims, hidden_st, structure, st_poor, seed=2)

    p_sp = write_prop("sparsity.yaml", sparsity)
    p_st = write_prop("structure.yaml", structure)
    p_stab = write_prop("stabilizability.yaml", Stabilizability())
    p_ctrl = write_prop("controllability.yaml", Controllability())
    p_id = write_prop("identifiability.yaml", Identifiability())
    i_sp_rich = write_plan("sparsity-rich.yaml", sp_rich)
    i_sp_poor = write_plan("sparsity-poor.yaml", sp_poor)
    i_st_rich = write_plan("structure-rich.yaml", st_rich)
    i_st_poor = write_plan("structure-poor.yaml", st_poor)
    i_full_poor = write_plan("full-poor.yaml", full_poor)
    d_sp_rich = write_data("sparsity-rich-data.yaml", excite(hidden_sp, sp_rich))
    d_sp_poor = write_data("sparsity-poor-data.yaml", excite(hidden_sp, sp_poor))
    d_st_rich = write_data("structure-rich-data.yaml", excite(hidden_st, st_rich))
    d_full = write_data("full-data.yaml", excite(hidden, full))
    d_full_poor = write_data("full-poor-data.yaml", excite(hidden, full_poor))
    gain_data = excite(hidden, square)
    d_square = write_data("square-data.yaml", gain_data)
    s_rich = write("scenario", "scenario-rich.yaml", specio.dump_scenario(sc_rich))
    s_poor = write("scenario", "scenario-poor.yaml", specio.dump_scenario(sc_poor))
    bad = workdir / "malformed.yaml"
    bad.write_text("type: ellipticity\nn: 2\nm: 1\n")

    specs = [
        # (argv, status, check, in the smoke subset)
        (("design", "--property", p_sp), 0, _expect_design(sparsity, dims), True),
        (("design", "--property", p_st), 0, _expect_design(structure, dims), False),
        (("check", "--property", p_sp, "--input", i_sp_rich), 0, _expect(sufficiently_rich="True"), False),
        (("check", "--property", p_sp, "--input", i_sp_poor), 2, _expect(sufficiently_rich="False"), True),
        (("--verbose", "check", "--property", p_st, "--input", i_st_poor), 2, _expect(sufficiently_rich="False"), False),
        (("identify", "--property", p_sp, "--data", d_sp_rich), 0, _expect(verdict=_verdict(hidden_sp, sparsity)), True),
        (("--verbose", "identify", "--property", p_st, "--data", d_st_rich), 0,
         _expect(verdict=_verdict(hidden_st, structure)), False),
        (("identify", "--property", p_stab, "--data", d_full), 0,
         _expect(verdict=_verdict(hidden, Stabilizability())), False),
        (("identify", "--property", p_ctrl, "--data", d_full), 0,
         _expect(verdict=_verdict(hidden, Controllability())), False),
        (("identify", "--property", p_id, "--data", d_full), 0, _expect_model(hidden), False),
        (("identify", "--property", p_sp, "--data", d_sp_poor), 2, _expect(), False),
        (("recover", "--data", d_full), 0, _expect_model(hidden), True),
        (("recover", "--data", d_full_poor), 2, _expect(verdict="not_identifiable"), False),
        (("gain", "--data", d_square), 0, _expect_gain(gain_data), True),
        (("gain", "--data", d_sp_poor), 3, _expect(), False),
        (("counterexample", "--property", p_sp, "--input", i_sp_poor, "--seed", cx_seed), 0,
         _expect_pair(sparsity, sp_poor), True),
        (("counterexample", "--property", p_stab, "--input", i_full_poor), 0,
         _expect_pair(Stabilizability(), full_poor), False),
        (("counterexample", "--property", p_ctrl, "--input", i_full_poor), 0,
         _expect_pair(Controllability(), full_poor), False),
        (("counterexample", "--property", p_id, "--input", i_full_poor), 0, _expect_consistent_pair(full_poor), False),
        (("counterexample", "--property", p_st, "--input", i_st_rich), 0, _expect(verdict="section_is_rich"), False),
        (("simulate", "--scenario", s_rich), 0, _expect(outcome=_verdict(hidden_sp, sparsity)), True),
        (("simulate", "--scenario", s_poor), 2, _expect_simulated_pair(structure, st_poor), False),
        (("--format", "csv", "bench", s_rich, s_poor), 0, _expect_bench([sc_rich, sc_poor]), True),
        (("design", "--property", str(bad)), 3, _expect(), False),
    ]
    calls = [
        Call(i, argv, status, check)
        for i, (argv, status, check, in_smoke) in enumerate(s for s in specs if s[3] or not smoke)
    ]
    return calls, docs


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(args, env: dict, log_dir: Path) -> Outcome:
    """Run one child to completion; its own peak memory comes from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, preexec_fn=_limit_cpu)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


def cli_args(call: Call) -> list:
    return [sys.executable, "-m", "minexcite.cli", *call.argv]


def check(call: Call, outcome: Outcome) -> Optional[str]:
    if "Traceback" in outcome.stderr:
        return "traceback on stderr"
    if outcome.status != call.status:
        return f"exit status {outcome.status}, expected {call.status}"
    try:
        return call.check(outcome.stdout)
    except (KeyError, ValueError, yaml.YAMLError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def render(outcome: Outcome) -> str:
    return f"status {outcome.status}\n{outcome.stdout}"


def main_in_process(call: Call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(list(call.argv))
    return Outcome(status, out.getvalue(), err.getvalue(), 0)


def traced_pass(calls, docs, env: dict, log_dir: Path, tracer, imports: int) -> tuple:
    """Documents through `specio`, each call as a child and in process, and bare
    imports of the command line module.  Returns (attempted, failures, seconds
    spent in the child calls)."""
    failures = []
    sid = 0
    for kind, paths in docs.items():
        name, load = LOADERS[kind]
        for path in paths:
            with tracer.span(name, sid):
                load(path)
            sid += 1
    busy = 0.0
    for call in calls:
        start = time.perf_counter()
        with tracer.span("cli.process", call.sid):
            child = spawn(cli_args(call), env, log_dir)
        busy += time.perf_counter() - start
        with tracer.span("cli.main", call.sid):
            inner = main_in_process(call)
        problem = check(call, child) or (
            None if (inner.status, inner.stdout) == (child.status, child.stdout) else "in-process main differs from the child"
        )
        if problem:
            failures.append((call.sid, problem))
    for i in range(imports):
        with tracer.span("cli.import", i):
            spawn([sys.executable, "-c", "import minexcite.cli"], env, log_dir)
    return 2 * len(calls), failures, busy

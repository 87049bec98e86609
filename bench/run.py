"""Benchmark of minexcite: three closed-loop workloads and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload designed --seed 1 --seconds 50 --trace 0

Workloads (one client, the next call starts when the previous one returns):

- designed:  `harness.run` scenarios whose plan is designed (the rich path);
- deficient: `harness.run` scenarios whose explicit plan misses one
             direction of the minimum subspace (the counterexample path);
- cli:       one `python -m minexcite.cli` child process per call.

BENCHMARK.json lists designed and deficient.  cli runs by hand: each of its
calls lasts a whole start-up of about 200 ms, too long to find a quiet moment
on a shared host, so its figures spread between runs about twice as widely
as the other two's (14 % of the median against 4 to 8 % in one session).  Its
layers are still timed in every traced run.

With `--trace 0` the workload's inputs are run in whole passes within
`--seconds` (at least three passes), every output is checked on the first
pass and must repeat byte for byte on the later ones, and the end-to-end
metrics are printed.  Each input's latency is its fastest pass: on a shared
host other tenants can stretch a call to twice its time for seconds at once,
so the fastest of repeats spread over the whole run is the steadiest read of
what the program itself costs.  The aggregates over inputs are medians and
sums.  Slow spells longer than a run still show in the figures.
With `--trace 1` the inputs are run once untraced and once replayed through
the public calls of each module with a span around each call; a sweep over
the smoke inputs of all three workloads and over kernel inputs of n+m = 12,
24 and 48 then times every layer on every workload.  The spans go to
`.bench_out/` and their per-span totals are printed.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
`--smoke` shrinks every workload to a handful of n+m = 6 inputs.

The sources are imported from `src/` beside this directory; without them
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("designed", "deficient", "cli")
SETUP_SAMPLES = 5  # this process's own, then fresh interpreters half before and half after measuring
MIN_PASSES = 3
CLI_IMPORT_SAMPLES = 3
TAIL_BEYOND = 10


def calib_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python Fraction loop, reported for machine
    drift only; no metric is scaled by it."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 20001):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            if acc.denominator > 10**6:
                acc = Fraction(acc.numerator % 1000, 7)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


class Workload:
    """The inputs of one workload and the functions that run and check them."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        if name == "cli":
            import clicalls

            self.module = clicalls
            self.env = clicalls.child_env(SRC)
            self.items, self.docs = clicalls.build(seed, smoke, workdir)
            self.rss_kb = 0
        else:
            import scenarios

            self.module = scenarios
            self.items = scenarios.build(name, seed, smoke)

    def call(self, item):
        if self.name != "cli":
            return self.module.call(item)
        outcome = self.module.spawn(self.module.cli_args(item), self.env, self.workdir)
        self.rss_kb = max(self.rss_kb, outcome.max_rss_kb)
        return outcome

    def peak_rss_mb(self) -> float:
        if self.name == "cli":
            return self.rss_kb / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(name: str, seed: int, smoke: bool, workdir: Path) -> tuple:
    """Import, input generation and validation; returns the workload and its seconds."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import minexcite

    if Path(minexcite.__file__).resolve().parent != SRC / "minexcite":
        raise SystemExit(f"minexcite was imported from {minexcite.__file__}, not from {SRC}")
    workload = Workload(name, seed, smoke, workdir)
    return workload, time.perf_counter() - start


def setup_sample(args) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(workload: Workload, seconds: float, min_passes: int) -> dict:
    """At least `min_passes` whole passes over the inputs, and more while another
    pass as long as the last one still ends within `seconds`.

    The first pass runs the inputs in order; each later pass in a new seeded
    shuffle, so that the repeats of inputs of one cost land at different
    moments instead of sharing the moments of one block.  The passes take the
    processors this process may use in turn (children inherit the choice):
    a shared host slows one virtual processor at a time, often for minutes,
    and an input's fastest pass then comes from another.
    """
    passes, failures, first = [], [], None
    attempted = 0
    order, shuffler = list(range(len(workload.items))), random.Random(f"order:{workload.seed}")
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    begin, pass_s = time.perf_counter(), 0.0
    try:
        while len(passes) < min_passes or time.perf_counter() - begin + pass_s <= seconds:
            if allowed:
                os.sched_setaffinity(0, {allowed[len(passes) % len(allowed)]})
            pass_start = time.perf_counter()
            latencies, texts = [0.0] * len(order), [""] * len(order)
            for index in order:
                item = workload.items[index]
                start = time.perf_counter()
                try:
                    result, problem = workload.call(item), None
                except Exception as exc:  # a failed call is counted, the run goes on
                    result, problem = None, f"{type(exc).__name__}: {exc}"
                latencies[index] = time.perf_counter() - start
                attempted += 1
                text = f"error {problem}" if problem else workload.module.render(result)
                if problem is None:
                    if first is None:
                        problem = workload.module.check(item, result)
                    elif text != first[index]:
                        problem = "output differs from the first pass"
                if problem:
                    failures.append((item.sid, problem))
                texts[index] = text
            pass_s = time.perf_counter() - pass_start
            if first is None:
                first = texts
            passes.append(latencies)
            shuffler.shuffle(order)
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
    digest = hashlib.sha256("\n\0".join(first).encode()).hexdigest()
    return {"passes": passes, "failures": failures, "attempted": attempted, "digest": digest, "outputs": first}


def tail(samples: list) -> tuple:
    """(percentile, value): the highest whole percentile with TAIL_BEYOND samples above it."""
    pct = max(50, math.floor(100 * (1 - TAIL_BEYOND / len(samples))))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload: Workload, own_setup_s: float) -> tuple:
    fresh = SETUP_SAMPLES - 1
    setups = [own_setup_s] + [setup_sample(args) for _ in range(fresh // 2)]
    calib_start = calib_ms()
    workload.call(workload.items[0])  # untimed warm-up
    result = measure(workload, args.seconds, MIN_PASSES)
    calib_end = calib_ms()
    setups += [setup_sample(args) for _ in range(fresh - fresh // 2)]
    setup_s = statistics.median(setups)
    passes = result["passes"]
    # one latency sample per input: its fastest pass
    samples = [min(lat) * 1000.0 for lat in zip(*passes)]
    throughput = 1000.0 * len(samples) / sum(samples)
    pct, tail_ms = tail(samples)
    failed, attempted = len(result["failures"]), result["attempted"]
    metrics = {
        "throughput_per_s": metric(throughput, "1/s"),
        "latency_p50_ms": metric(statistics.median(samples), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
    }
    n = len(samples)
    print(f"workload {args.workload}, seed {args.seed}: {len(workload.items)} inputs per pass, "
          f"{len(passes)} passes, closed loop with 1 client")
    print(f"  throughput_per_s  {throughput:.4f} 1/s  (inputs over the sum of their latencies)")
    print(f"  latency_p50_ms    {metrics['latency_p50_ms']['value']:.4f} ms  "
          f"({n} samples, one per input, each its fastest of {len(passes)} passes)")
    print(f"  latency_tail_ms   {tail_ms:.4f} ms  (p{pct}, {n} samples, one per input)")
    print(f"  failed_ratio      {failed / attempted:.6f}  ({failed} of {attempted})")
    print(f"  setup_s           {setup_s:.4f} s  (median of {SETUP_SAMPLES} set-ups)")
    print(f"  peak_rss_mb       {metrics['peak_rss_mb']['value']:.2f} MB  "
          f"({'largest child' if args.workload == 'cli' else 'this process'})")
    print(f"  calib_ms          start {calib_start:.2f}, end {calib_end:.2f}")
    print(f"  outputs sha256    {result['digest']}")
    return metrics, attempted, result["failures"]


def span_names() -> tuple:
    import clicalls
    import scenarios

    return scenarios.SPANS + clicalls.SPANS


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for span in span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms"), (f"{span}.failed", "count")]
    names += [("richness.k_used_sum", "count"), ("richness.k_full_sum", "count"),
              ("identify.q_bits_max", "bits"), ("adversary.pair_bits_max", "bits"),
              ("trace.untraced_per_s", "1/s"), ("trace.traced_per_s", "1/s"),
              ("calib.start_ms", "ms"), ("calib.end_ms", "ms")]
    return names


def traced_replay(workload: Workload, tracer, outputs: list) -> tuple:
    """The workload's inputs through spans; (attempted, failures, seconds replayed).

    A scenario replay must reach the outcome `run` reached in `outputs`.
    """
    if workload.name == "cli":
        import clicalls

        return clicalls.traced_pass(workload.items, workload.docs, workload.env, workload.workdir, tracer,
                                    CLI_IMPORT_SAMPLES)
    import scenarios

    failures, first = [], len(tracer.spans)
    for case, text in zip(workload.items, outputs):
        ran = text.split("\n", 1)[0]
        try:
            replayed = scenarios.replay(case, tracer)
        except Exception as exc:  # the span records it too; the run goes on
            failures.append((case.sid, f"replay raised {type(exc).__name__}: {exc}"))
            continue
        if replayed != ran:
            failures.append((case.sid, f"replay reached {replayed}, run reached {ran}"))
    busy = sum(s[2] - s[1] for s in tracer.spans[first:] if s[0] == "harness.run")
    return len(workload.items), failures, busy


def sweep(args, workdir: Path, tracer) -> tuple:
    """Time every layer on every workload: the smoke inputs of all three
    workloads and, outside smoke mode, the kernel inputs of sizes 12 to 48."""
    import scenarios

    attempted, failures = 0, []
    for name in WORKLOADS:
        small = Workload(name, args.seed, True, workdir / f"sweep-{name}")
        outputs = []
        if name != "cli":
            untraced = measure(small, 0.0, 1)
            attempted, failures, outputs = attempted + untraced["attempted"], failures + untraced["failures"], untraced["outputs"]
        tries, problems, _ = traced_replay(small, tracer, outputs)
        attempted, failures = attempted + tries, failures + problems
    if not args.smoke:
        generator = "designed" if args.workload == "cli" else args.workload
        for index, (plan, target, hidden) in enumerate(scenarios.kernel_cases(generator, args.seed)):
            scenarios.replay_kernels(plan, target, hidden, f"kernel-{index}", tracer)
    return attempted, failures


def traced(args, workload: Workload) -> tuple:
    """One untraced pass, then the traced replay and the sweep; per-span totals as metrics."""
    import scenarios
    from tracing import Tracer

    tracer = Tracer()
    calib_start = calib_ms()
    workload.call(workload.items[0])  # untimed warm-up
    untraced = measure(workload, 0.0, 1)
    untraced_per_s = len(workload.items) / sum(untraced["passes"][0])
    tries, failures, busy = traced_replay(workload, tracer, untraced["outputs"])
    traced_per_s = len(workload.items) / busy
    attempted = untraced["attempted"] + tries
    failures = untraced["failures"] + failures
    notes = []
    if args.workload == "designed":
        probes, rejected = scenarios.fm_probes(args.seed, tracer)
        notes.append(f"  fourier-motzkin   {rejected} of {probes} non-empty dependent intersections rejected")
    swept, problems = sweep(args, workload.workdir, tracer)
    attempted, failures = attempted + swept, failures + problems
    calib_end = calib_ms()
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    values = tracer.summary(span_names())
    values.update({name: tracer.counts.get(name, 0) for name in scenarios.COUNTS})
    values.update({"trace.untraced_per_s": untraced_per_s, "trace.traced_per_s": traced_per_s,
                   "calib.start_ms": calib_start, "calib.end_ms": calib_end})
    metrics = {name: metric(values[name], unit) for name, unit in per_layer_names()}
    print(f"workload {args.workload}, seed {args.seed}: traced run over {len(workload.items)} inputs and the "
          f"sweep, {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"  tracing overhead  untraced {untraced_per_s:.4f} 1/s, traced {traced_per_s:.4f} 1/s")
    for line in notes:
        print(line)
    print(f"  calib_ms          start {calib_start:.2f}, end {calib_end:.2f}")
    return metrics, attempted, failures


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a handful of n+m = 6 inputs per workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minexcite" / "__init__.py").is_file():
        print(f"bench: no minexcite sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload, setup_s = set_up(args.workload, args.seed, args.smoke, workdir)
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        if args.trace:
            metrics, attempted, failures = traced(args, workload)
        else:
            metrics, attempted, failures = end_to_end(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for sid, problem in failures[:20]:
        print(f"bench: input {sid} failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

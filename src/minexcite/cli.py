"""Command line front end.

Verbs: design, check, identify, recover, gain, counterexample, simulate,
bench.  Exit statuses: 0 when a verdict or artifact was produced, 2 when
the excitation plan is not sufficiently rich, 3 for malformed or
inapplicable input, a usage error included, 4 for an internal invariant
failure.  A property document is validated once, by
`specio.load_problem`, and the verbs pass that problem down; `check`
reads the plan's span once, for the verdict and the missing directions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

import yaml

from . import specio
from .errors import (
    DimensionMismatch,
    GainNotApplicable,
    InconsistentDataset,
    InternalFault,
    NotSufficientlyRich,
    SectionIsRich,
    SpecValidationError,
)
from .harness import csv_text, efficiency_csv, efficiency_text, report_efficiency, run
from .identify import counterexample_report, gain_from_data, identify_property, system_rows
from .properties import Identifiability, Problem
from .ratmat import format_matrix, read_span
from .richness import design_minimum_input, missing_directions, target_gaps

EXIT_OK = 0
EXIT_NOT_RICH = 2
EXIT_BAD_INPUT = 3
EXIT_INTERNAL = 4


def _emit(pairs, fmt: str) -> None:
    if fmt == "csv":
        print(csv_text(zip(*pairs)))
    else:
        width = max(len(str(k)) for k, _ in pairs)
        for k, v in pairs:
            print(f"{str(k).ljust(width)}  {v}")


def _cmd_design(args) -> int:
    problem = specio.load_problem(args.property)
    section = design_minimum_input(problem.prop, problem.dims, problem)
    text = specio.dump_input_section(section)
    if args.out:
        Path(args.out).write_text(text)
        if args.verbose:
            print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _problem_and_plan(args) -> tuple:
    problem = specio.load_problem(args.property)
    section = specio.load_input_section(args.input)
    if section.dims != problem.dims:
        raise SpecValidationError("plan dimensions disagree with the property document")
    return problem, section


def _cmd_check(args) -> int:
    problem, section = _problem_and_plan(args)
    prop, gaps = problem.prop, target_gaps(read_span(section.stacked()), problem)
    rows = [("property", prop.label()), ("k", section.k), ("sufficiently_rich", not gaps)]
    if gaps and args.verbose:
        for i, col in enumerate(missing_directions(section, prop, problem, gaps)):
            rows.append((f"missing_{i + 1}", format_matrix(col.T)))
    _emit(rows, args.format)
    return EXIT_NOT_RICH if gaps else EXIT_OK


def _cmd_identify(args) -> int:
    problem = specio.load_problem(args.property)
    data = specio.load_dataset(args.data)
    if data.section.dims != problem.dims:
        raise SpecValidationError("dataset dimensions disagree with the property document")
    res = identify_property(data, problem)
    return _emit_identification([("property", problem.prop.label())], res, args)


def _cmd_recover(args) -> int:
    data = specio.load_dataset(args.data)
    return _emit_identification([], identify_property(data, Problem.of(Identifiability(), data.section.dims)), args)


def _emit_identification(rows: list, res, args) -> int:
    rows += [("verdict", res.outcome), *res.facts()]
    if args.verbose:
        rows += res.certificate()
    _emit(rows, args.format)
    return EXIT_NOT_RICH if res.outcome == "not_identifiable" else EXIT_OK


def _cmd_gain(args) -> int:
    data = specio.load_dataset(args.data)
    res = gain_from_data(data)
    rows = [
        ("K", format_matrix(res.gain)),
        ("closed_loop", format_matrix(res.closed_loop)),
        ("radius", f"{res.radius:.12g}"),
        ("stabilizing", res.stabilizing),
    ]
    if res.marginal:
        rows.append(("marginal", True))
    _emit(rows, args.format)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    problem, section = _problem_and_plan(args)
    try:
        res = counterexample_report(section, problem, args.seed)
    except SectionIsRich as exc:
        _emit([("verdict", "section_is_rich"), ("detail", exc)], args.format)
        return EXIT_OK
    _emit_identification([], res, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    sc = specio.load_scenario(args.scenario)
    report = run(sc)
    rows = [
        ("property", sc.prop.label()),
        ("outcome", report.outcome),
        ("k_used", report.k_used),
        ("k_model_based", report.k_model_based),
    ]
    if report.recovered is not None:
        rows += system_rows("", report.recovered)
    if args.verbose and report.q is not None:
        rows.append(("Q", format_matrix(report.q)))
    if report.counterexample is not None:
        rows += system_rows("with_", report.counterexample.sys_with)
        rows += system_rows("without_", report.counterexample.sys_without)
    _emit(rows, args.format)
    return EXIT_NOT_RICH if report.outcome in ("not_sufficiently_rich", "not_identifiable") else EXIT_OK


def _cmd_bench(args) -> int:
    scenarios = [specio.load_scenario(path) for path in args.scenarios]
    rows = report_efficiency(scenarios)
    print(efficiency_csv(rows) if args.format == "csv" else efficiency_text(rows))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are bad input, status 3, not argparse's status 2,
    which would read as a verdict; its subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise SpecValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minexcite",
        description="Minimum excitation design and direct property identification "
        "for unknown discrete linear systems.",
    )
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize the minimum excitation plan")
    p.add_argument("--property", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("check", help="test a plan for sufficient richness")
    p.add_argument("--property", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("identify", help="decide a property from a dataset")
    p.add_argument("--property", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("recover", help="recover the model from persistently exciting data")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("gain", help="read a feedback gain off square state data")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_gain)

    p = sub.add_parser("counterexample", help="certify that a plan is insufficient")
    p.add_argument("--property", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("simulate", help="run a scenario end to end")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="data-efficiency table for scenario files")
    p.add_argument("scenarios", nargs="+")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotSufficientlyRich as exc:
        print(f"not sufficiently rich: {exc}", file=sys.stderr)
        return EXIT_NOT_RICH
    except (SpecValidationError, DimensionMismatch, GainNotApplicable, InconsistentDataset,
            OSError, yaml.YAMLError) as exc:  # OSError: a missing file, or a directory named as one
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalFault as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

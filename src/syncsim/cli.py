"""Command-line surface.

Subcommands:
  run            simulate a scenario, writing a trace and a metrics report
  validate       lint a scenario file without running it
  analyze-clock  extremum analysis of a drift parameter pair
  export-dot     DOT snapshot of a scenario's topology at an instant
  diff-trace     compare two trace files

Exit codes: 0 success, 1 validation error (or differing traces for
diff-trace), 2 runtime error.
"""

import argparse
import hashlib
import json
import math
import sys

from .clocks import ClockParameters, extremum_analysis
from .dotexport import export_graph
from .engine import Engine
from .metrics import metrics_report
from .scenario import Scenario, ScenarioError, build_engine, load_scenario
from .trace import diff_traces, load_trace, trace_bytes, TraceFormatError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build(path: str, seed: int | None = None) -> tuple[Scenario, Engine] | None:
    """The scenario at path and its engine, or None after printing its problems."""
    try:
        scenario = load_scenario(path)
        return scenario, build_engine(scenario, seed)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return None


def _write(path: str, data: bytes) -> bool:
    """Write data to path; False after printing why it could not be written."""
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _finite_or_none(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


def _strict_json(value):
    """value with each float JSON cannot hold (inf, NaN) as None, in every
    dict and list it nests."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    return _finite_or_none(value) if isinstance(value, float) else value


def _cmd_run(args) -> int:
    built = _build(args.scenario, args.seed)
    if built is None:
        return EXIT_VALIDATION
    scenario, engine = built
    try:
        records = engine.run_until(scenario.config.duration)
        metrics = metrics_report(records)
        data = trace_bytes(records)
    except Exception as exc:  # NoRoute-fatal, an int too long to write, and so on
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace and not _write(args.trace, data):
        return EXIT_RUNTIME
    # a delay past the float range writes as null, never as Infinity
    if args.metrics and not _write(args.metrics, (json.dumps(
            _strict_json(metrics), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")):
        return EXIT_RUNTIME
    summary = metrics["messages"]
    print(f"{len(records)} events; messages sent={summary['sent']} "
          f"delivered={summary['delivered']} dropped={summary['dropped']} "
          f"blocked={summary['blocked']}; sync rounds="
          f"{metrics['aggregate']['sync_rounds']} "
          f"(failures={metrics['aggregate']['sync_failures']}); "
          f"trace sha256={hashlib.sha256(data).hexdigest()}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if _build(args.scenario) is None:
        return EXIT_VALIDATION
    print(f"{args.scenario}: OK")
    return EXIT_OK


def _cmd_analyze_clock(args) -> int:
    try:
        params = ClockParameters(alpha0=args.alpha0, beta=args.beta, gamma=args.gamma,
                                 model_kind="quadratic" if args.gamma != 0 else "linear")
    except ValueError as exc:  # a non-finite number, named by its field
        print(f"error: --{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = extremum_analysis(params)
    # a t*, offset or concavity that overflows prints as null, never as NaN
    payload = {
        "has_extremum": report.has_extremum,
        "t_star_s": _finite_or_none(report.t_star),
        "classification": report.classification,
        "concavity_per_s": _finite_or_none(report.concavity),
    }
    if report.has_extremum:
        t = report.t_star
        payload["offset_at_t_star_s"] = _finite_or_none(args.alpha0 + args.beta * t
                                                        + args.gamma * t * t)
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    built = _build(args.scenario)
    if built is None:
        return EXIT_VALIDATION
    if args.time < 0:
        print(f"error: --time {args.time!r}: the snapshot instant must be >= 0 s",
              file=sys.stderr)
        return EXIT_VALIDATION
    if not math.isfinite(args.time):
        print(f"error: --time {args.time!r}: the snapshot instant must be finite",
              file=sys.stderr)
        return EXIT_VALIDATION
    text = export_graph(built[1].view, args.time)
    if args.output:
        if not _write(args.output, text.encode("utf-8")):
            return EXIT_RUNTIME
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_diff_trace(args) -> int:
    try:
        a = load_trace(args.trace_a)
        b = load_trace(args.trace_b)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    summary = diff_traces(a, b)
    if summary["identical"]:
        print(f"traces identical ({summary['records_a']} records)")
        return EXIT_OK
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncsim",
        description="Deterministic clock-synchronization network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    run.add_argument("--trace", default=None, help="trace output path")
    run.add_argument("--metrics", default=None, help="metrics JSON output path")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="lint a scenario file")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=_cmd_validate)

    ana = sub.add_parser("analyze-clock", help="drift extremum analysis")
    ana.add_argument("--beta", type=float, required=True)
    ana.add_argument("--gamma", type=float, required=True)
    ana.add_argument("--alpha0", type=float, default=0.0)
    ana.set_defaults(func=_cmd_analyze_clock)

    dot = sub.add_parser("export-dot", help="export topology snapshot as DOT")
    dot.add_argument("--scenario", required=True)
    dot.add_argument("--time", type=float, default=0.0,
                     help="snapshot instant in simulated seconds")
    dot.add_argument("--output", default=None)
    dot.set_defaults(func=_cmd_export_dot)

    diff = sub.add_parser("diff-trace", help="compare two trace files")
    diff.add_argument("trace_a")
    diff.add_argument("trace_b")
    diff.set_defaults(func=_cmd_diff_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

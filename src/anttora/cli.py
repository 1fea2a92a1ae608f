"""Command line entry points: run, validate, replay."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import replay, run_experiment, summary_table, write_report
from .packets import TraceDecodeError
from .scenario import MODES, ScenarioError, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anttora",
        description="Ant-colony TORA routing simulator for mobile ad hoc networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write report/trace files")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--reps", type=int, default=1, help="repetitions (seeds base..base+K-1)")
    run.add_argument("--mode", choices=MODES, default=None, help="override the scenario mode")
    run.add_argument("--trace", default=None, help="write the packet trace here")
    run.add_argument("--report", default=None, help="write the JSON report here")
    run.set_defaults(handler=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario file and exit")
    val.add_argument("scenario", help="scenario JSON file")
    val.set_defaults(handler=_cmd_validate)

    rep = sub.add_parser("replay", help="recompute metrics from a trace file")
    rep.add_argument("trace", help="trace file produced by `run --trace`")
    rep.add_argument("--report", default=None, help="write recomputed metrics here")
    rep.set_defaults(handler=_cmd_replay)
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return 2
    report = run_experiment(
        scenario,
        repetitions=args.reps,
        mode=args.mode,
        base_seed=args.seed,
        trace_path=args.trace,
    )
    if args.report:
        write_report(args.report, report)
    print(summary_table(report))
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(
        f"ok: {scenario.nodes.count} nodes, {len(scenario.traffic)} flows, "
        f"{scenario.topology.mode} topology, end at {scenario.end_time}s"
    )
    return 0


def _cmd_replay(args) -> int:
    metrics = replay(args.trace)
    payload = metrics.to_dict()
    if args.report:
        write_report(args.report, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, TraceDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

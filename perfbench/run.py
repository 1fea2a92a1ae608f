"""Benchmark for anttora: run, replay, set-up and memory, with an optional
traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A workload at one seed is a suite of
INSTANCES generated scenario files (see workloads.py). The suite is run in
whole cycles, each scenario in a fresh child process (child.py), one at a
time, until the next cycle would end after ``--seconds``. Every scenario
that runs more than once must give the same trace and report digests; when
only one cycle fits, the first scenario runs once more for that check. With ``--trace 1`` every untraced run is
followed by a traced run of the same scenario, and the per-layer metrics are
reported instead of the end-to-end ones.

Every run is checked (replay equals the report, canonical trace order, one
digest per scenario, and the layer-bypass checks of the traced run). The
last line of standard output is one JSON object; the exit code is 1 when
any check failed and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
INSTANCES = 5
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("run_s", "s"),
    ("replay_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# a traced workload that runs these layers has stopped isolating what it
# was chosen for
BYPASS = {
    "static-churn-40n": "engine.step_mobility_calls",
    "mobility-100n-baseline": "aco.path_preference_calls",
}


class ProgramMissing(Exception):
    """The program under test cannot be imported from this checkout."""


def _child(mode: str, scenario: str, workdir: str, spans: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, scenario, workdir, mode]
    if spans:
        cmd.append(spans)
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode == 3:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"problems": [f"run failed: {tail[0]}"]}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    scenarios = []
    for j in range(INSTANCES):
        path = os.path.join(workdir, f"scenario-{j}.json")
        with open(path, "wb") as fh:
            fh.write(workloads.scenario_bytes(workload, seed, j))
        scenarios.append(path)
    spans = os.path.join(OUT, f"spans-{workload}.txt")
    warm = _child("warm", scenarios[0], workdir)  # byte-compiles the program
    plain: list[tuple[int, dict]] = []
    traced_runs: list[tuple[int, dict, dict]] = []
    start = perf_counter()
    cycles = 0
    while True:
        cycle_start = perf_counter()
        for j, scenario in enumerate(scenarios):
            run = _child("plain", scenario, workdir)
            plain.append((j, run))
            if traced:
                traced_runs.append((j, run, _child("traced", scenario, workdir, spans)))
        cycles += 1
        now = perf_counter()
        if now + (now - cycle_start) > start + seconds:
            break
    if cycles == 1 and not traced:
        # a second run of one scenario, so that repeatability is checked
        plain.append((0, _child("plain", scenarios[0], workdir)))
    return {"warm": warm, "plain": plain, "traced": traced_runs, "cycles": cycles}


def judge(workload: str, measured: dict) -> tuple[list[str], int, int]:
    """Every failed check as one line, plus runs attempted and failed."""
    failures = []
    failed: set[int] = set()
    runs = [(j, r) for j, r in measured["plain"]] + [(j, t) for j, _, t in measured["traced"]]
    digests: dict[int, set[tuple[str, str]]] = {}
    for i, (j, r) in enumerate(runs):
        problems = list(r["problems"])
        if "layers" in r and BYPASS.get(workload) and r["layers"][BYPASS[workload]] != 0:
            problems.append(f"{BYPASS[workload]} is {r['layers'][BYPASS[workload]]}, expected 0")
        if "trace_sha256" in r:
            digests.setdefault(j, set()).add((r["trace_sha256"], r["report_sha256"]))
        if problems:
            failed.add(i)
            failures.extend(f"scenario {j}: {p}" for p in problems)
    for j, seen in sorted(digests.items()):
        if len(seen) > 1:
            failed.update(i for i, (k, _) in enumerate(runs) if k == j)
            failures.append(f"scenario {j}: {len(seen)} different trace/report digests over repeated runs")
    if measured["warm"].get("problems"):
        failures.extend(f"warm-up: {p}" for p in measured["warm"]["problems"])
    return failures, len(runs), len(failed)


def summarize(measured: dict, traced: bool) -> tuple[dict, dict]:
    """Median metrics for the result line, and quartiles for the table."""
    ok_plain = [r for _, r in measured["plain"] if not r["problems"]]
    table = {}
    if traced:
        pairs = [(r, t) for _, r, t in measured["traced"] if not r["problems"] and not t["problems"]]
        samples = {name: [t["layers"][name] for _, t in pairs] for name, _ in layers.PER_LAYER if name != "trace.overhead_ratio"}
        samples["trace.overhead_ratio"] = [t["run_s"] / r["run_s"] for r, t in pairs]
        units = dict(layers.PER_LAYER)
    else:
        samples = {name: [r[name] for r in ok_plain] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = _quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        table[name] = (q1, med, q3, len(values))
    return metrics, table


def report(workload: str, seed: int, measured: dict, table: dict, traced: bool, failures: list[str], attempted: int, failed: int) -> None:
    print(f"workload {workload}  seed {seed}  cycles {measured['cycles']}  scenarios {INSTANCES}")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'p25':>12} {'p75':>12} {'n':>4}")
    units = dict(layers.PER_LAYER if traced else END_TO_END)
    for name, (q1, med, q3, n) in table.items():
        print(f"{name:34} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:4d}")
    print(f"{'error_rate':34} {'ratio':6} {failed / attempted:12.6g} {'':>12} {'':>12} {attempted:4d}")
    seen = set()
    for j, r in measured["plain"]:
        if j in seen or r["problems"]:
            continue
        seen.add(j)
        out = " ".join(f"{k}={v}" for k, v in r["outputs"].items())
        print(f"output scenario {j}: trace_sha256={r['trace_sha256']} {out}")
    if traced:
        _print_split(measured)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)


def _print_split(measured: dict) -> None:
    """Median self seconds per span in each phase of the traced runs, and
    how the traced run phase accounts for the untraced run_s."""
    ok = [(r, t) for _, r, t in measured["traced"] if not r["problems"] and not t["problems"]]
    if not ok:
        return
    runs = [t["split"] for _, t in ok]
    accounted = statistics.median(sum(t["split"]["bench.run"].values()) / t["run_s"] for _, t in ok)
    traced_run = statistics.median(t["run_s"] for _, t in ok)
    plain_run = statistics.median(r["run_s"] for r, _ in ok)
    print(
        f"traced run_s {traced_run:.4f} (self times sum to {accounted:.1%} of it), "
        f"untraced run_s {plain_run:.4f}"
    )
    for phase in ("bench.run", "bench.replay"):
        names = sorted({n for split in runs for n in split.get(phase, {})})
        medians = {n: statistics.median(s.get(phase, {}).get(n, 0.0) for s in runs) for n in names}
        total = sum(medians.values())
        print(f"split {phase}: self seconds, median over {len(runs)} traced runs, total {total:.4f}")
        for n, v in sorted(medians.items(), key=lambda kv: -kv[1]):
            if v >= 0.0005:
                print(f"  {n:34} {v:10.4f} {v / total:7.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "anttora", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures, attempted, failed = judge(args.workload, measured)
    metrics, table = summarize(measured, bool(args.trace))
    report(args.workload, args.seed, measured, table, bool(args.trace), failures, attempted, failed)
    expected = [name for name, _ in (layers.PER_LAYER if args.trace else END_TO_END)]
    if any(name not in metrics for name in expected):
        print("error: no successful run to report", file=sys.stderr)
        return 1
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in expected},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

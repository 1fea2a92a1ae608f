"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/suite.py --seeds 1-10 [--workloads a,b] [--seconds 40]
                               [--trace 0|1] [--out FILE]

For each workload it prints every metric by name with its unit, the median
and quartiles over the seeds, the sample count, and the spread (quartile
distance over median), then the error rate over all runs. The exit code is
1 when any run failed a correctness check. ``--out`` writes the same summary
as JSON, with the interpreter version, the core count and the outputs that
pin the simulation of the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, list[str]]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    outputs = [line for line in lines if line.startswith("output ")]
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        return None, outputs
    result = json.loads(lines[-1])
    result["correct"] = result["correct"] and proc.returncode == 0
    return result, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": [seeds[0], seeds[-1]],
        "workloads": {},
    }
    bad = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        first_outputs: list[str] = []
        for seed in seeds:
            result, outputs = _one(workload, seed, args.seconds, args.trace)
            if seed == seeds[0]:
                first_outputs = outputs
            if result is None or not result["correct"]:
                bad += 1
            if result is None:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]
            ), flush=True)
        rows = {}
        print(f"\n{workload}: {len(seeds)} seeds")
        print(f"  {'metric':34} {'unit':6} {'median':>12} {'p25':>12} {'p75':>12} {'n':>3} {'spread':>7}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": units[name], "median": med, "p25": q1, "p75": q3, "n": len(vals), "spread": spread}
            print(f"  {name:34} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(vals):3d} {spread:7.3f}")
        error_rate = failed / attempted if attempted else 1.0
        print(f"  {'error_rate':34} {'ratio':6} {error_rate:12.6g} {'':>12} {'':>12} {attempted:3d}\n", flush=True)
        summary["workloads"][workload] = {
            "metrics": rows,
            "error_rate": error_rate,
            "runs_attempted": attempted,
            f"outputs_seed_{seeds[0]}": first_outputs,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

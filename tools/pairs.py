"""Paired benchmark runs of two checkouts, and whether a gain holds.

    python3 tools/pairs.py PARENT CHANGE --workload W --seed N --seconds S --pairs K

PARENT and CHANGE are two checkouts of this repository. Each pair runs
``perfbench/run.py --workload W --seed N --seconds S`` once in each
checkout, one after the other; the even pairs lead with the parent and the
odd ones with the change, so a host that speeds up or slows down over a pair
favours neither side. Every run compiles the program from its source, as a
fresh checkout does: the script refuses a checkout with a ``__pycache__``
under ``src/`` or ``perfbench/``, and runs with ``PYTHONDONTWRITEBYTECODE=1``.

For each end-to-end metric that ``BENCHMARK.json`` in PARENT lists, the
script prints both sides' medians and quartiles, the pairs the change won,
and whether the change gains on it: it is better in at least 9 of every 10
pairs, and its median beats the parent's by more than the spread between
the parent's quartiles. It also flags a median worse than the parent's by
more than the metric's bound. It uses the standard library only; the exit
code is 1 when a run fails its own checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import NamedTuple


class Verdict(NamedTuple):
    """One metric over paired runs; ``gain`` is whether the change gains."""

    parent_median: float
    change_median: float
    parent_quartiles: tuple[float, float]
    change_quartiles: tuple[float, float]
    wins: int
    pairs: int
    gain: bool
    worse_than_bound: bool


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated within the values."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """Judge one metric from paired runs, ``parent[i]`` with ``change[i]``.

    The change wins a pair when its value is better (``better`` is "lower"
    or "higher"). It gains when it wins at least 9 of every 10 pairs and its
    median is better than the parent's by more than the parent's
    interquartile spread. It is worse than its bound when its median is
    worse than the parent's by more than ``bound`` times the parent's."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pm - cm)  # positive when the change is better
    gain = wins >= math.ceil(0.9 * len(parent)) and gap > pq[1] - pq[0]
    return Verdict(pm, cm, pq, cq, wins, len(parent), gain, -gap > bound * abs(pm))


def bytecode_caches(checkout: str) -> list[str]:
    """The ``__pycache__`` directories under the checkout's program and
    benchmark sources."""
    found = []
    for top in ("src", "perfbench"):
        for root, dirs, _files in os.walk(os.path.join(checkout, top)):
            found += [os.path.join(root, d) for d in dirs if d == "__pycache__"]
    return found


def run_once(checkout: str, args: argparse.Namespace, env: dict) -> dict:
    cmd = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"no result from {checkout}: {proc.stderr.strip()}") from None


def _cell(median: float, q: tuple[float, float]) -> str:
    return f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        raise SystemExit("remove these bytecode caches first:\n" + "\n".join(caches))

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args, env)
            ok = ok and result["correct"] and not result["failed"]
            runs[side].append(result)
        row = "  ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
            for m in end_to_end
        )
        print(f"pair {i + 1} ({order[0]} first): {row}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of --seconds {args.seconds:g}")
    print(f"{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} wins  verdict")
    for m in end_to_end:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        v = verdict(parent, change, m["better"], m["bound"])
        notes = ["gain" if v.gain else "no gain"]
        if v.worse_than_bound:
            notes.append(f"worse than its {m['bound']:.0%} bound")
        print(
            f"{name:<12} {_cell(v.parent_median, v.parent_quartiles):<30}"
            f" {_cell(v.change_median, v.change_quartiles):<30} {v.wins}/{v.pairs}  {', '.join(notes)}"
        )
    failed = sum(r["failed"] for side in runs.values() for r in side)
    attempted = sum(r["attempted"] for side in runs.values() for r in side)
    print(f"failed runs: {failed} of {attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

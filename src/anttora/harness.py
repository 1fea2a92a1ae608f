"""Experiment orchestration: seeded runs, reports, and trace replay.

A run is (scenario, seed, mode) -> (trace, metrics). An experiment repeats
the run over derived seeds (base seed + repetition index), aggregates the
scalar metrics, and writes machine-readable reports plus the trace files
used for golden regression and replay.

The trace streams from the engine to disk and back: the engine writes each
event line to a temporary spool as it happens, the run then writes the
header and copies the spool into the trace file, and both the run and
``replay`` read that file back once, line by line, through
``compute_metrics``: the one strict pass that decodes each event line,
checks its order and folds it. No step holds the whole trace in memory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import ExitStack
from typing import BinaryIO, Iterable

from .engine import Simulation
# validate_trace_order is not called here; perfbench/layers.py wraps it in this module by name
from .metrics import RunMetrics, compute_metrics, ordered_sum, read_trace, validate_trace_order
from .scenario import Scenario

REPORT_SCHEMA = "anttora-report-v1"


def run_single(
    scenario: Scenario,
    seed: int | None = None,
    mode: str | None = None,
    trace_path: str | None = None,
) -> tuple[str | None, RunMetrics, Simulation]:
    """One seeded run, its trace written to ``trace_path`` (to a temporary
    file when None) and then read back through replay's strict pass, so a
    run never reports on a trace that replay would refuse.
    Returns the trace path, or None for a temporary trace, with the metrics
    and the finished ``Simulation``."""
    with ExitStack() as stack:
        path = trace_path
        if path is None:
            path = os.path.join(stack.enter_context(tempfile.TemporaryDirectory()), "run.trace")
        with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
            sim = Simulation(scenario, seed=seed, mode=mode, trace_file=spool).run()
            spool.flush()
            spool.buffer.seek(0)
            write_trace(path, sim.trace_lines(), spool.buffer)
        metrics = compute_metrics(read_trace(path))
    return trace_path, metrics, sim


def _summary_stat(values: list[float]) -> dict:
    if not values:
        return {"mean": 0.0, "min": 0.0, "max": 0.0}
    return {"mean": ordered_sum(values) / len(values), "min": min(values), "max": max(values)}


def run_experiment(
    scenario: Scenario,
    repetitions: int = 1,
    mode: str | None = None,
    base_seed: int | None = None,
    trace_path: str | None = None,
) -> dict:
    """Run ``repetitions`` seeded runs and aggregate their metrics.

    Seed derivation is documented and reproducible: run k uses
    ``base_seed + k``. When ``trace_path`` is given, single runs write to it
    directly and repeated runs append ``_r<k>`` before the extension.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    base = scenario.seed if base_seed is None else base_seed
    runs = []
    for k in range(repetitions):
        seed = base + k
        path = trace_path if repetitions == 1 or trace_path is None else _numbered(trace_path, k)
        _path, metrics, _sim = run_single(scenario, seed=seed, mode=mode, trace_path=path)
        runs.append({"seed": seed, "metrics": metrics.to_dict()})
    report = {
        "schema": REPORT_SCHEMA,
        "mode": mode or scenario.mode,
        "base_seed": base,
        "repetitions": repetitions,
        "runs": runs,
        "summary": {
            "pdr": _summary_stat([r["metrics"]["pdr"] for r in runs]),
            "mean_end_to_end_delay": _summary_stat(
                [r["metrics"]["mean_end_to_end_delay"] for r in runs]
            ),
            "control_packets_total": _summary_stat(
                [float(sum(r["metrics"]["control_packets"].values())) for r in runs]
            ),
            "energy_spent_total": _summary_stat(
                [ordered_sum(r["metrics"]["energy_spent"].values()) for r in runs]
            ),
        },
    }
    return report


def _numbered(path: str, k: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_r{k}{ext}"


def write_trace(path: str, lines: Iterable[str], events: BinaryIO | None = None) -> None:
    """Write ``lines`` to ``path``, one a line, then copy after them the
    bytes of ``events``: lines already encoded and newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
        if events is not None:
            fh.flush()
            shutil.copyfileobj(events, fh.buffer)


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def replay(trace_path: str) -> RunMetrics:
    """Recompute metrics from a trace file; must equal the original report.

    The file is streamed once, through the strict pass of
    :func:`compute_metrics`."""
    return compute_metrics(read_trace(trace_path))


def summary_table(report: dict) -> str:
    """Small plain-text rendition of an experiment report."""
    rows = [
        ("runs", str(report["repetitions"])),
        ("mode", report["mode"]),
        ("base seed", str(report["base_seed"])),
    ]
    for key in ("pdr", "mean_end_to_end_delay", "control_packets_total", "energy_spent_total"):
        st = report["summary"][key]
        rows.append((key, f"mean={st['mean']:.6g} min={st['min']:.6g} max={st['max']:.6g}"))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)

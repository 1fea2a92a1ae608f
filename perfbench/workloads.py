"""Scenario generator for the benchmark workloads.

A workload at one seed is a suite of scenario files, scenario ``instance``
being a pure function of ``(name, seed, instance)``: the same seed gives
byte-identical files and a different seed different ones. The simulator
only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random

MOBILITY_SIDE = 10  # nodes per side of the placement grid
MOBILITY_CELL_M = 100.0
MOBILITY_FLOWS = 10
STATIC_COLS, STATIC_ROWS = 8, 5
STATIC_CUT_PERIOD_S = 2.0

# Inputs are stratified (jittered grids, flows between endpoints a set
# distance apart) so that every scenario of a suite costs about the same and
# the medians a run reports do not hinge on one unlucky draw.


def _rng(family: str, seed: int, instance: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream is stable across
    # processes and Python versions
    return random.Random(f"perfbench/{family}/{seed}/{instance}")


def _flows(rng, far_pairs, count: int, rate: float, start: float, stop: float) -> list[dict]:
    """``count`` flows with distinct sources, drawn from ``far_pairs``."""
    flows = {}
    for src, dst in rng.sample(far_pairs, len(far_pairs)):
        if src not in flows and len(flows) < count:
            flows[src] = dst
    return [
        {
            "source": src,
            "destination": dst,
            "rate_pps": rate,
            "packet_bits": 1000,
            "start_s": round(start + rng.uniform(0.0, 1.0), 3),
            "stop_s": stop,
        }
        for src, dst in sorted(flows.items())
    ]


def mobility_100n(seed: int, instance: int, mode: str = "ant_tora") -> dict:
    """100 random-waypoint nodes with pauses and ten flows.

    Why: the event loop does most of the work here (O(n^2) range-crossing
    scan, preference recomputation, event-heap ordering).
    """
    rng = _rng("mobility-100n", seed, instance)
    end = 10.0
    jitter = 0.4 * MOBILITY_CELL_M
    positions = [
        [round((x + 0.5) * MOBILITY_CELL_M + rng.uniform(-jitter, jitter), 3),
         round((y + 0.5) * MOBILITY_CELL_M + rng.uniform(-jitter, jitter), 3)]
        for y in range(MOBILITY_SIDE)
        for x in range(MOBILITY_SIDE)
    ]
    far_pairs = [
        (a, b)
        for a in range(len(positions))
        for b in range(len(positions))
        if 400.0 <= math.dist(positions[a], positions[b]) <= 600.0
    ]
    side = MOBILITY_SIDE * MOBILITY_CELL_M
    return {
        "nodes": {"count": len(positions), "initial_energy": 100.0, "positions": positions},
        "topology": {
            "mode": "mobility",
            "area": [side, side],
            "speed": [1.0, 10.0],
            "comm_range": 200.0,
            "pause_time": 2.0,
            "step": 1.0,
        },
        # routes outlive few waypoint legs, so cached routes expire and
        # get rediscovered within the run
        "protocol": {"route_ttl_s": 5.0},
        "traffic": _flows(rng, far_pairs, MOBILITY_FLOWS, 4.0, 2.0, end),
        "end_time_s": end,
        "seed": rng.randrange(2**31),
        "mode": mode,
    }


def mobility_100n_baseline(seed: int, instance: int) -> dict:
    """The mobility-100n scenario and seed in baseline_tora mode.

    Why: mobility, link churn and flooding are unchanged but the ACO ranking
    is bypassed, so an aco or preference optimisation must show no change
    here while engine, heap and mobility optimisations show on both.
    """
    return mobility_100n(seed, instance, mode="baseline_tora")


def static_churn_40n(seed: int, instance: int) -> dict:
    """A connected random static graph of 40 nodes with a link cut about
    every two seconds.

    Why: cuts lead to partitions and clear floods while mobility is idle, and
    trace encode plus the metrics fold are about half of the run, so this is
    the workload for trace post-processing; a mobility change predicts no
    change here.
    """
    rng = _rng("static-churn-40n", seed, instance)
    end = 120.0
    cell = {(x, y): y * STATIC_COLS + x for y in range(STATIC_ROWS) for x in range(STATIC_COLS)}
    edges = set()
    # a grid keeps the graph connected; each diagonal is drawn at random
    for (x, y), a in cell.items():
        for dx, dy, p in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, 0.5), (1, -1, 0.5)):
            b = cell.get((x + dx, y + dy))
            if b is not None and rng.random() < p:
                edges.add((min(a, b), max(a, b)))
    adjacency = sorted(edges)
    cut_at = 6.0
    failures = []
    for a, b in rng.sample(adjacency, int((end - cut_at) / STATIC_CUT_PERIOD_S)):
        failures.append({"time_s": round(cut_at + rng.uniform(-0.5, 0.5), 3), "a": a, "b": b})
        cut_at += STATIC_CUT_PERIOD_S
    far_pairs = [
        (a, b)
        for (ax, ay), a in cell.items()
        for (bx, by), b in cell.items()
        if 3 <= abs(ax - bx) + abs(ay - by) <= 4
    ]
    return {
        "nodes": {"count": len(cell), "initial_energy": 100.0},
        "topology": {"mode": "static", "adjacency": [list(e) for e in adjacency]},
        "traffic": _flows(rng, far_pairs, 8, 5.0, 3.0, end),
        "link_failures": failures,
        "end_time_s": end,
        "seed": rng.randrange(2**31),
    }


WORKLOADS = {
    "mobility-100n": mobility_100n,
    "mobility-100n-baseline": mobility_100n_baseline,
    "static-churn-40n": static_churn_40n,
}


def scenario_bytes(name: str, seed: int, instance: int) -> bytes:
    """Canonical JSON bytes of scenario ``instance`` of workload ``name``."""
    data = WORKLOADS[name](seed, instance)
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode("utf-8")

"""Shared scenario builders for engine, harness, and acceptance tests."""

from __future__ import annotations

import random

from anttora.heights import Height
from anttora.packets import HelloAnt, TraceRecord, UpdPacket, decode_trace_record
from anttora.scenario import Scenario, parse_scenario

# event lines with one malformed field: (packet, its field token, the
# malformed replacement, the field the decoder must blame)
MALFORMED_EVENT_FIELDS = {
    "size_bits": (HelloAnt(3, 1.0, 50.0, 0.25, 512), "size_bits=512", "size_bits=twelve", "size_bits"),
    # the height token splits into five numbers, but its reflection bit is 7
    "reflection_bit": (
        UpdPacket(7, Height(1.0, 2, 0, 0, 4)), "height=1.000000:2:0:0:4", "height=1.000000:2:7:0:4", "height"
    ),
    # a negative timestamp, which the encoder refuses
    "negative_timestamp": (
        HelloAnt(3, 1.0, 50.0, 0.25, 512), "0000000001.000000 ", "-000000001.000000 ", "timestamp"
    ),
}


def scenario_dict(n, edges, flows=(), **overrides) -> dict:
    data = {
        "nodes": {"count": n, "initial_energy": 100.0},
        "topology": {"mode": "static", "adjacency": [list(e) for e in edges]},
        "traffic": [dict(f) for f in flows],
        "end_time_s": 8.0,
        "seed": 1,
    }
    data.update(overrides)
    return data


def static_scenario(n, edges, flows=(), **overrides) -> Scenario:
    return parse_scenario(scenario_dict(n, edges, flows, **overrides))


def flow(source, destination, rate=2.0, bits=1000, start=2.0, stop=4.0) -> dict:
    return {
        "source": source,
        "destination": destination,
        "rate_pps": rate,
        "packet_bits": bits,
        "start_s": start,
        "stop_s": stop,
    }


def attach_log(sim) -> list[tuple[int, float, int, str, dict]]:
    """Record every ``hooks.log`` observation of ``sim`` as
    ``(pop_count, now, node, tag, data)``; attach before ``sim.run()``."""
    log = []

    def append(tag, node, now, **data):
        log.append((sim.pop_count, now, node, tag, data))

    sim.hooks.log = append
    return log


def trace_of(sim) -> list[str]:
    """The full trace of a finished run whose event lines went to the
    default in-memory ``trace_file``: header lines, then event lines."""
    return sim.trace_lines() + sim.trace_file.getvalue().splitlines()


def records_of(sim) -> list[TraceRecord]:
    """The event lines of such a run, decoded, in trace order."""
    return [decode_trace_record(line) for line in sim.trace_file.getvalue().splitlines()]


def connected_random_graph(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Deterministic Erdos-Renyi graph, resampled until connected."""
    rng = random.Random(seed)
    while True:
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
        if _connected(n, edges):
            return edges


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 0:
        return True
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n

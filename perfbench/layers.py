"""The traced run: which program functions get a span, and the per-layer
metrics derived from those spans and from the engine's own counters.

Functions imported by name are patched in the importing module, because
that is where the caller looks them up (``anttora.agent.path_preference``,
not ``anttora.aco.path_preference``).
"""

from __future__ import annotations

from spans import SpanRecorder, fold, merge

AGENT_HANDLERS = (
    "on_hello",
    "hello_tick",
    "evaporation_tick",
    "on_qry_request",
    "on_qry_reply",
    "on_upd",
    "on_error",
    "on_clr",
    "on_link_failure",
    "link_up",
    "route_expiry",
    "send_data",
    "start_discovery",
)

# (metric, unit); units follow BENCHMARK.json
PER_LAYER = (
    [
        ("scenario.load_s", "s"),
        ("engine.init_s", "s"),
        ("engine.run_self_s", "s"),
        ("engine.events", "count"),
        ("engine.us_per_event", "us"),
        ("engine.trace_lines_s", "s"),
        ("engine.step_mobility_s", "s"),
        ("engine.step_mobility_calls", "count"),
        ("engine.deliver_calls", "count"),
        ("engine.frames_dropped", "count"),
        ("engine.frame_drop_ratio", "ratio"),
        ("engine.tx_suppressed", "count"),
        ("engine.link_failures", "count"),
    ]
    + [(f"agent.{h}{suffix}", unit) for h in AGENT_HANDLERS for suffix, unit in (("_s", "s"), ("_calls", "count"))]
    + [
        ("agent.reply_per_request", "ratio"),
        ("aco.path_preference_s", "s"),
        ("aco.path_preference_calls", "count"),
        ("aco.pheromone_deposit_s", "s"),
        ("aco.pheromone_deposit_calls", "count"),
        ("aco.candidates_per_preference", "count"),
        ("heights.maintenance_case_s", "s"),
        ("heights.maintenance_case_calls", "count"),
        ("heights.apply_clr_calls", "count"),
        ("heights.new_height_on_reply_calls", "count"),
        ("packets.encode_s", "s"),
        ("packets.encode_calls", "count"),
        ("packets.trace_bytes", "bytes"),
        ("packets.decode_s", "s"),
        ("packets.decode_calls", "count"),
        ("metrics.compute_self_s", "s"),
        ("harness.write_trace_s", "s"),
        ("harness.write_report_s", "s"),
        ("harness.read_trace_s", "s"),
        ("harness.validate_order_s", "s"),
        ("harness.postprocess_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

# spans of the run phase that turn the finished simulation into files
POSTPROCESS = (
    "engine.trace_lines",
    "packets.encode",
    "metrics.compute",
    "packets.decode",
    "harness.write_trace",
    "harness.write_report",
)


class Probe:
    """Spans plus the values that only the traced run can see."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.sims: list = []
        self.candidates = 0

    def install(self) -> None:
        from anttora import agent, engine, harness, metrics, packets, scenario

        rec = self.recorder
        rec.patch(scenario, "load_scenario", "scenario.load")
        for method in ("__init__", "run", "step_mobility", "trace_lines"):
            rec.patch(engine.Simulation, method, f"engine.{method.strip('_')}")
        for handler in AGENT_HANDLERS:
            rec.patch(agent.NodeAgent, handler, f"agent.{handler}")
        rec.patch(agent, "path_preference", "aco.path_preference", adapt=self._count_candidates)
        rec.patch(agent, "pheromone_deposit", "aco.pheromone_deposit")
        for fn in ("maintenance_case", "apply_clr", "new_height_on_reply"):
            rec.patch(agent, fn, f"heights.{fn}")
        rec.patch(packets, "encode_trace", "packets.encode")
        rec.patch(metrics, "decode_trace_record", "packets.decode")
        rec.patch(harness, "compute_metrics", "metrics.compute")
        rec.patch(harness, "run_single", "harness.run_single", adapt=self._keep_sim)
        for fn, name in (
            ("run_experiment", "run_experiment"),
            ("write_trace", "write_trace"),
            ("write_report", "write_report"),
            ("replay", "replay"),
            ("read_trace", "read_trace"),
            ("validate_trace_order", "validate_order"),
        ):
            rec.patch(harness, fn, f"harness.{name}")

    def _count_candidates(self, fn):
        def counted(candidates, weights):
            self.candidates += len(candidates)
            return fn(candidates, weights)

        return counted

    def _keep_sim(self, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.sims.append(result[2])
            return result

        return kept

    def results(self, report: dict, trace_bytes: int) -> tuple[dict[str, float], dict]:
        """Per-layer metrics of one traced run (all but the overhead ratio)
        and the self seconds of every span name within each phase."""
        phases = fold(self.recorder.spans())
        split = {
            phase: {name: row["self_s"] for name, row in rows.items()}
            for phase, rows in phases.items()
        }
        return self._metrics(phases, report, trace_bytes), split

    def _metrics(self, phases: dict, report: dict, trace_bytes: int) -> dict[str, float]:
        rows = merge(phases)
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def row(name: str) -> dict:
            return rows.get(name, empty)

        (sim,) = self.sims
        counters = sim.counters
        events = sim.pop_count
        deliver_calls = counters["frames_sent"] + counters["drop_link_down_at_send"]
        control = report["runs"][0]["metrics"]["control_packets"]
        preference_calls = row("aco.path_preference")["calls"]
        run_phase = phases["bench.run"]
        postprocess = sum(run_phase[n]["self_s"] for n in POSTPROCESS if n in run_phase)
        out = {
            "scenario.load_s": row("scenario.load")["self_s"],
            "engine.init_s": row("engine.init")["self_s"],
            "engine.run_self_s": row("engine.run")["self_s"],
            "engine.events": events,
            "engine.us_per_event": row("engine.run")["total_s"] / events * 1e6 if events else 0.0,
            "engine.trace_lines_s": row("engine.trace_lines")["self_s"],
            "engine.step_mobility_s": row("engine.step_mobility")["self_s"],
            "engine.step_mobility_calls": row("engine.step_mobility")["calls"],
            "engine.deliver_calls": deliver_calls,
            "engine.frames_dropped": counters["frames_dropped"],
            "engine.frame_drop_ratio": counters["frames_dropped"] / deliver_calls if deliver_calls else 0.0,
            "engine.tx_suppressed": counters["tx_suppressed"],
            "engine.link_failures": len(sim.failure_events),
        }
        for h in AGENT_HANDLERS:
            out[f"agent.{h}_s"] = row(f"agent.{h}")["self_s"]
            out[f"agent.{h}_calls"] = row(f"agent.{h}")["calls"]
        out.update({
            "agent.reply_per_request": control["qrep"] / control["qreq"] if control["qreq"] else 0.0,
            "aco.path_preference_s": row("aco.path_preference")["self_s"],
            "aco.path_preference_calls": preference_calls,
            "aco.pheromone_deposit_s": row("aco.pheromone_deposit")["self_s"],
            "aco.pheromone_deposit_calls": row("aco.pheromone_deposit")["calls"],
            "aco.candidates_per_preference": self.candidates / preference_calls if preference_calls else 0.0,
            "heights.maintenance_case_s": row("heights.maintenance_case")["self_s"],
            "heights.maintenance_case_calls": row("heights.maintenance_case")["calls"],
            "heights.apply_clr_calls": row("heights.apply_clr")["calls"],
            "heights.new_height_on_reply_calls": row("heights.new_height_on_reply")["calls"],
            "packets.encode_s": row("packets.encode")["self_s"],
            "packets.encode_calls": row("packets.encode")["calls"],
            "packets.trace_bytes": trace_bytes,
            "packets.decode_s": row("packets.decode")["self_s"],
            "packets.decode_calls": row("packets.decode")["calls"],
            "metrics.compute_self_s": row("metrics.compute")["self_s"],
            "harness.write_trace_s": row("harness.write_trace")["self_s"],
            "harness.write_report_s": row("harness.write_report")["self_s"],
            "harness.read_trace_s": row("harness.read_trace")["self_s"],
            "harness.validate_order_s": row("harness.validate_order")["self_s"],
            "harness.postprocess_share": postprocess / run_phase["bench.run"]["total_s"],
        })
        return out

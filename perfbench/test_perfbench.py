"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import types

import pytest

import layers
import run
import workloads
from spans import SpanRecorder, fold, merge


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_depends_only_on_seed(name):
    for instance in range(run.INSTANCES):
        first = workloads.scenario_bytes(name, 7, instance)
        assert workloads.scenario_bytes(name, 7, instance) == first
        assert workloads.scenario_bytes(name, 8, instance) != first
    suite = {workloads.scenario_bytes(name, 7, j) for j in range(run.INSTANCES)}
    assert len(suite) == run.INSTANCES


def test_baseline_is_the_mobility_scenario_in_baseline_mode():
    ant = json.loads(workloads.scenario_bytes("mobility-100n", 3, 1))
    base = json.loads(workloads.scenario_bytes("mobility-100n-baseline", 3, 1))
    assert ant.pop("mode") == "ant_tora"
    assert base.pop("mode") == "baseline_tora"
    assert ant == base


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_scenarios_are_valid(name):
    from anttora.scenario import parse_scenario

    for instance in range(run.INSTANCES):
        sc = parse_scenario(json.loads(workloads.scenario_bytes(name, 1, instance)))
        assert sc.traffic


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds
    # two calls of c, [5, 6] and [7, 8.5]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 5.0, 6.0, 3),
        ("c", 7.0, 8.5, 3),
        ("other", 11.0, 12.0, -1),
        ("c", 11.5, 11.75, 6),
    ]
    phases = fold(spans)
    rows = phases["root"]
    assert rows["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert rows["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert rows["b"] == {"calls": 1, "total_s": 4.0, "self_s": 1.5}
    assert rows["c"] == {"calls": 3, "total_s": 3.5, "self_s": 3.5}
    assert sum(r["self_s"] for r in rows.values()) == 10.0
    assert phases["other"]["other"]["self_s"] == 0.75
    assert merge(phases)["c"] == {"calls": 4, "total_s": 3.75, "self_s": 3.75}


def test_patched_functions_record_nested_spans_and_are_restored():
    ns = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns.inner, ns.outer = inner, outer
    rec = SpanRecorder()
    rec.patch(ns, "inner", "inner")
    rec.patch(ns, "outer", "outer")
    assert rec.run("phase", ns.outer, 1) == 4
    rec.restore()
    assert ns.inner is inner and ns.outer is outer
    names = [(name, parent) for name, _s, _e, parent in rec.spans()]
    assert names == [("phase", -1), ("outer", 0), ("inner", 1)]
    for _name, start, end, _parent in rec.spans():
        assert end >= start


def test_span_closes_when_the_call_raises():
    ns = types.SimpleNamespace()

    def boom():
        raise KeyError("x")

    ns.boom = boom
    rec = SpanRecorder()
    rec.patch(ns, "boom", "boom")
    with pytest.raises(KeyError):
        ns.boom()
    ((name, start, end, parent),) = rec.spans()
    assert end >= start and parent == -1
    assert rec.run("after", lambda: None) is None
    assert rec.spans()[-1][3] == -1


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_probe_reports_every_layer_metric_and_restores(tmp_path):
    from anttora import agent, harness, scenario

    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "nodes": {"count": 4},
        "topology": {"mode": "static", "adjacency": [[0, 1], [1, 2], [2, 3], [0, 2]]},
        "traffic": [{"source": 0, "destination": 3, "rate_pps": 2.0, "start_s": 2.0, "stop_s": 5.0}],
        "link_failures": [{"time_s": 4.0, "a": 2, "b": 3}],
        "end_time_s": 6.0,
    }))
    originals = (harness.run_experiment, agent.path_preference, agent.NodeAgent.on_hello)
    probe = layers.Probe()
    probe.install()
    rec = probe.recorder
    sc = rec.run("bench.setup", scenario.load_scenario, str(path))
    trace = str(tmp_path / "line.trace")
    report = rec.run("bench.run", harness.run_experiment, sc, trace_path=trace)
    rec.run("bench.replay", harness.replay, trace)
    rec.restore()
    assert (harness.run_experiment, agent.path_preference, agent.NodeAgent.on_hello) == originals
    got, split = probe.results(report, os.path.getsize(trace))
    assert set(got) == {name for name, _ in layers.PER_LAYER} - {"trace.overhead_ratio"}
    assert got["engine.step_mobility_calls"] == 0
    assert got["engine.link_failures"] == 1
    assert got["aco.path_preference_calls"] > 0
    assert got["packets.decode_calls"] == 2 * got["packets.encode_calls"]
    assert 0 < got["harness.postprocess_share"] < 1
    assert set(split) == {"bench.setup", "bench.run", "bench.replay"}

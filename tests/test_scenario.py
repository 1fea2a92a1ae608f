"""Scenario parsing: defaults, strictness, and field-path diagnostics."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import anttora
from anttora.aco import DepositWeights, PreferenceWeights
from anttora.agent import ProtocolParams
from anttora.cli import main as cli_main
from anttora.scenario import (
    LinkSpec,
    NodesSpec,
    ScenarioError,
    TopologySpec,
    load_scenario,
    parse_scenario,
)


def minimal():
    return {
        "nodes": {"count": 2},
        "topology": {"adjacency": [[0, 1]]},
        "traffic": [
            {"source": 0, "destination": 1, "rate_pps": 1.0, "packet_bits": 500,
             "start_s": 1.0, "stop_s": 2.0}
        ],
        "end_time_s": 5.0,
    }


def test_minimal_file_gets_documented_defaults():
    """Every omitted setting is its record's default, compared whole."""
    sc = parse_scenario(minimal())
    assert sc.protocol == ProtocolParams()
    assert sc.links == LinkSpec()
    assert sc.topology._replace(adjacency=()) == TopologySpec()
    assert sc.nodes == NodesSpec(count=2)
    assert sc.protocol.evaporation_period == 1.0
    assert sc.beta_tx == 5e-7
    assert sc.beta_rx == 2.5e-7
    assert sc.mode == "ant_tora"
    assert sc.seed == 0


def test_baseline_mode_sets_protocol_baseline():
    data = minimal()
    data["mode"] = "baseline_tora"
    assert parse_scenario(data).protocol == ProtocolParams(baseline=True)


def test_negative_capacity_names_the_field():
    data = minimal()
    data["links"] = {"capacity_bps": -5.0}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any(p.startswith("links.capacity_bps:") for p in err.value.problems)


def test_unknown_keys_are_rejected_everywhere():
    data = minimal()
    data["frobnicate"] = 1
    data["nodes"]["shape"] = "round"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any(p.startswith("frobnicate:") for p in err.value.problems)
    assert any(p.startswith("nodes.shape:") for p in err.value.problems)


def test_flow_endpoints_must_be_distinct_and_in_range():
    data = minimal()
    data["traffic"].append(
        {"source": 1, "destination": 1, "rate_pps": 1.0, "packet_bits": 1,
         "start_s": 0.0, "stop_s": 1.0}
    )
    data["traffic"].append(
        {"source": 0, "destination": 9, "rate_pps": 1.0, "packet_bits": 1,
         "start_s": 0.0, "stop_s": 1.0}
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any("traffic[1]" in p for p in err.value.problems)
    assert any("traffic[2]" in p for p in err.value.problems)


def test_adjacency_validation():
    data = minimal()
    data["topology"]["adjacency"] = [[0, 0], [0, 5], [0, 1], [1, 0], [True, False]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    msgs = "\n".join(err.value.problems)
    assert "self loops" in msgs
    assert "out of range" in msgs
    assert "duplicate link" in msgs
    # JSON booleans are not node ids, though Python counts them as ints
    assert "adjacency[4]: expected [a, b] node ids" in msgs


def test_mode_and_failure_validation():
    data = minimal()
    data["mode"] = "flooding"
    data["link_failures"] = [{"time_s": -1.0, "a": 0, "b": 1}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    msgs = "\n".join(err.value.problems)
    assert "mode:" in msgs
    assert "link_failures[0]" in msgs


def test_mobility_rejects_static_only_settings():
    data = minimal()
    data["topology"] = {"mode": "mobility", "adjacency": [[0, 1]]}
    data["links"] = {"overrides": [{"a": 0, "b": 1, "capacity_bps": 1e6}]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    msgs = "\n".join(err.value.problems)
    assert "topology.adjacency" in msgs
    assert "links.overrides" in msgs


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("topology", "area", [300.0, 300.0]),
        ("topology", "speed", [1.0, 5.0]),
        ("topology", "comm_range", 120.0),
        ("topology", "pause_time", 2.0),
        ("topology", "step", 0.1),
        ("topology", "placement_seed", 3),
        ("nodes", "positions", [[0.0, 0.0], [50.0, 0.0]]),
    ],
)
def test_static_topology_rejects_mobility_only_settings(section, key, value, tmp_path, capsys):
    # a static run would ignore these settings without a word
    data = minimal()
    data[section][key] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.problems == [f"{section}.{key}: not allowed in static mode"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert f"{section}.{key}: not allowed in static mode" in capsys.readouterr().err


def test_link_overrides_apply_per_edge():
    data = minimal()
    data["nodes"]["count"] = 3
    data["topology"]["adjacency"] = [[0, 1], [1, 2]]
    data["links"] = {"overrides": [{"a": 1, "b": 0, "capacity_bps": 1e5, "propagation_delay_s": 0.01}]}
    sc = parse_scenario(data)
    assert sc.links.params(0, 1) == (1e5, 0.01)
    assert sc.links.params(1, 0) == (1e5, 0.01)
    assert sc.links.params(1, 2) == (2e6, 1e-3)


@pytest.mark.parametrize(
    "overrides, bad, message",
    [
        ([{"a": 0, "b": 1}, {"a": 1, "b": 0, "capacity_bps": 1e5}], 1, "duplicate link (0, 1)"),
        ([{"a": 1, "b": 2}, {"a": 0, "b": 2, "capacity_bps": 1e5}], 1, "link (0, 2) is not in topology.adjacency"),
    ],
)
def test_link_overrides_reject_duplicate_and_dead_entries(overrides, bad, message, tmp_path, capsys):
    data = minimal()
    data["nodes"]["count"] = 3
    data["topology"]["adjacency"] = [[0, 1], [1, 2]]
    data["links"] = {"overrides": overrides}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.problems == [f"links.overrides[{bad}]: {message}"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert f"links.overrides[{bad}]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "topology, problems",
    [
        ({"adjacency": [[0, 1], [1, 2], [2, 3]]}, ["link_failures[0]: link (0, 3) is not in topology.adjacency"]),
        # a mobile pair is linked whenever it is in range, so any pair may be cut
        ({"mode": "mobility"}, []),
    ],
)
def test_static_link_failure_must_name_a_link(topology, problems, tmp_path, capsys):
    # a cut of a static non-link would be accepted and never fire
    data = minimal()
    data["nodes"]["count"] = 4
    data["topology"] = topology
    data["link_failures"] = [{"time_s": 1.0, "a": 3, "b": 0}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == (2 if problems else 0)
    assert [p.strip() for p in capsys.readouterr().err.splitlines() if "link_failures" in p] == problems


def test_validate_lists_weight_problems_in_field_order(tmp_path):
    # the weights are read in their records' field order, so the listing
    # does not depend on the hash seed of the process that validates
    deposit = list(DepositWeights._fields)
    preference = [name for name in PreferenceWeights._fields if name not in ("persistence", "decay")]
    data = minimal()
    data["aco"] = {
        "deposit_weights": {name: -1 for name in deposit},
        "preference_weights": {name: -1 for name in preference},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    src = str(pathlib.Path(anttora.__file__).parents[1])

    def stderr(hash_seed):
        proc = subprocess.run(
            [sys.executable, "-m", "anttora.cli", "validate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            timeout=120,
        )
        assert proc.returncode == 2
        return proc.stderr

    first = stderr("1")
    assert stderr("2") == first
    named = [line.split(":")[0].strip() for line in first.splitlines() if "_weights." in line]
    assert named == [f"aco.deposit_weights.{k}" for k in deposit] + [
        f"aco.preference_weights.{k}" for k in preference
    ]


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("links", {"overrides": [{"b": 1}]}, "links.overrides[0].a: missing key"),
        ("traffic", [{"destination": 1}], "traffic[0].source: missing key"),
        ("link_failures", [{"time_s": 1.0, "b": 1}], "link_failures[0].a: missing key"),
    ],
)
def test_missing_endpoint_is_reported_once(key, value, problem, tmp_path, capsys):
    data = minimal()
    data[key] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.problems == [problem]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert problem in capsys.readouterr().err


def test_load_scenario_from_disk(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal()))
    sc = load_scenario(str(path))
    assert sc.nodes.count == 2

    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError):
        load_scenario(str(missing))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(bad))
    assert "not valid JSON" in err.value.problems[0]


def test_all_problems_reported_at_once():
    data = minimal()
    data["end_time_s"] = -1
    data["seed"] = "seven"
    data["qos"] = {"max_delay_s": 0}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert len(err.value.problems) >= 3


@pytest.mark.parametrize(
    "positions",
    [[["a", 1], [0, 0]], [[None, 1], [0, 0]], [[True, 1], [0, 0]], [[0, 0], [1, False]]],
)
def test_malformed_positions_name_the_entry(positions, tmp_path, capsys):
    data = minimal()
    data["topology"] = {"mode": "mobility"}
    data["nodes"]["positions"] = positions
    bad = next(i for i, p in enumerate(positions) if p != [0, 0])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any(p.startswith(f"nodes.positions[{bad}]:") for p in err.value.problems)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert f"nodes.positions[{bad}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("protocol", "control_bits", 5),
        ("aco", "deposit_weights", 5),
        ("aco", "preference_weights", [1]),
    ],
)
def test_nested_section_must_be_an_object(section, key, value, tmp_path, capsys):
    data = minimal()
    data[section] = {key: value}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert f"{section}.{key}: expected an object, got {value!r}" in err.value.problems
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert f"{section}.{key}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["1e400", "-1e400", "NaN", "Infinity"])
def test_non_finite_numbers_are_rejected(raw, tmp_path, capsys):
    # Python's json reads 1e400 as inf and accepts the NaN/Infinity literals
    text = json.dumps(minimal()).replace('"end_time_s": 5.0', f'"end_time_s": {raw}')
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert [p for p in err.value.problems if p.startswith("end_time_s:")]
    assert cli_main(["validate", str(path)]) == 2
    assert "end_time_s: expected a finite number" in capsys.readouterr().err


def test_non_finite_pair_is_rejected():
    data = minimal()
    data["topology"] = {"mode": "mobility", "area": [float("inf"), 100.0]}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any(p.startswith("topology.area:") for p in err.value.problems)


@pytest.mark.parametrize("speed", [[-5, -1], [-1, 3]])
def test_negative_speed_is_rejected(speed, tmp_path, capsys):
    data = minimal()
    data["topology"] = {"mode": "mobility", "speed": speed}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert f"topology.speed: must be >= 0.0, got {speed!r}" in err.value.problems
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert "topology.speed:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, problems",
    [
        ({"topology": {"mode": "grid", "adjacency": [[0, 1]]}},
         ["topology.mode: expected 'static' or 'mobility', got 'grid'"]),
        ({"topology": {"adjacency": {"a": 0}}},
         ["topology.adjacency: expected a list of [a, b] pairs, got {'a': 0}"]),
        ({"links": {"overrides": {"a": 0}}}, ["links.overrides: expected a list, got {'a': 0}"]),
        ({"links": {"overrides": [5]}}, ["links.overrides[0]: expected an object, got 5"]),
        ({"traffic": {"source": 0}}, ["traffic: expected a list of flows, got {'source': 0}"]),
        ({"traffic": [[0, 1]]}, ["traffic[0]: expected an object, got [0, 1]"]),
        ({"link_failures": 3}, ["link_failures: expected a list, got 3"]),
        ({"link_failures": ["0-1"]}, ["link_failures[0]: expected an object, got '0-1'"]),
        ({"aco": {"persistence": 1.0}}, ["aco.persistence: must be below 1, got 1.0"]),
        ({"aco": {"decay": 1.5}}, ["aco.decay: must be at most 1, got 1.5"]),
        ({"protocol": {"drain_ewma_alpha": 2}}, ["protocol.drain_ewma_alpha: must be at most 1, got 2.0"]),
        ({"normalization": {"delay_s": [1.0, 1.0]}},
         ["normalization: bounds for delay need lo < hi, got (1.0, 1.0)"]),
        ({"traffic": [{"source": 0, "destination": 1, "start_s": 2.0, "stop_s": 2.0}]},
         ["traffic[0].stop_s: must exceed start_s=2.0"]),
        ({"link_failures": [{"time_s": 1.0, "a": 1, "b": 1}]},
         ["link_failures[0]: bad link endpoints (1, 1)"]),
        ({"link_failures": [{"time_s": 1.0, "a": 0, "b": 2}]},
         ["link_failures[0]: bad link endpoints (0, 2)"]),
        ({"nodes": {"count": 2, "positions": [[0.0, 0.0]]}, "topology": {"mode": "mobility"}},
         ["nodes.positions: expected 2 [x, y] pairs"]),
        ({"end_time_s": "ten"}, ["end_time_s: expected a number, got 'ten'"]),
        ([], ["<root>: expected a JSON object"]),
    ],
)
def test_each_malformed_field_is_refused_alone(patch, problems, tmp_path, capsys):
    # ``patch`` replaces top-level keys of the minimal file; a non-object is the whole file
    data = {**minimal(), **patch} if isinstance(patch, dict) else patch
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert err.value.problems == problems
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["validate", str(path)]) == 2
    assert problems[0] in capsys.readouterr().err


def test_top_level_field_paths_have_no_leading_dot():
    data = minimal()
    data["seed"] = "seven"
    data["end_time_s"] = -1
    data["qos"] = 3
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    heads = sorted(p.split(":")[0] for p in err.value.problems)
    assert heads == ["end_time_s", "qos", "seed"]
    assert "seed: expected an integer, got 'seven'" in err.value.problems

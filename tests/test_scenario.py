"""Scenario parsing: defaults, strictness, and field-path diagnostics."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

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
    """Every omitted setting is its dataclass default, compared whole."""
    sc = parse_scenario(minimal())
    assert sc.protocol == ProtocolParams()
    assert sc.links == LinkSpec()
    assert replace(sc.topology, adjacency=()) == TopologySpec()
    assert sc.nodes == NodesSpec(count=2)
    assert sc.evaporation_period == 1.0
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
    data["topology"]["adjacency"] = [[0, 0], [0, 5], [0, 1], [1, 0]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    msgs = "\n".join(err.value.problems)
    assert "self loops" in msgs
    assert "out of range" in msgs
    assert "duplicate link" in msgs


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
    data["topology"]["area"] = [float("inf"), 100.0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert any(p.startswith("topology.area:") for p in err.value.problems)


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

"""Experiment harness: aggregation, reports, replay, and the CLI."""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc

import pytest

import anttora
from anttora import harness, packets
from anttora.cli import main as cli_main
from anttora.engine import Simulation
from anttora.harness import replay, run_experiment, run_single, write_trace
from anttora.metrics import compute_metrics, validate_trace_order
from anttora.packets import DataPacket, HelloAnt, TraceDecodeError, decode_trace_record, encode_trace

from conftest import MALFORMED_EVENT_FIELDS, flow, records_of, scenario_dict, static_scenario, trace_of

RING8 = [(i, (i + 1) % 8) for i in range(8)]
# the header parameters a fold of hello lines needs
BETAS = ["# param beta_tx=1e-06", "# param beta_rx=5e-07"]
DISORDER = "trace packet events are not in canonical order"


def refusals(lines) -> list[str]:
    """What the fold and the standalone order check each refuse ``lines`` with."""
    messages = []
    for check in (compute_metrics, validate_trace_order):
        with pytest.raises(TraceDecodeError) as err:
            check(lines)
        messages.append(str(err.value))
    return messages


def test_single_repetition_summary_equals_run_metrics():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    report = run_experiment(sc, repetitions=1)
    run = report["runs"][0]["metrics"]
    assert report["summary"]["pdr"]["mean"] == run["pdr"]
    assert report["summary"]["pdr"]["min"] == run["pdr"]
    assert report["summary"]["pdr"]["max"] == run["pdr"]
    assert report["summary"]["mean_end_to_end_delay"]["mean"] == run["mean_end_to_end_delay"]


def _left_to_right(values) -> float:
    return functools.reduce(operator.add, values, 0)


def test_report_float_sums_add_left_to_right():
    # from Python 3.12 sum() rounds a float sum as math.fsum mostly does, not
    # as adding one by one does; each sum here tells the two apart, so a
    # report that summed with sum() would read otherwise on 3.12 and later
    delays = [0.1, 0.2, 0.3]
    sent = [DataPacket(0, 1, k, 1000, (0, 1)) for k in range(3)]
    lines = [
        *BETAS,
        *(encode_trace(p, 0.0, seq=k + 1, event="snd", nodes=(0,)) for k, p in enumerate(sent)),
        *(
            encode_trace(p, d, seq=k + 4, event="rcv", nodes=(1,))
            for k, (p, d) in enumerate(zip(sent, delays))
        ),
    ]
    assert _left_to_right(delays) != math.fsum(delays)
    assert compute_metrics(lines).mean_end_to_end_delay == _left_to_right(delays) / 3

    report = run_experiment(static_scenario(8, RING8, flows=[flow(0, 4)]))
    energy = report["runs"][0]["metrics"]["energy_spent"].values()
    assert _left_to_right(energy) != math.fsum(energy)
    assert report["summary"]["energy_spent_total"]["mean"] == _left_to_right(energy)

    tenths = [0.1] * 10
    assert _left_to_right(tenths) != math.fsum(tenths)
    assert harness._summary_stat(tenths)["mean"] == _left_to_right(tenths) / 10


def test_seed_derivation_is_base_plus_index():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    report = run_experiment(sc, repetitions=3, base_seed=40)
    assert [r["seed"] for r in report["runs"]] == [40, 41, 42]


def test_modes_share_the_report_schema_and_both_deliver():
    sc = static_scenario(8, RING8, flows=[flow(0, 4, rate=2.0, start=2.0, stop=5.0)])
    ant = run_experiment(sc, repetitions=1, mode="ant_tora")
    base = run_experiment(sc, repetitions=1, mode="baseline_tora")
    assert set(ant) == set(base)
    assert set(ant["summary"]) == set(base["summary"])
    assert set(ant["runs"][0]["metrics"]) == set(base["runs"][0]["metrics"])
    assert ant["runs"][0]["metrics"]["pdr"] == 1.0
    assert base["runs"][0]["metrics"]["pdr"] == 1.0


def test_replay_reproduces_metrics_exactly(tmp_path):
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    path = tmp_path / "run.trace"
    written, metrics, _sim = run_single(sc, trace_path=str(path))
    assert written == str(path)
    again = replay(str(path))
    assert again.to_dict() == metrics.to_dict()


def test_replay_rejects_disordered_trace(tmp_path):
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    lines = trace_of(Simulation(sc).run())
    events = [l for l in lines if not l.startswith("#")]
    headers = [l for l in lines if l.startswith("#")]
    shuffled = headers + [events[-1]] + events[:-1]
    path = tmp_path / "bad.trace"
    write_trace(str(path), shuffled)
    with pytest.raises(TraceDecodeError):
        replay(str(path))
    assert refusals(shuffled) == [DISORDER, DISORDER]


def test_order_check_survives_seq_past_eight_digits(tmp_path, capsys):
    hello = HelloAnt(0, 0.0, 100.0, 0.0, 512)
    before = encode_trace(hello, 12.5, seq=99_999_999)
    after = encode_trace(hello, 12.5, seq=100_000_000)
    assert after < before  # lexically backwards, yet in (time, seq) order
    validate_trace_order([before, after])
    compute_metrics(BETAS + [before, after])
    assert refusals(BETAS + [encode_trace(hello, 12.5, seq=100_000_001), after]) == [DISORDER, DISORDER]
    assert refusals(BETAS + [before, encode_trace(hello, 12.4, seq=100_000_000)]) == [DISORDER, DISORDER]
    # narrowing back to eight digits at one timestamp sorts lexically forwards
    assert before > after
    assert refusals(BETAS + [after, before]) == [DISORDER, DISORDER]
    # hand-edited timestamps of equal width that sort lexically forwards
    # while time goes backwards
    edited = [
        encode_trace(hello, t, seq=seq).replace(f"{t:017.6f}", spelled)
        for t, seq, spelled in ((10.0, 1, "10.0"), (9.99, 2, "9.99"))
    ]
    assert edited[0].startswith("10.0 00000001 ") and edited[1].startswith("9.99 00000002 ")
    assert refusals(BETAS + edited) == [DISORDER, DISORDER]
    path = tmp_path / "edited.trace"
    write_trace(str(path), BETAS + edited)
    assert cli_main(["replay", str(path)]) == 2
    assert "not in canonical order" in capsys.readouterr().err


def test_check_and_fold_both_skip_a_blank_line():
    line = encode_trace(HelloAnt(0, 0.0, 100.0, 0.0, 512), 1.0, seq=1)
    lines = BETAS + ["", "\n", line + "\n", "\n"]
    validate_trace_order(lines)
    assert compute_metrics(lines).energy_spent == {0: 1e-06 * 512}


def test_run_and_replay_each_read_the_trace_once(tmp_path, monkeypatch):
    opened = []

    def counting(path):
        opened.append(path)
        return read_trace(path)

    read_trace = harness.read_trace
    monkeypatch.setattr(harness, "read_trace", counting)
    path = str(tmp_path / "run.trace")
    run_single(static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)]), trace_path=path)
    assert opened == [path]
    replay(path)
    assert opened == [path, path]


# qreq and qrep lines in the format that still carried min_bandwidth_seen and
# to_visit, and an err line that named a node, not a link; the strict
# decoder's field count must reject them
OLD_FORMAT_LINES = {
    "err": "0000000005.000000 00000310 snd 2 err source=0 originator=2",
    "qreq": "0000000002.000000 00000027 snd 0 qreq request_start_time=2.000000"
    " min_bandwidth_seen=0.000000 source=0 destination=4 visited=0",
    "qrep": "0000000002.005268 00000048 snd 3 qrep hop_count=2 delay=0.002256"
    " energy=99.998336 drain_rate=0.000261 bandwidth=291571.753986 source=0"
    " destination=4 to_visit=2,1,0 path_nodes=3,4 reporter_height=0.000000:0:0:1:3",
}


@pytest.mark.parametrize("token", sorted(OLD_FORMAT_LINES))
def test_old_format_reply_and_request_lines_are_rejected(token, tmp_path, capsys):
    line = OLD_FORMAT_LINES[token]
    with pytest.raises(TraceDecodeError, match=f"{token} line has"):
        decode_trace_record(line)
    path = tmp_path / "old.trace"
    write_trace(str(path), ["# param mode=ant_tora", line])
    assert cli_main(["replay", str(path)]) == 2
    assert f"error: {token} line has" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED_EVENT_FIELDS))
def test_cli_replay_names_a_malformed_event_field(case, tmp_path, capsys):
    packet, good, bad, field_name = MALFORMED_EVENT_FIELDS[case]
    line = encode_trace(packet, 1.0, seq=1).replace(good, bad)
    assert bad in line
    with pytest.raises(TraceDecodeError):
        decode_trace_record(line)
    path = tmp_path / "bad.trace"
    write_trace(str(path), ["# param mode=ant_tora", line])
    assert cli_main(["replay", str(path)]) == 2
    assert f"error: field {field_name!r}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", ["# cachesize t=abc total=3", "# param seed", "# param beta_tx=oops"]
)
def test_cli_replay_rejects_malformed_annotation(bad, tmp_path, capsys):
    lines = trace_of(Simulation(static_scenario(3, [(0, 1), (1, 2)], flows=[flow(0, 2)])).run())
    headers = [l for l in lines if l.startswith("#")]
    events = [l for l in lines if not l.startswith("#")]
    path = tmp_path / "bad.trace"
    write_trace(str(path), headers + [bad] + events)
    assert cli_main(["replay", str(path)]) == 2
    assert f"error: malformed annotation {bad!r}" in capsys.readouterr().err


def test_run_and_replay_memory_stays_flat_as_the_trace_grows(tmp_path, monkeypatch):
    # the trace streams through files, so a run four times as long needs
    # about the same peak memory; holding the trace in memory costs over
    # three bytes per trace byte
    def peak_and_size(end_time):
        sc = static_scenario(
            6, [(i, i + 1) for i in range(5)], flows=[flow(0, 5)], end_time_s=end_time
        )
        path = str(tmp_path / f"{end_time}.trace")
        # a body memo holds up to MEMO_SIZE bodies at any trace length, but how
        # full it is at the peak varies by tens of kilobytes from run to run;
        # one-entry memos keep that out of the difference of the two peaks
        monkeypatch.setattr(packets, "MEMO_SIZE", 1)
        for memo in ("_encoded", "_decoded"):
            monkeypatch.setattr(packets, memo, {})
        tracemalloc.start()
        try:
            run_experiment(sc, trace_path=path)
            replay(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, os.path.getsize(path)

    short_peak, short_size = peak_and_size(50.0)
    long_peak, long_size = peak_and_size(200.0)
    assert long_size > 3 * short_size
    assert long_peak - short_peak < 0.1 * (long_size - short_size)


def test_metrics_include_locality_and_cache_series():
    sc = static_scenario(
        4,
        [(0, 1), (1, 2), (2, 3)],
        flows=[flow(0, 3, rate=2.0, start=2.0, stop=4.0)],
        link_failures=[{"time_s": 5.0, "a": 2, "b": 3}],
        end_time_s=7.0,
    )
    _, metrics, sim = run_single(sc)
    assert metrics.cache_size, "cache series must be sampled"
    assert 1 in metrics.reaction_locality
    assert metrics.reaction_locality[1] == len(sim.reaction_sets[1])


# ---------------------------------------------------------------------------
# CLI


def _write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_writes_report_and_trace(tmp_path, capsys):
    spath = _write_scenario(
        tmp_path, scenario_dict(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    )
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "run.trace"
    code = cli_main(
        ["run", spath, "--seed", "7", "--report", str(report_path), "--trace", str(trace_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pdr" in out
    report = json.loads(report_path.read_text())
    assert report["schema"] == "anttora-report-v1"
    assert report["base_seed"] == 7
    assert trace_path.exists()


def test_cli_run_multiple_reps_numbers_traces(tmp_path, capsys):
    spath = _write_scenario(
        tmp_path, scenario_dict(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    )
    trace_path = tmp_path / "t.trace"
    report_path = tmp_path / "report.json"
    code = cli_main(["run", spath, "--reps", "2", "--trace", str(trace_path), "--report", str(report_path)])
    assert code == 0
    assert (tmp_path / "t_r0.trace").exists()
    assert (tmp_path / "t_r1.trace").exists()
    runs = json.loads(report_path.read_text())["runs"]
    capsys.readouterr()
    for k in range(2):
        assert cli_main(["replay", str(tmp_path / f"t_r{k}.trace")]) == 0
        assert json.loads(capsys.readouterr().out) == runs[k]["metrics"]


def test_cli_run_refuses_zero_reps(tmp_path, capsys):
    spath = _write_scenario(tmp_path, scenario_dict(2, [(0, 1)]))
    assert cli_main(["run", spath, "--reps", "0"]) == 2
    captured = capsys.readouterr()
    assert "--reps must be at least 1" in captured.err
    assert captured.out == ""


def test_cli_leaves_no_file_open(tmp_path):
    # -X dev reports a file that is never closed as a ResourceWarning, which
    # -W error makes an error; a generator dropped mid-file must close it too
    spath = _write_scenario(
        tmp_path, scenario_dict(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    )
    trace, report = tmp_path / "run.trace", tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(anttora.__file__))

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "anttora.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert "ResourceWarning" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        return proc.returncode

    assert cli("run", spath, "--trace", str(trace), "--report", str(report)) == 0
    assert cli("replay", str(trace)) == 0
    lines = trace.read_text().splitlines()
    disordered = tmp_path / "disordered.trace"
    disordered.write_text("\n".join(lines[:-2] + [lines[-1], lines[-2]]) + "\n")
    assert cli("replay", str(disordered)) == 2


def test_cli_validate_accepts_and_rejects(tmp_path, capsys):
    good = _write_scenario(tmp_path, scenario_dict(2, [(0, 1)]))
    assert cli_main(["validate", good]) == 0
    assert "ok:" in capsys.readouterr().out

    bad_data = scenario_dict(2, [(0, 1)])
    bad_data["links"] = {"capacity_bps": -1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_data))
    assert cli_main(["validate", str(bad)]) == 2
    assert "links.capacity_bps" in capsys.readouterr().err


def test_cli_replay_matches_report(tmp_path, capsys):
    spath = _write_scenario(
        tmp_path, scenario_dict(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    )
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "run.trace"
    assert cli_main(["run", spath, "--report", str(report_path), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    replay_path = tmp_path / "replayed.json"
    assert cli_main(["replay", str(trace_path), "--report", str(replay_path)]) == 0
    printed = capsys.readouterr().out
    original = json.loads(report_path.read_text())["runs"][0]["metrics"]
    assert json.loads(printed) == original
    assert replay_path.read_bytes() == (json.dumps(original, indent=2, sort_keys=True) + "\n").encode()
    assert replay_path.read_text() == printed


def test_cli_replay_missing_file_fails(tmp_path, capsys):
    assert cli_main(["replay", str(tmp_path / "missing.trace")]) == 2
    assert "error:" in capsys.readouterr().err


def test_baseline_prefers_first_discovered_route():
    # two disjoint routes with very different quality; ant mode must pick the
    # wide one, baseline sticks with whichever was cached first
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    overrides = [{"a": 0, "b": 2, "capacity_bps": 1e5}, {"a": 2, "b": 3, "capacity_bps": 1e5}]
    sc = static_scenario(
        4, edges,
        flows=[flow(0, 3, rate=1.0, start=2.0, stop=3.0)],
        links={"overrides": overrides},
    )
    _, _, ant = run_single(sc, mode="ant_tora")
    src = ant.agents[0]
    chosen = src._best_first(list(src.toward[3].cache.values()))[0]
    assert chosen.path == (0, 1, 3)
    base = Simulation(sc, mode="baseline_tora").run()
    first = min(base.agents[0].toward[3].cache.values(), key=lambda e: (e.created_at, e.path))
    sent_paths = {r.packet.path for r in records_of(base)
                  if r.event == "snd" and type(r.packet).__name__ == "DataPacket"}
    assert sent_paths == {first.path}

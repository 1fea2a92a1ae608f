r"""Golden traces: every corpus run must reproduce its pinned trace and
report bytes exactly, so a refactor cannot silently change behaviour.

The corpus is ``tests/golden/*.json``; ``tests/golden/digests.json`` names
each run (scenario file and mode) with the SHA-256 of its trace and report.
After a deliberate behaviour change, re-pin with

    PYTHONPATH=src python tests/test_golden.py

and name the change in CHANGES.md. The re-pin prints one line per run whose
digests moved, with its old and new 12-character prefixes.

The same change moves the benchmark's seed-1 trace digests, which CI diffs
against ``tests/golden/bench_seed1.txt`` (one ``<workload> output scenario
k: trace_sha256=...`` line per scenario). Re-pin that file with

    for w in mobility-100n mobility-100n-baseline static-churn-40n; do
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 |
        sed -n "s/^\(output scenario [0-9]*: trace_sha256=[0-9a-f]*\).*/$w \1/p"
    done > tests/golden/bench_seed1.txt

The same runs print each scenario's report numbers after its trace digest;
CI diffs them against ``tests/golden/bench_seed1_outputs.txt``, which a
change to the trace format alone must leave as it is. Re-pin it only for a
change that moves what a run reports, with

    for w in mobility-100n mobility-100n-baseline static-churn-40n; do
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 |
        sed -n "s/^\(output scenario [0-9]*:\) trace_sha256=[0-9a-f]* \(.*\)/$w \1 \2/p"
    done > tests/golden/bench_seed1_outputs.txt

CI also diffs the median of every ``count``-unit row of a traced seed-1 run
against ``tests/golden/bench_seed1_calls.txt`` (one ``<workload> <metric>
<median>`` line per row). Re-pin it only for a behaviour or perf change
that the change names, with

    for w in mobility-100n mobility-100n-baseline static-churn-40n; do
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 |
        awk -v w="$w" '$2 == "count" {print w, $1, $3}'
    done > tests/golden/bench_seed1_calls.txt
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

import pytest

from anttora import metrics, packets
from anttora.engine import Simulation
from anttora.harness import replay, run_experiment, write_report
from anttora.metrics import read_trace
from anttora.packets import decode_trace_record
from anttora.scenario import load_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden"
PINS = GOLDEN / "digests.json"


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(scenario: str, mode: str | None, workdir: pathlib.Path) -> dict:
    trace = workdir / "run.trace"
    report = workdir / "report.json"
    sc = load_scenario(str(GOLDEN / f"{scenario}.json"))
    write_report(str(report), run_experiment(sc, mode=mode, trace_path=str(trace)))
    return {"trace_sha256": _sha256(trace), "report_sha256": _sha256(report)}


PINNED = json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_digests(name, tmp_path):
    pin = PINNED[name]
    got = run_digests(pin["scenario"], pin["mode"], tmp_path)
    assert got == {k: pin[k] for k in got}, f"{name} no longer matches its pinned trace"


def test_mobility_pause_reaches_waypoints_and_pauses():
    # with a pause time, a node picks a waypoint after t=0 only when a pause
    # that began on arrival ends: step_mobility's branches that the larger
    # mobility golden never takes
    sim = Simulation(load_scenario(str(GOLDEN / "mobility_pause.json")))
    # every pick at construction is done, so each one recorded is after t=0
    picks = []
    pick = sim._pick_waypoint
    sim._pick_waypoint = lambda node: (picks.append(node), pick(node))
    sim.run()
    assert len(picks) >= 10


def test_run_and_replay_each_decode_every_event_line_once(tmp_path, monkeypatch):
    # run and replay each fold the trace in one strict pass, which decodes
    # each event line exactly once and folds the record it returns
    decoded = []

    def counting(line):
        decoded.append(line)
        return decode_trace_record(line)

    monkeypatch.setattr(metrics, "decode_trace_record", counting)
    pin = PINNED["barbell_clear"]
    got = run_digests(pin["scenario"], pin["mode"], tmp_path)
    assert got["report_sha256"] == pin["report_sha256"]
    events = [line for line in read_trace(str(tmp_path / "run.trace")) if line and line[0] != "#"]
    assert decoded == events
    replay(str(tmp_path / "run.trace"))
    assert decoded == events + events


def test_run_and_replay_decode_each_run_of_repeated_bodies_once(tmp_path, monkeypatch):
    # barbell_clear has 387 event lines but only 93 distinct bodies (type and
    # fields); run and replay decode all 387 lines each, but strictly parse at
    # most 2 * 93 bodies. The memo starts empty, so no earlier test can make
    # it fill and empty itself partway through the trace.
    bodies = []

    def counting(rest):
        bodies.append(rest)
        return decode_body(rest)

    decode_body = packets._decode_body
    monkeypatch.setattr(packets, "_decode_body", counting)
    monkeypatch.setattr(packets, "_decoded", {})
    pin = PINNED["barbell_clear"]
    run_digests(pin["scenario"], pin["mode"], tmp_path)
    replay(str(tmp_path / "run.trace"))
    events = [line for line in read_trace(str(tmp_path / "run.trace")) if line and line[0] != "#"]
    distinct = {line.split(" ", 4)[4] for line in events}
    assert len(bodies) <= 2 * len(distinct) < len(events)


@pytest.mark.parametrize("name", ["barbell_clear", "mobility_30n"])
def test_golden_digests_hold_when_every_memo_holds_one_body(name, tmp_path, monkeypatch):
    # a one-entry memo is emptied before almost every entry goes in, so the
    # encoder and the decoder both take their eviction paths; each starts
    # empty, or a memo holding this trace's bodies would only hit
    monkeypatch.setattr(packets, "MEMO_SIZE", 1)
    for memo in ("_encoded", "_decoded"):
        monkeypatch.setattr(packets, memo, {})
    pin = PINNED[name]
    got = run_digests(pin["scenario"], pin["mode"], tmp_path)
    assert got == {k: pin[k] for k in got}
    assert replay(str(tmp_path / "run.trace")).to_dict() == json.loads(
        (tmp_path / "report.json").read_text()
    )["runs"][0]["metrics"]
    assert max(len(packets._encoded), len(packets._decoded)) <= 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, pin in sorted(PINNED.items()):
            got = run_digests(pin["scenario"], pin["mode"], pathlib.Path(tmp))
            moved = [
                f"{key} {str(pin.get(key))[:12]} -> {digest[:12]}"
                for key, digest in sorted(got.items())
                if pin.get(key) != digest
            ]
            if moved:
                print(f"{name}: " + ", ".join(moved))
            pin.update(got)
    PINS.write_text(json.dumps(PINNED, indent=2, sort_keys=True) + "\n")

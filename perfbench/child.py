"""One measured run of the program, in a fresh process.

    python3 child.py ROOT SCENARIO WORKDIR MODE [SPANS]

MODE is ``warm`` (import and load only), ``plain`` (timed run, tracing off)
or ``traced`` (per-layer spans; spans are written to SPANS). The run does
what ``anttora run --trace T --report R`` and ``anttora replay T`` do, then
checks the outputs. The last line of standard output is one JSON object.
Exit code 3 means the program under ROOT/src could not be imported.
"""

import sys
from time import perf_counter


def _imported_elsewhere(anttora, root):
    import os

    expected = os.path.realpath(os.path.join(root, "src", "anttora"))
    found = os.path.realpath(os.path.dirname(anttora.__file__))
    return None if found == expected else f"anttora imported from {found}, expected {expected}"


def main(argv):
    root, scenario_path, workdir, mode = argv[:4]
    # set-up is what a fresh `anttora run` pays before simulating: the import
    # and the scenario parse; nothing else is imported before the clock starts
    t0 = perf_counter()
    try:
        import anttora
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    from anttora import harness, scenario

    if mode == "traced":
        from layers import Probe

        probe = Probe()
        probe.install()
        rec = probe.recorder
        call = rec.run
    else:
        probe = None

        def call(_name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    sc = call("bench.setup", scenario.load_scenario, scenario_path)
    setup_s = perf_counter() - t0
    elsewhere = _imported_elsewhere(anttora, root)
    if elsewhere:
        print(f"error: {elsewhere}", file=sys.stderr)
        return 3
    if mode == "warm":
        print("{}")
        return 0

    import os

    trace_path = os.path.join(workdir, f"{os.getpid()}.trace")
    report_path = os.path.join(workdir, f"{os.getpid()}.report.json")

    def run_and_write():
        report = harness.run_experiment(sc, trace_path=trace_path)
        harness.write_report(report_path, report)
        return report

    t1 = perf_counter()
    report = call("bench.run", run_and_write)
    t2 = perf_counter()
    replayed = call("bench.replay", harness.replay, trace_path)
    t3 = perf_counter()

    import json
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe is not None:
        rec.restore()
    result = {
        "setup_s": setup_s,
        "run_s": t2 - t1,
        "replay_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
    }
    result.update(_check(report, replayed, trace_path, report_path))
    if probe is not None:
        result["layers"], result["split"] = probe.results(report, os.path.getsize(trace_path))
        if len(argv) > 4:
            rec.write(argv[4])
    os.remove(trace_path)
    os.remove(report_path)
    print(json.dumps(result, sort_keys=True))
    return 0


def _check(report, replayed, trace_path, report_path):
    """Correctness gate: replay equals the report on disk, the trace is in
    canonical order, and the digests that pin the simulation."""
    import hashlib
    import json

    from anttora.metrics import read_trace, validate_trace_order
    from anttora.packets import TraceDecodeError

    problems = []
    with open(report_path, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    run = on_disk["runs"][0]["metrics"]
    if run != json.loads(json.dumps(replayed.to_dict())):
        problems.append("replayed metrics differ from the report")
    if on_disk != json.loads(json.dumps(report)):
        problems.append("report on disk differs from the returned report")
    try:
        validate_trace_order(read_trace(trace_path))
    except TraceDecodeError as exc:
        problems.append(f"trace order: {exc}")
    with open(trace_path, "rb") as fh:
        trace_sha = hashlib.sha256(fh.read()).hexdigest()
    with open(report_path, "rb") as fh:
        report_sha = hashlib.sha256(fh.read()).hexdigest()
    energy = run["energy_spent"]
    return {
        "problems": problems,
        "trace_sha256": trace_sha,
        "report_sha256": report_sha,
        "outputs": {
            "data_sent": run["data_sent"],
            "data_delivered": run["data_delivered"],
            "pdr": run["pdr"],
            "mean_end_to_end_delay": run["mean_end_to_end_delay"],
            "control_packets": sum(run["control_packets"].values()),
            "energy_spent_j": sum(energy[k] for k in sorted(energy, key=int)),
        },
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

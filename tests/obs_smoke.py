"""CI observability driver — not a pytest module.

Proves the telemetry layer is out-of-band at full-pipeline scale:

1. Reference: ``repro fig9 --adaptive`` with no telemetry at all.
2. Traced:    the identical command with a span trace, JSON event
   logging at DEBUG, and an NDJSON event-log file armed.  Every
   artifact file except ``manifest.json`` (the designated carrier of
   volatile telemetry) must be byte-identical to the reference.
3. The trace must validate against the Chrome trace-event schema, and
   its point spans must reconcile with the manifest: one span per
   sweep point, with the spans' effective Monte-Carlo runs summing to
   the budget's ``mc_runs_effective``.
4. Every line of the event-log file must validate against the NDJSON
   event schema and come from a ``repro.*`` logger.
5. Reference vs traced ``repro all``: the full pipeline, every
   experiment, byte-identical artifacts (minus ``manifest.json`` and
   the intrinsically timing-valued ``ablation-matching``) with
   tracing + JSON logging armed.
6. The traced ``repro all`` manifest's timings add up: for every
   experiment, the unit wall seconds in ``engine.timings.wall_s`` sum to
   no more than ``jobs`` x the experiment's measured ``wall_time_s``
   (plus a 0.05 s allowance), i.e. no unit's time is counted twice.

Exits non-zero on any mismatch.  Run as::

    PYTHONPATH=src python tests/obs_smoke.py

``REPRO_SMOKE_RUNS`` shrinks the budget for a quick local pass.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.events import validate_event_line  # noqa: E402
from repro.obs.trace import validate_trace  # noqa: E402

RUNS = os.environ.get("REPRO_SMOKE_RUNS", "50")

#: Timing-valued by nature: its artifacts legitimately differ run to run.
TIMING_VALUED = {"ablation-matching"}


def run(*argv: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def manifest(out: pathlib.Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def stable_files(out: pathlib.Path) -> list:
    return sorted(
        p.relative_to(out)
        for p in out.rglob("*")
        if p.is_file()
        and p.name != "manifest.json"
        and p.relative_to(out).parts[0] not in TIMING_VALUED
    )


def assert_bundles_identical(ref: pathlib.Path, other: pathlib.Path,
                             label: str) -> None:
    ref_files = stable_files(ref)
    assert ref_files, "reference run produced no artifacts"
    assert stable_files(other) == ref_files, f"{label}: file sets differ"
    mismatched = [
        str(rel)
        for rel in ref_files
        if (other / rel).read_bytes() != (ref / rel).read_bytes()
    ]
    assert not mismatched, f"{label}: bytes differ:\n  " + "\n  ".join(
        mismatched
    )
    print(f"{label}: {len(ref_files)} artifact files byte-identical")


def check_trace(trace_path: pathlib.Path, out: pathlib.Path) -> None:
    """Schema-validate the trace and reconcile it with the manifest."""
    events = validate_trace(json.loads(trace_path.read_text()))
    assert events, "trace is empty"
    points = [e for e in events if e["name"] == "point"]
    budget = manifest(out)["experiments"]["fig9"]["provenance"]["budget"]
    assert len(points) > 0, "trace has no point spans"
    spent = sum(e["args"]["effective"] for e in points)
    assert spent == budget["mc_runs_effective"], (
        f"trace point spans account for {spent} Monte-Carlo runs, "
        f"manifest says {budget['mc_runs_effective']}"
    )
    for event in points:
        args = event["args"]
        assert args["effective"] <= args["requested"], args
    print(
        f"trace OK: {len(events)} events, {len(points)} point spans, "
        f"{spent} effective runs reconciled with the manifest"
    )


#: Clock-granularity allowance of the timing reconciliation, in seconds.
TIMING_SLACK_S = 0.05


def check_timings(out: pathlib.Path) -> None:
    """Every experiment's unit wall time fits in jobs x its wall time."""
    experiments = manifest(out)["experiments"]
    for name, entry in sorted(experiments.items()):
        provenance = entry["provenance"]
        engine = provenance["engine"]
        unit_wall = engine.get("timings", {}).get("wall_s", 0.0)
        budget = engine["jobs"] * provenance["wall_time_s"] + TIMING_SLACK_S
        assert unit_wall <= budget, (
            f"{name}: engine.timings.wall_s = {unit_wall} s exceeds "
            f"jobs x wall_time_s + {TIMING_SLACK_S} = {budget:.6f} s"
        )
    print(f"timings OK: {len(experiments)} experiments reconcile with wall time")


def check_event_log(log_path: pathlib.Path) -> None:
    lines = [
        line for line in log_path.read_text().splitlines() if line.strip()
    ]
    assert lines, "event log is empty"
    events = [validate_event_line(line) for line in lines]
    named = sorted({e["event"] for e in events if e.get("event")})
    print(f"event log OK: {len(events)} NDJSON lines, events {named}")


def main() -> int:
    base = pathlib.Path(tempfile.mkdtemp(prefix="repro-obs-"))
    out_ref, out_traced = base / "fig9-ref", base / "fig9-traced"
    trace_path = base / "fig9.trace.json"
    log_path = base / "fig9.events.ndjson"

    # Adaptive stopping exercises the most telemetry surface per run:
    # early-stopped points, per-point effective budgets, funnel phases.
    fig9 = ("fig9", "--runs", RUNS, "--adaptive")
    run(*fig9, "--out", str(out_ref))
    run(
        *fig9, "--out", str(out_traced),
        "--trace", str(trace_path),
        "--log-level", "debug", "--log-json", "--log-file", str(log_path),
    )

    assert_bundles_identical(out_ref, out_traced, "fig9 traced vs reference")
    check_trace(trace_path, out_traced)
    check_event_log(log_path)

    # Full pipeline: telemetry armed across every experiment.
    all_ref, all_traced = base / "all-ref", base / "all-traced"
    all_trace = base / "all.trace.json"
    run("all", "--runs", RUNS, "--out", str(all_ref))
    run(
        "all", "--runs", RUNS, "--out", str(all_traced),
        "--trace", str(all_trace), "--log-json",
    )
    assert_bundles_identical(all_ref, all_traced, "all traced vs reference")
    events = validate_trace(json.loads(all_trace.read_text()))
    experiments = len(manifest(all_traced)["experiments"])
    print(f"all trace OK: {len(events)} events across {experiments} experiments")
    check_timings(all_traced)

    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

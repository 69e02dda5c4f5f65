"""The repo benchmark: three workloads, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Every measured program run is a fresh
interpreter started through ``perfbench/child.py``, because a CLI user pays
import and chip fit on every invocation.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it are a readable table with
sample counts.  See ``perfbench/README.md`` for why each workload exists
and which layer metric should move which end-to-end metric.

Workloads (the program's inputs come from ``--seed`` alone):

``paper-all``
    ``repro all --runs 200 --seed S --out DIR``: the whole paper pipeline,
    dominated by the functional funnel's residue.
``fig9-adaptive``
    ``repro fig9 --runs 20000 --target-ci 0.004 --seed S``: kernel and
    sampling bound, never enters the funnel.
``serve-mixed``
    ``repro serve --cache DIR`` under a closed loop of point requests with
    repeats (see ``serve_load.py``).

For the two CLI workloads ``--seed n`` picks the workload seed
``WORKLOAD_SEEDS[n % 2]`` (the default seed 2005 and a held-out seed), the
seeds whose per-experiment result digests ``reference.json`` stores; every
run is checked against them.  ``--seconds`` bounds how many invocations one
run makes: it starts another only while the longest so far would still end
in time, and always makes at least one (one of each kind when traced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
from typing import Callable, Dict, List, Optional, Sequence

import spans
from procs import (
    HERE, ROOT, SPEC, Failure, Work, finish, launch, median_dict, percentile, repeat,
    setup_probe,
)

WORKLOAD_SEEDS = (2005, 4242)
#: import-only launches per run, on top of each measured invocation's own
#: set-up, so the reported set-up median rests on several samples
SETUP_PROBES = 4
#: experiments whose output table measures wall-clock seconds: their
#: digest is taken over the table without that column
TIMED_COLUMNS = {"ablation-matching": "seconds"}


# -- CLI workloads -------------------------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def experiment_digests(out_dir: str) -> Dict[str, str]:
    """Per-experiment result digests of one ``--out`` bundle.

    The manifest's provenance digest, except for experiments whose table
    measures time: for those, a digest of the table without that column.
    """
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        experiments = json.load(fh)["experiments"]
    digests = {}
    for name, entry in experiments.items():
        column = TIMED_COLUMNS.get(name)
        if column is None:
            digests[name] = entry["provenance"]["digest"]
            continue
        with open(os.path.join(out_dir, entry["files"]["json"])) as fh:
            table = json.load(fh)
        drop = table["headers"].index(column)
        kept = [[cell for i, cell in enumerate(row) if i != drop]
                for row in [table["headers"], *table["rows"]]]
        digests[name] = hashlib.sha256(json.dumps(kept).encode()).hexdigest()
    return digests


class CliWorkload:
    """A CLI command, and how to read its result digests."""

    def __init__(self, name: str, argv: Callable[[int], List[str]], bundle: bool):
        self.name = name
        self.argv = argv
        self.bundle = bundle

    def command(self, seed: int, out_dir: str) -> List[str]:
        return self.argv(seed) + (["--out", out_dir] if self.bundle else [])

    def digests(self, out_dir: str, stdout_path: str) -> Dict[str, str]:
        if self.bundle:
            return experiment_digests(out_dir)
        return {self.name: sha256_file(stdout_path)}


CLI_WORKLOADS = {
    "paper-all": CliWorkload(
        "paper-all", lambda s: ["all", "--runs", "200", "--seed", str(s)], bundle=True,
    ),
    "fig9-adaptive": CliWorkload(
        "fig9-adaptive",
        lambda s: ["fig9", "--runs", "20000", "--target-ci", "0.004", "--seed", str(s)],
        bundle=False,
    ),
}


def load_reference() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def invoke_cli(work: Work, workload: CliWorkload, seed: int, mode: str) -> Dict[str, object]:
    out_dir = work.path("out")
    stdout_path = work.path("stdout")
    proc, report, launched, err = launch(
        work, mode, workload.command(seed, out_dir), stdout_path
    )
    data, exited = finish(proc, report, err)
    result = {
        "setup_s": data["import_done"] - launched,
        "import_s": data["import_done"] - data["import_start"],
        "wall_s": data["main_end"] - data["main_start"],
        "latency_s": exited - launched,
        "rss_mb": data["maxrss_kb"] / 1024.0,
        "digests": workload.digests(out_dir, stdout_path),
    }
    if mode == "trace":
        layers = spans.summarize(data["spans"], data["counts"], result["wall_s"])
        layers["artifacts.bytes"] = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(out_dir) for f in files
        )
        result["layers"] = layers
        result["checks"] = spans.checks(layers, data["counts"], result["wall_s"], cached=False)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def run_cli(name: str, seed: int, seconds: float, trace: bool, work: Work) -> Dict[str, object]:
    workload = CLI_WORKLOADS[name]
    wseed = WORKLOAD_SEEDS[seed % len(WORKLOAD_SEEDS)]
    expected = load_reference()[name][str(wseed)]
    print(f"# {name}: workload seed {wseed}, {'traced' if trace else 'untraced'}")
    # Half the probes before the invocations and half after, so that the
    # set-up median does not rest on one moment of a shared host.
    setups = [setup_probe(work) for _ in range(SETUP_PROBES // 2)]
    modes = ("trace", "plain") if trace else ("plain",)
    invocations = repeat(modes, seconds, lambda mode: invoke_cli(work, workload, wseed, mode))
    setups += [setup_probe(work) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted = failed = 0
    for inv in invocations:
        attempted += len(expected)
        bad = sorted(k for k in expected.keys() | inv["digests"].keys()
                     if expected.get(k) != inv["digests"].get(k))
        failed += min(len(bad), len(expected))
        for k in bad:
            print(f"# MISMATCH {name} seed {wseed} {inv['mode']}: {k}", file=sys.stderr)
    plain = [inv for inv in invocations if inv["mode"] == "plain"]
    setups += [inv["setup_s"] for inv in invocations]
    latencies_ms = [inv["latency_s"] * 1000 for inv in plain]
    samples = {
        "setup_s": setups,
        "wall_s": [inv["wall_s"] for inv in plain],
        # Every CLI invocation is cold (no cache, nothing reused), so the
        # latency metrics read the launch-to-exit time of the invocations.
        "cold_p50_ms": latencies_ms, "cold_p99_ms": latencies_ms,
        "warm_p50_ms": latencies_ms, "warm_p99_ms": latencies_ms,
        "peak_rss_mb": [inv["rss_mb"] for inv in plain],
    }
    e2e = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.median(samples["wall_s"]),
        "cold_p50_ms": statistics.median(latencies_ms),
        "cold_p99_ms": percentile(latencies_ms, 99),
        "warm_p50_ms": statistics.median(latencies_ms),
        "warm_p99_ms": percentile(latencies_ms, 99),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    result = {"attempted": attempted, "failed": failed, "e2e": e2e,
              "samples": {k: len(v) for k, v in samples.items()}}
    if trace:
        traced = [inv for inv in invocations if inv["mode"] == "trace"]
        layers = median_dict([inv["layers"] for inv in traced])
        traced_wall = statistics.median(inv["wall_s"] for inv in traced)
        layers["import.s"] = statistics.median(inv["import_s"] for inv in invocations)
        layers["serve.cold_overhead_p50_ms"] = 0.0
        layers["serve.warm_overhead_p50_ms"] = 0.0
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_frac"] = (traced_wall - e2e["wall_s"]) / e2e["wall_s"]
        result["layers"] = layers
        result["checks"] = spans.all_pass([inv["checks"] for inv in traced])
        if name == "paper-all":
            result["why"] = [("funnel.s > wall_s / 2",
                              layers["funnel.s"] > traced_wall / 2)]
        else:
            result["why"] = [
                ("kernel.count_s + defects.sample_s > wall_s / 2",
                 layers["kernel.count_s"] + layers["defects.sample_s"] > traced_wall / 2),
                ("funnel.calls == 0", layers["funnel.calls"] == 0),
            ]
    return result


# -- output --------------------------------------------------------------------

def load_spec() -> Dict[str, object]:
    with open(SPEC) as fh:
        return json.load(fh)


def emit(result: Dict[str, object], trace: bool) -> int:
    spec = load_spec()
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["e2e"]
    samples = result.get("samples", {})
    metrics = {}
    for entry in entries:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        count = samples.get(entry["name"])
        print(f"{entry['name']:<28} {value:>14.6g} {entry['unit']:<6}"
              + (f"  n={count}" if count is not None else ""))
    if not trace:
        # Printed for the reader but not gated: their run-to-run spread on a
        # shared 2-CPU host exceeds 0.25, the widest bound in BENCHMARK.json.
        for name in sorted(values.keys() - metrics.keys()):
            print(f"{name:<28} {values[name]:>14.6g} {name.rsplit('_', 1)[1]:<6}"
                  f"  n={samples[name]}  (not gated)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':<28} {failed / attempted:>14.6g} ratio   "
          f"({failed} failed / {attempted} attempted; not gated)")
    checks = result.get("checks", [])
    for label, ok in checks + result.get("why", []):
        print(f"# {'ok ' if ok else 'NOT'} {label}")
    correct = failed == 0 and all(ok for _label, ok in checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*CLI_WORKLOADS, "serve-mixed"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    # A run stopped with SIGTERM unwinds, so Work.close reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = Work()
    try:
        if args.workload == "serve-mixed":
            import serve_load

            result = serve_load.run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = run_cli(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        work.close()
    return emit(result, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

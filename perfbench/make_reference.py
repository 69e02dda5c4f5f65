"""Regenerate ``reference.json``: the result digests every run is checked against.

    python3 perfbench/make_reference.py

Runs each CLI workload once per workload seed and stores its
per-experiment digests.  Only a change that alters fixed-seed output on
purpose (and says so) regenerates this file.
"""

import json
import os
import sys

import run


def main() -> int:
    work = run.Work()
    reference = {}
    try:
        for name, workload in run.CLI_WORKLOADS.items():
            reference[name] = {}
            for seed in run.WORKLOAD_SEEDS:
                inv = run.invoke_cli(work, workload, seed, "plain")
                reference[name][str(seed)] = dict(sorted(inv["digests"].items()))
                print(f"{name} seed {seed}: {len(inv['digests'])} digests", file=sys.stderr)
    finally:
        work.close()
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

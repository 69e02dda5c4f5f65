"""Collect result sets: run the benchmark over seeds, one JSON line per run.

    python3 perfbench/collect.py --workload fig9-adaptive --seeds 1-10 --out a.jsonl
    python3 perfbench/collect.py --workload paper-all --seeds 1-10 \\
        --checkout ../parent --out parent.jsonl --checkout . --out change.jsonl

Each run is the ``command`` of the root ``BENCHMARK.json``, untraced,
with ``--workload``, ``--seed`` and ``--seconds`` set to its
``run_seconds``, started in its checkout's root.  With two checkouts the
runs alternate per seed, and which side goes first alternates too, so slow periods of a
shared host fall on both sides.  Output lines are
``{"workload", "seed", "result"}``, or ``"error"`` instead of
``"result"`` for a run that exited non-zero.  ``compare.py`` reads them.
"""

import argparse
import json
import os
import subprocess
import sys
from typing import List

from procs import SPEC

RUN_TIMEOUT_S = 900


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    line = {"workload": workload, "seed": seed}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        line["error"] = f"exit {proc.returncode}: {proc.stderr[-1000:]}"
    else:
        line["result"] = json.loads(lines[-1])
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--checkout", action="append")
    parser.add_argument("--out", action="append", required=True)
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in (args.checkout or ["."])]
    if len(checkouts) != len(args.out):
        parser.error("give one --out per --checkout")
    with open(SPEC) as fh:
        spec = json.load(fh)
    outs = [open(path, "a") for path in args.out]
    try:
        for workload in args.workload:
            for k, seed in enumerate(args.seeds):
                order = list(range(len(checkouts)))
                if k % 2:
                    order.reverse()
                for side in order:
                    line = run_once(checkouts[side], spec, workload, seed)
                    outs[side].write(json.dumps(line) + "\n")
                    outs[side].flush()
                    status = "error" if "error" in line else "ok"
                    print(f"{workload} seed {seed} {checkouts[side]}: {status}", file=sys.stderr)
    finally:
        for fh in outs:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

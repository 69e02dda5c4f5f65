"""Compare result sets from ``collect.py``, workload by workload.

    python3 perfbench/compare.py a.jsonl             # one set: spread vs bound
    python3 perfbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric of the root ``BENCHMARK.json``
it prints each set's run count, median and quartiles
(``statistics.quantiles`` with n=4) and its spread, the quartile distance
as a share of the median.
With two sets (A = base, B = change) it adds B's median as a ratio of
A's (the base is printed with it), the pairs B wins (runs paired by
seed; ties count for neither side) and a verdict:

``improved``
    B wins at least 9 of 10 pairs and the medians differ by more than
    A's quartile distance; or, when a spread exceeds the bound, every run
    of B is better than every run of A.
``worse``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    not improved, and a spread exceeds the bound: the runs cannot tell.
``unchanged``
    otherwise.

Runs whose result is missing, incorrect or has failed operations are
counted and listed, and their metrics are left out.
"""

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from procs import SPEC

WIN_SHARE = 0.9


def load(path: str) -> Tuple[Dict[str, Dict[int, dict]], List[str]]:
    """``workload -> seed -> metrics`` of the good runs, plus problems."""
    sets: Dict[str, Dict[int, dict]] = {}
    problems = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            result = row.get("result")
            tag = f"{path}: {row['workload']} seed {row['seed']}"
            if result is None:
                problems.append(f"{tag}: {row.get('error', 'no result')[:200]}")
            elif not result["correct"] or result["failed"]:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            else:
                sets.setdefault(row["workload"], {})[row["seed"]] = {
                    k: v["value"] for k, v in result["metrics"].items()
                }
    return sets, problems


def summary(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) -- spread is (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(a: Dict[int, float], b: Dict[int, float], bound: float, lower: bool) -> Tuple[str, str]:
    med_a, q1_a, q3_a, spread_a = summary(list(a.values()))
    med_b, _, _, spread_b = summary(list(b.values()))
    pairs = [s for s in a if s in b]
    wins = sum(better(b[s], a[s], lower) for s in pairs)
    all_better = all(better(x, y, lower) for x in b.values() for y in a.values())
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    noisy = max(spread_a, spread_b) > bound
    if (pairs and wins >= WIN_SHARE * len(pairs) and better(med_b, med_a, lower)
            and abs(med_b - med_a) > q3_a - q1_a) or (noisy and all_better):
        word = "improved"
    elif noisy:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "unchanged"
    return word, f"wins {wins}/{len(pairs)}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="RESULTS.jsonl")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    with open(SPEC) as fh:
        spec = json.load(fh)
    loaded = [load(path) for path in args.sets]
    status = 0
    for _sets, problems in loaded:
        for problem in problems:
            print(f"PROBLEM {problem}")
            status = 1
    workloads = [w["name"] for w in spec["workloads"]
                 if any(w["name"] in sets for sets, _ in loaded)]
    for workload in workloads:
        print(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            lower = metric["better"] == "lower"
            series = [{s: m[name] for s, m in sets.get(workload, {}).items() if name in m}
                      for sets, _ in loaded]
            if not all(series):
                print(f"{name:<13} missing")
                continue
            cells = []
            for label, values in zip("AB", series):
                med, q1, q3, spread = summary(list(values.values()))
                cells.append(f"{label}: n={len(values)} median {med:.6g} {unit} "
                             f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            line = f"{name:<13} bound {bound:.2f}  " + "  ".join(cells)
            if len(series) == 2:
                med_a = statistics.median(series[0].values())
                med_b = statistics.median(series[1].values())
                word, wins = verdict(series[0], series[1], bound, lower)
                line += (f"  B/A {med_b / med_a:.3f} (base A median {med_a:.6g} {unit})"
                         f"  {wins}  {word}")
            else:
                spread = summary(list(series[0].values()))[3]
                line += "  steady" if spread <= bound / 3 else (
                    "  within bound" if spread <= bound else "  EXCEEDS bound")
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())

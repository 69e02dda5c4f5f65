"""Functional-yield subsystem: funnel hit rates, residue cost, routing gap.

Three questions :mod:`repro.functional` must answer at paper budgets
(override with REPRO_BENCH_RUNS):

1. How much of a functional sweep does the five-stage screen funnel
   decide *without* the residue evaluator?  The vectorized screens cost
   microseconds per run; a residue run replays the fluidics stack's
   repair and routing decisions on integer arrays
   (:mod:`repro.functional.residue`, ~100-300 µs per run on one x86
   core), so the residue fraction still sets the sweep's cost.
2. How much faster is that index-space residue than the object-model
   fluidics stack it replays?  The residue rows of DTMB(3,6) n=60 are
   timed through both paths (the object path is the test oracle,
   ``tests/functional_oracle.py``); the ratio is host-independent and
   gated at >= 5x.
3. How optimistic is the paper's structural matching criterion once
   "good" means "the assay still routes"?  The fig9-functional scenario
   gives the headline: DTMB(4,4) repairs essentially every chip yet
   cannot run the assay on any of them.
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit
from conftest import load_test_module, report

from repro.designs.catalog import DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_with_primary_count
from repro.experiments import scenario_functional
from repro.faults.injection import make_rng
from repro.functional import (
    MultiplexedCriterion,
    RoutingCriterion,
    context_for,
    criterion_successes,
)
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.kernel import (
    RepairStructure,
    classify_repairable,
    survival_batch_sizes,
)

#: (design, primaries) rows of the funnel throughput table — the Figure 9
#: sweep targets, plus the pathological DTMB(4,4).
DESIGNS = ((DTMB_2_6, 60), (DTMB_3_6, 60), (DTMB_4_4, 60))

#: Survival probability of the throughput draws (mid paper grid).
P = 0.95


def test_bench_funnel_hit_rates(benchmark, runs):
    """Per-design screen-funnel composition and throughput at paper budget."""
    criterion = RoutingCriterion()
    structs = [
        (spec.name, RepairStructure(build_with_primary_count(spec, n).build()))
        for spec, n in DESIGNS
    ]

    def sweep_all():
        out = {}
        for name, struct in structs:
            start = time.perf_counter()
            _got, _stats, crit = criterion_successes(
                struct, IIDBernoulli(P), criterion, runs, seed=2005
            )
            out[name] = (time.perf_counter() - start, crit)
        return out

    results = benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    header = (
        f"{'design':<12} {'runs/s':>9}  {'s1 fail':>8} {'s2 spare':>8} "
        f"{'s3 clear':>8} {'s4 dead':>8} {'s5 resid':>8}"
    )
    lines = [header]
    for name, (seconds, crit) in results.items():
        rate = runs / max(seconds, 1e-9)
        lines.append(
            f"{name:<12} {rate:9.0f}  "
            f"{crit.matching_fail / runs:8.4f} {crit.spare_only / runs:8.4f} "
            f"{crit.route_clear / runs:8.4f} {crit.unreachable / runs:8.4f} "
            f"{crit.residue / runs:8.4f}"
        )
    report(
        f"Screen-funnel composition at p={P} ({runs} runs per design)",
        "\n".join(lines),
    )

    for name, (_seconds, crit) in results.items():
        decided = (
            crit.matching_fail + crit.spare_only + crit.route_clear
            + crit.unreachable + crit.residue
        )
        assert decided == crit.runs == runs, (name, crit)
    # On the real Figure 9 sweep designs the screens, not the scheduler,
    # must carry the sweep: if the residue fraction creeps up, functional
    # sweeps turn hours-scale.  DTMB(4,4) is the deliberate exception —
    # its primary fabric is disconnected even fault-free, and remaps can
    # *shorten* routes, so the one-sided screens cannot cheaply prove
    # per-run failure and nearly everything pays the scheduler.
    for name in (DTMB_2_6.name, DTMB_3_6.name):
        _seconds, crit = results[name]
        assert crit.residue / runs < 0.5, (name, crit)
    assert results[DTMB_4_4.name][1].residue / runs > 0.5


def _residue_rows(struct, criterion, runs, max_rows):
    """The first ``max_rows`` survival rows the screens leave undecided."""
    ctx = context_for(struct, criterion)
    rng = make_rng(2005)
    rows = []
    for size in survival_batch_sizes(runs, struct.n_cells):
        alive = IIDBernoulli(P).sample_batch(struct.geometry, size, rng)
        verdict, _stats = classify_repairable(struct, alive)
        _ok, undecided, _stats = ctx.screen(alive, verdict)
        rows.extend(alive[r] for r in np.flatnonzero(undecided))
        if len(rows) >= max_rows:
            break
    return ctx.program, rows[:max_rows]


def _best_of_3(evaluate, rows):
    """(min wall over three passes, verdicts of the last pass)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        verdicts = [evaluate(row) for row in rows]
        best = min(best, time.perf_counter() - start)
    return best, verdicts


#: Residue rows timed per criterion.  ``REPRO_BENCH_RUNS=200`` leaves 41
#: routing and 185 multiplexed rows; the cap keeps the object path (about
#: 30 ms per multiplexed run) near ten seconds at any budget.
MAX_RESIDUE_ROWS = 100


def test_bench_residue_throughput(benchmark, runs):
    """Index-space residue vs the object-model fluidics stack, same rows."""
    oracle_cls = load_test_module("functional_oracle").FluidicsOracle
    struct = RepairStructure(build_with_primary_count(DTMB_3_6, 60).build())
    cases = {
        "routing": RoutingCriterion(deadline=200),
        "multiplexed": MultiplexedCriterion(deadline=14),
    }

    def measure():
        out = {}
        for name, criterion in cases.items():
            program, rows = _residue_rows(
                struct, criterion, runs, MAX_RESIDUE_ROWS
            )
            oracle = oracle_cls(struct, criterion)
            fast_s, fast = _best_of_3(program.success, rows)
            slow_s, slow = _best_of_3(oracle.success, rows)
            assert fast == slow, name  # same rows, same verdicts
            out[name] = (len(rows), fast_s, slow_s)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"{'criterion':<12} {'rows':>5} {'index µs':>9} "
             f"{'object µs':>10} {'speed-up':>9}"]
    extra = {}
    for name, (count, fast_s, slow_s) in results.items():
        fast_us = 1e6 * fast_s / count
        slow_us = 1e6 * slow_s / count
        lines.append(
            f"{name:<12} {count:>5} {fast_us:9.1f} {slow_us:10.1f} "
            f"{slow_s / fast_s:8.1f}x"
        )
        extra[name] = {
            "rows": count,
            "index_us_per_run": round(fast_us, 2),
            "object_us_per_run": round(slow_us, 2),
            "speedup": round(slow_s / fast_s, 2),
        }
    report(
        f"Residue throughput, DTMB(3,6) n=60, p={P}, seed 2005 "
        f"({runs} runs, best of 3)",
        "\n".join(lines),
    )
    rows = sum(count for count, _f, _s in results.values())
    fast_total = sum(fast_s for _c, fast_s, _s in results.values())
    emit(
        "functional_residue",
        wall_s=fast_total,
        throughput=rows / fast_total,
        extra={"unit": "residue runs/s (index path)", **extra},
    )
    for name, (count, fast_s, slow_s) in results.items():
        assert count >= 10, (name, count)
        # The index path must keep its lead over the stack it replays.
        assert slow_s >= 5.0 * fast_s, (name, slow_s, fast_s)


def test_bench_functional_gap(benchmark, runs, engine):
    """fig9-functional at paper budget: the structural-vs-functional gap."""
    result = benchmark.pedantic(
        scenario_functional.run_fig9_functional,
        kwargs={"runs": runs, "engine": engine},
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{design:<12} worst matching-vs-routing gap {result.worst_gap(design):.4f}"
        for design in (DTMB_2_6.name, DTMB_3_6.name, DTMB_4_4.name)
    ]
    report("Figure 9 designs: matching vs functional yield", "\n".join(lines))

    # DTMB(2,6)'s spares sit off the route spine: repairs rarely break
    # the assay.  DTMB(4,4)'s spare lattice disconnects the primary
    # fabric outright — matching yield ~1, functional yield exactly 0.
    assert result.worst_gap(DTMB_2_6.name) < 0.05
    assert result.worst_gap(DTMB_4_4.name) > 0.9
    for point in result.functional:
        if point.design == DTMB_4_4.name:
            assert point.estimate.value == 0.0, point

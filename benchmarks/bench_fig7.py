"""Figure 7: analytical DTMB(1,6) yield vs the non-redundant baseline."""

from __future__ import annotations

from conftest import report

from repro.experiments import fig7
from repro.yieldsim.analytical import dtmb16_yield, yield_no_redundancy


def test_bench_fig7(benchmark, runs, engine):
    result = benchmark.pedantic(
        fig7.run,
        kwargs={"runs": runs, "engine": engine},
        rounds=1,
        iterations=1,
    )
    report("Figure 7: DTMB(1,6) analytical yield", result.format_report())
    report("Figure 7 (chart)", result.format_chart())

    # Interstitial redundancy dominates the bare array everywhere.
    for n in result.ns:
        for p in result.ps:
            assert dtmb16_yield(p, n) >= yield_no_redundancy(p, n)

    # The gain is dramatic where the paper plots it: at p = 0.99, n = 480
    # the bare array is dead (<1%) while DTMB(1,6) still yields > 80%.
    assert yield_no_redundancy(0.99, 480) < 0.01
    assert dtmb16_yield(0.99, 480) > 0.80

    # Monte-Carlo on a flower-complete array validates the cluster model
    # (tolerance ~3 sigma of the binomial estimator at the chosen budget).
    tolerance = max(0.02, 3.0 * (0.25 / runs) ** 0.5)
    for p, mc in result.mc_check.items():
        assert abs(mc - dtmb16_yield(p, result.ns[0])) < tolerance

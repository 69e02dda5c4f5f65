"""Chip fit: the residue-counting search against the cell-by-cell oracle.

Every yield curve in the paper is sized by ``n``, the number of primary
cells, so every chip comes out of
:func:`~repro.designs.interstitial.build_with_primary_count`.  This bench
times the 13 distinct fits the paper pipeline (``repro all``) asks for,
cold (the per-process memo cleared before each pass), against the
brute-force oracle kept in ``tests/fit_oracle.py``, best of 3 passes
each.  It asserts that both give equal :class:`FitResult` records and
that the fast path is at least 10x faster, and emits
``BENCH_designs_fit.json``.

The budget knobs (``REPRO_BENCH_RUNS`` and friends) do not apply: a fit
has no Monte-Carlo component.
"""

from __future__ import annotations

import time

from _emit import emit
from conftest import load_test_module, report

from repro.designs.catalog import DTMB_1_6, DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_with_primary_count

#: The distinct ``(design, n)`` fits of ``repro all``.
PAPER_FITS = [(DTMB_1_6, 100)] + [
    (spec, n)
    for spec in (DTMB_2_6, DTMB_3_6, DTMB_4_4)
    for n in (60, 100, 120, 240)
]

ROUNDS = 3

#: Required speed-up of the residue search over the oracle, cold.
MIN_SPEEDUP = 10.0


def _best_of(fit, before_pass=lambda: None):
    best, results = float("inf"), None
    for _ in range(ROUNDS):
        before_pass()
        t0 = time.perf_counter()
        results = [fit(spec, n) for spec, n in PAPER_FITS]
        best = min(best, time.perf_counter() - t0)
    return best, results


def test_residue_fit_matches_and_beats_the_oracle():
    oracle_fit = load_test_module("fit_oracle").oracle_fit
    oracle_s, expected = _best_of(oracle_fit)
    fast_s, got = _best_of(
        build_with_primary_count, build_with_primary_count.cache_clear
    )
    assert got == expected
    speedup = oracle_s / fast_s
    report(
        "chip fit: residue search vs cell-by-cell oracle (13 paper fits, cold)",
        f"oracle {oracle_s * 1e3:.1f} ms, residue {fast_s * 1e3:.2f} ms, "
        f"speed-up {speedup:.0f}x",
    )
    emit(
        "designs_fit",
        wall_s=fast_s,
        throughput=len(PAPER_FITS) / fast_s,
        extra={
            "unit": "fits/s",
            "fits": len(PAPER_FITS),
            "oracle_s": round(oracle_s, 6),
            "speedup": round(speedup, 1),
        },
    )
    assert speedup >= MIN_SPEEDUP, (oracle_s, fast_s)

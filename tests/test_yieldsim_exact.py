"""Tests for exact yield enumeration — the Monte-Carlo ground truth.

:func:`exact_yield` lives in the test oracle; the Monte-Carlo side of each
comparison is the shipped kernel funnel.
"""

from __future__ import annotations

import numpy as np
import pytest
from yield_oracle import MAX_EXACT_CELLS, exact_yield

from repro.chip.biochip import Biochip
from repro.chip.cell import Cell, CellRole
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip, build_flower_chip
from repro.errors import SimulationError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.analytical import dtmb16_yield, yield_no_redundancy
from repro.yieldsim.kernel import RepairStructure, survival_successes
from repro.yieldsim.stats import YieldEstimate


def monte_carlo(chip, p, runs, seed, needed=None):
    struct = RepairStructure(chip, needed=needed)
    successes, _ = survival_successes(struct, p, runs, seed, dtype=np.float64)
    return YieldEstimate(successes=successes, trials=runs)


def flower():
    cells = [Cell(Hex(0, 0), CellRole.SPARE)]
    cells += [Cell(n, CellRole.PRIMARY) for n in Hex(0, 0).neighbors()]
    return Biochip(cells, name="flower")


class TestExactAgainstClosedForms:
    def test_no_redundancy_chip(self):
        chip = Biochip([Cell(Hex(i, 0)) for i in range(6)])
        for p in (0.8, 0.95, 0.99):
            assert exact_yield(chip, p) == pytest.approx(
                yield_no_redundancy(p, 6)
            )

    def test_single_flower_matches_formula(self):
        chip = flower()
        for p in (0.7, 0.9, 0.99):
            # Yc = p^7 + 7 p^6 q, exactly.
            q = 1 - p
            assert exact_yield(chip, p) == pytest.approx(p**7 + 7 * p**6 * q)

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_flower_chips_match_cluster_model(self, n):
        chip = build_flower_chip(n)
        for p in (0.9, 0.97):
            assert exact_yield(chip, p) == pytest.approx(dtmb16_yield(p, n))

    def test_extremes(self):
        chip = flower()
        assert exact_yield(chip, 1.0) == pytest.approx(1.0)
        assert exact_yield(chip, 0.0) == pytest.approx(0.0)


class TestExactAgainstMonteCarlo:
    def test_dtmb26_small_array(self):
        chip = build_chip(DTMB_2_6, RectRegion(4, 5))  # 20 cells
        p = 0.92
        truth = exact_yield(chip, p)
        estimate = monte_carlo(chip, p, runs=20_000, seed=5)
        assert estimate.consistent_with(truth)

    def test_needed_subset(self):
        chip = build_chip(DTMB_2_6, RectRegion(4, 4))
        needed = [c.coord for c in chip.primaries()][:4]
        p = 0.9
        truth = exact_yield(chip, p, needed=needed)
        full = exact_yield(chip, p)
        # Protecting fewer cells can only raise yield.
        assert truth >= full
        estimate = monte_carlo(chip, p, runs=20_000, seed=6, needed=needed)
        assert estimate.consistent_with(truth)


class TestExactValidation:
    def test_size_cap(self):
        chip = build_chip(DTMB_2_6, RectRegion(8, 8))
        assert len(chip) > MAX_EXACT_CELLS
        with pytest.raises(SimulationError):
            exact_yield(chip, 0.95)

    def test_probability_bounds(self):
        with pytest.raises(SimulationError):
            exact_yield(flower(), 1.5)

    def test_needed_must_be_primary(self):
        chip = flower()
        with pytest.raises(SimulationError):
            exact_yield(chip, 0.9, needed=[Hex(0, 0)])  # the spare

    def test_monotone_in_p(self):
        chip = build_chip(DTMB_2_6, RectRegion(4, 4))
        ys = [exact_yield(chip, p) for p in (0.8, 0.9, 0.95, 0.99)]
        assert ys == sorted(ys)

"""Tests for the fault taxonomy, injectors and parametric process model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chip.builders import plain_chip
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.errors import FaultModelError
from repro.faults.injection import (
    BernoulliInjector,
    FixedCountInjector,
    make_rng,
)
from repro.faults.model import Fault, FaultClass, FaultKind, FaultMap
from repro.faults.parametric import (
    DEFAULT_PROCESS,
    PARYLENE_THICKNESS,
    GeometricParameter,
    ParametricProcess,
)
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.defects import SpotDefects, geometry_for


class TestFaultModel:
    def test_classification(self):
        assert FaultKind.DIELECTRIC_BREAKDOWN.fault_class is FaultClass.CATASTROPHIC
        assert FaultKind.ELECTRODE_SHORT.fault_class is FaultClass.CATASTROPHIC
        assert FaultKind.OPEN_CONNECTION.fault_class is FaultClass.CATASTROPHIC
        assert FaultKind.INSULATOR_THICKNESS.fault_class is FaultClass.PARAMETRIC
        assert FaultKind.PLATE_GAP.fault_class is FaultClass.PARAMETRIC

    def test_parametric_fault_needs_deviation(self):
        with pytest.raises(FaultModelError):
            Fault(Hex(0, 0), FaultKind.PLATE_GAP)
        Fault(Hex(0, 0), FaultKind.PLATE_GAP, deviation=0.1)  # fine

    def test_fault_map_dedupes_per_cell(self):
        fm = FaultMap(
            [
                Fault(Hex(0, 0), FaultKind.ELECTRODE_SHORT),
                Fault(Hex(0, 0), FaultKind.OPEN_CONNECTION),
            ]
        )
        assert len(fm) == 1
        assert fm.fault_at(Hex(0, 0)).kind is FaultKind.ELECTRODE_SHORT

    def test_apply_to_unknown_coordinate_rejected(self):
        chip = plain_chip(RectRegion(2, 2))
        fm = FaultMap([Fault(Hex(99, 99), FaultKind.ELECTRODE_SHORT)])
        with pytest.raises(FaultModelError):
            fm.apply_to(chip)

    def test_apply_marks_cells(self):
        chip = plain_chip(RectRegion(3, 3))
        target = chip.coords[4]
        FaultMap([Fault(target, FaultKind.OPEN_CONNECTION)]).apply_to(chip)
        assert chip[target].is_faulty

    def test_partition_and_histogram(self):
        fm = FaultMap(
            [
                Fault(Hex(0, 0), FaultKind.ELECTRODE_SHORT),
                Fault(Hex(1, 0), FaultKind.PLATE_GAP, deviation=0.2),
            ]
        )
        assert len(fm.catastrophic()) == 1
        assert len(fm.parametric()) == 1
        assert fm.by_kind()[FaultKind.PLATE_GAP] == 1


class TestBernoulliInjector:
    def test_probability_bounds(self):
        with pytest.raises(FaultModelError):
            BernoulliInjector(1.5)

    def test_deterministic_from_seed(self):
        chip = plain_chip(RectRegion(10, 10))
        inj = BernoulliInjector(0.9)
        assert inj.sample(chip, seed=42).coords == inj.sample(chip, seed=42).coords

    def test_extreme_probabilities(self):
        chip = plain_chip(RectRegion(5, 5))
        assert len(BernoulliInjector(1.0).sample(chip, seed=1)) == 0
        assert len(BernoulliInjector(0.0).sample(chip, seed=1)) == len(chip)

    def test_empirical_rate(self):
        chip = plain_chip(RectRegion(20, 20))
        inj = BernoulliInjector(0.9)
        total = sum(len(inj.sample(chip, seed=s)) for s in range(50))
        rate = total / (50 * len(chip))
        assert rate == pytest.approx(0.1, abs=0.02)


class TestFixedCountInjector:
    def test_exact_count_distinct_cells(self):
        chip = plain_chip(RectRegion(8, 8))
        fm = FixedCountInjector(7).sample(chip, seed=5)
        assert len(fm) == 7

    def test_count_validation(self):
        with pytest.raises(FaultModelError):
            FixedCountInjector(-1)
        chip = plain_chip(RectRegion(2, 2))
        with pytest.raises(FaultModelError):
            FixedCountInjector(10).sample(chip)

    def test_zero_faults(self):
        chip = plain_chip(RectRegion(2, 2))
        assert len(FixedCountInjector(0).sample(chip, seed=1)) == 0

    def test_uniform_coverage(self):
        # Over many draws every cell should get hit roughly equally.
        chip = plain_chip(RectRegion(6, 6))
        counts = {c: 0 for c in chip.coords}
        inj = FixedCountInjector(6)
        draws = 400
        for s in range(draws):
            for coord in inj.sample(chip, seed=s).coords:
                counts[coord] += 1
        expected = draws * 6 / len(chip)
        for count in counts.values():
            assert abs(count - expected) < expected  # loose 2x band


class TestClusteredInjector:
    """Clustered (spot) defects, sampled by :class:`SpotDefects`."""

    def test_zero_rate_no_faults(self):
        geometry = geometry_for(plain_chip(RectRegion(4, 4)))
        assert SpotDefects(0.0).sample_batch(geometry, 20, make_rng(1)).all()

    def test_radius_zero_kills_single_cells(self):
        geometry = geometry_for(plain_chip(RectRegion(6, 6)))
        # A radius-0 spot is its center alone, so each cell dies
        # independently with probability 1 - exp(-rate).
        assert (geometry.ball_sizes(0) == 1).all()
        model = SpotDefects(0.05, radius=0)
        expected = 1.0 - np.exp(-0.05)
        assert model.mean_kill_fraction(geometry) == pytest.approx(expected)
        alive = model.sample_batch(geometry, 4000, make_rng(2))
        assert (~alive).mean() == pytest.approx(expected, abs=0.005)

    def test_parameter_validation(self):
        with pytest.raises(FaultModelError):
            SpotDefects(-0.1)
        with pytest.raises(FaultModelError):
            SpotDefects(0.1, radius=-1)


class TestParametricProcess:
    def test_out_of_tolerance_probability_matches_simulation(self):
        param = PARYLENE_THICKNESS
        analytical = param.out_of_tolerance_probability()
        rng = make_rng(7)
        samples = rng.normal(param.nominal, param.sigma, size=200_000)
        empirical = np.mean(np.abs(samples - param.nominal) > param.tolerance)
        assert empirical == pytest.approx(analytical, abs=0.003)

    def test_sample_faults_marks_out_of_tolerance_cells(self):
        chip = build_chip(DTMB_2_6, RectRegion(12, 12))
        # A hair-trigger process: tolerance below one sigma fails often.
        loose = ParametricProcess(
            (
                GeometricParameter(
                    name="test param",
                    kind=PARYLENE_THICKNESS.kind,
                    nominal=1.0,
                    sigma=0.1,
                    tolerance=0.05,
                ),
            )
        )
        fm = loose.sample_faults(chip, seed=3)
        assert len(fm) > 0
        for fault in fm:
            assert fault.deviation is not None
            assert abs(fault.deviation) > 0.05  # relative deviation past tolerance

    def test_cell_failure_probability_composes(self):
        p = DEFAULT_PROCESS.cell_failure_probability()
        individual = [
            param.out_of_tolerance_probability()
            for param in DEFAULT_PROCESS.parameters
        ]
        assert p <= sum(individual) + 1e-12
        assert p >= max(individual) - 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FaultModelError):
            GeometricParameter("bad", FaultKind.PLATE_GAP, nominal=-1, sigma=1, tolerance=1)
        with pytest.raises(FaultModelError):
            ParametricProcess(())

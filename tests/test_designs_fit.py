"""Chip fit: the residue search against its oracle, and chip aliasing.

:func:`~repro.designs.interstitial.build_with_primary_count` counts
spares from lattice residues and is memoized per process.  The
differential tests check its uncached search against the cell-by-cell
oracle in ``fit_oracle.py``: an equal :class:`FitResult` (cols, rows,
offset, primary and spare counts) or an identical :class:`DesignError`
message.  The aliasing tests check that memoizing fits never shares a
mutable chip.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from fit_oracle import oracle_fit

from repro.chip.cell import CellHealth
from repro.designs import ALL_DESIGNS
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_with_primary_count
from repro.errors import DesignError
from repro.geometry.hex import Hex

#: The search without the per-process memo, so every case is computed.
residue_fit = build_with_primary_count.__wrapped__

FIT_COUNTS = list(range(1, 61)) + [100, 120, 240]

#: Each catalog design on a shifted coset, so the congruence constants
#: are nonzero (every catalog lattice has ``c = 0``).
SHIFTED_DESIGNS = [
    replace(spec, spare_lattice=spec.spare_lattice.translated(Hex(1, 2)))
    for spec in ALL_DESIGNS
]


def outcome(fit, spec, n, max_dim=64):
    try:
        return fit(spec, n, max_dim)
    except DesignError as exc:
        return f"DesignError: {exc}"


class TestResidueFitMatchesOracle:
    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_every_count(self, spec):
        for n in FIT_COUNTS:
            assert outcome(residue_fit, spec, n) == outcome(oracle_fit, spec, n), n

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n, max_dim", [(61, 4), (200, 8)])
    def test_bounded_footprint(self, spec, n, max_dim):
        want = outcome(oracle_fit, spec, n, max_dim)
        assert outcome(residue_fit, spec, n, max_dim) == want

    @pytest.mark.parametrize("spec", SHIFTED_DESIGNS, ids=lambda s: s.name)
    def test_shifted_lattice(self, spec):
        for n in (7, 30, 61, 100):
            assert outcome(residue_fit, spec, n) == outcome(oracle_fit, spec, n), n

    def test_invalid_count_message(self):
        assert outcome(residue_fit, DTMB_2_6, 0) == outcome(oracle_fit, DTMB_2_6, 0)


class TestFitMemo:
    def test_repeated_fit_is_the_identical_record(self):
        assert build_with_primary_count(DTMB_2_6, 100) is build_with_primary_count(
            DTMB_2_6, 100
        )

    def test_design_error_is_not_memoized(self):
        build_with_primary_count.cache_clear()
        with pytest.raises(DesignError):
            build_with_primary_count(DTMB_2_6, 61, max_dim=4)
        assert build_with_primary_count.cache_info().currsize == 0

    def test_builds_never_share_a_chip(self):
        fit = build_with_primary_count(DTMB_2_6, 60)
        first, second = fit.build(), fit.build()
        assert first is not second
        coord = first.primaries()[0].coord
        first.mark_faulty(coord)
        first.set_label(coord, "mixer")
        assert second.is_fault_free()
        assert second[coord].health is CellHealth.GOOD
        assert second[coord].label is None
        assert fit.build().is_fault_free()

"""Cell-by-cell oracle for the chip-fit search.

:func:`~repro.designs.interstitial.build_with_primary_count` counts a
candidate rectangle's spares for every lattice coset from one histogram
of congruence residues.  This oracle decides the same question the
definitional way: build the :class:`~repro.geometry.hexgrid.RectRegion`,
translate the spare lattice to each coset and test every cell with
``h in lattice``.  It scans shapes and cosets in the same order, so it
must return an equal :class:`~repro.designs.interstitial.FitResult`, or
raise a :class:`~repro.errors.DesignError` with the same message.
"""

from __future__ import annotations

from repro.designs.interstitial import FitResult, _candidate_shapes
from repro.designs.spec import DesignSpec
from repro.errors import DesignError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.geometry.lattice import lattice_period

__all__ = ["oracle_fit"]


def oracle_fit(spec: DesignSpec, n: int, max_dim: int = 64) -> FitResult:
    """The first (shape, coset) with exactly ``n`` primaries, by brute force."""
    if n < 1:
        raise DesignError(f"primary count must be >= 1, got {n}")
    target_cells = n / float(spec.primary_density)
    period = lattice_period(spec.spare_lattice)
    for cols, rows in _candidate_shapes(target_cells, max_dim):
        region = RectRegion(cols, rows)
        for dq in range(period):
            for dr in range(period):
                offset = Hex(dq, dr)
                lattice = spec.spare_lattice.translated(offset)
                spares = sum(1 for h in region if h in lattice)
                primaries = len(region) - spares
                if primaries == n and spares > 0:
                    return FitResult(spec, cols, rows, offset, primaries, spares)
    raise DesignError(
        f"no {spec.name} rectangle up to {max_dim}x{max_dim} has exactly "
        f"{n} primary cells"
    )

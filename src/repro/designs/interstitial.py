"""Construction of interstitial-redundancy arrays from design specs.

Two builders are provided:

* :func:`build_chip` — apply a design's spare lattice to a given region;
* :func:`build_with_primary_count` — find a rectangular array (and lattice
  coset) containing *exactly* ``n`` primary cells, which is how the paper
  parameterizes its yield plots ("n is the number of primary cells").

The coset search matters: sliding the spare pattern by a lattice translation
changes how the pattern is clipped at the array boundary, and therefore the
exact primary count for a fixed footprint.

The search counts spares from lattice residues instead of testing cells one
by one.  A spare lattice is one or more congruences ``a*q + b*r ≡ c (mod
m)``; translating it by ``(dq, dr)`` only moves ``c`` to ``c + a*dq +
b*dr``.  So each candidate rectangle needs the residues ``(a*q + b*r) % m``
of its cells once, computed on integer arrays (one residue per congruence,
folded into one bin index), and a histogram of those bins then gives the
spare count of every coset at once.  Shapes and cosets are scanned in a
fixed order, so the first hit is the same layout a cell-by-cell search
finds.

A fit is a pure function of ``(spec, n, max_dim)``, so
:func:`build_with_primary_count` is memoized once per process and shared by
every caller (registry, CLI, sweeps, the design selector, the server).  The
memo holds :class:`FitResult` records only — frozen and cheap — never a
:class:`~repro.chip.biochip.Biochip`: chips carry mutable fault and label
state, so :meth:`FitResult.build` makes a fresh one on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.chip.builders import chip_from_lattice
from repro.designs.spec import DesignSpec
from repro.errors import DesignError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import HexRegion, RectRegion
from repro.geometry.lattice import (
    CongruenceLattice,
    IntersectionLattice,
    lattice_period,
)

__all__ = [
    "build_chip",
    "build_with_primary_count",
    "build_flower_chip",
    "FitResult",
]

#: Distinct ``(spec, n, max_dim)`` fits kept per process.  The paper
#: pipeline asks for 13; a sweep over ``n`` or a long-lived server asks
#: for more, and each entry is one small frozen record.
_FIT_MEMO_SIZE = 1024


def build_chip(
    spec: DesignSpec,
    region: HexRegion,
    offset: Hex = Hex(0, 0),
    name: Optional[str] = None,
) -> Biochip:
    """Build a chip for ``spec`` on ``region``.

    ``offset`` shifts the spare pattern (selects a coset); the architecture's
    (s, p) properties are translation-invariant, so any coset is a valid
    instance of the design.
    """
    lattice = spec.spare_lattice.translated(offset)
    return chip_from_lattice(region, lattice, name=name or spec.name)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the :func:`build_with_primary_count` search.

    A frozen description of a chip, safe to share through the per-process
    fit memo; :meth:`build` turns it into a fresh, independently mutable
    :class:`~repro.chip.biochip.Biochip` on every call.
    """

    spec: DesignSpec
    cols: int
    rows: int
    offset: Hex
    primary_count: int
    spare_count: int

    def build(self, name: Optional[str] = None) -> Biochip:
        """Construct a new chip for this fit (never a shared instance)."""
        return build_chip(
            self.spec,
            RectRegion(self.cols, self.rows),
            self.offset,
            name=name or f"{self.spec.name} n={self.primary_count}",
        )


def _candidate_shapes(total_cells_target: float, max_dim: int) -> Iterator[Tuple[int, int]]:
    """Rectangle shapes ordered by squareness, near the target cell count."""
    shapes: List[Tuple[float, int, int]] = []
    for cols in range(2, max_dim + 1):
        for rows in range(2, max_dim + 1):
            total = cols * rows
            # Keep shapes whose footprint could plausibly hold the target
            # primary count: within a generous band around the ideal size.
            if total < total_cells_target * 0.9 or total > total_cells_target * 1.6:
                continue
            squareness = abs(cols - rows)
            shapes.append((squareness, cols, rows))
    shapes.sort()
    for _, cols, rows in shapes:
        yield (cols, rows)


def _residue_bin(
    parts: Tuple[CongruenceLattice, ...],
    q: np.ndarray,
    r: np.ndarray,
    with_constant: bool = False,
) -> np.ndarray:
    """The residues ``(a*q + b*r) % m`` (``(c + a*q + b*r) % m`` with
    ``with_constant``), one per congruence, as one mixed-radix bin index
    in ``range(prod(m))``."""
    index = np.zeros(q.shape, dtype=np.int64)
    for part in parts:
        c = part.c if with_constant else 0
        index = index * part.m + (c + part.a * q + part.b * r) % part.m
    return index


def _rect_axial(cols: int, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Axial ``(q, r)`` of a ``cols x rows`` rectangle's cells (odd-r layout,
    the formula of :func:`~repro.geometry.hexgrid.offset_to_axial`)."""
    col = np.tile(np.arange(cols, dtype=np.int64), rows)
    row = np.repeat(np.arange(rows, dtype=np.int64), cols)
    return col - (row - (row & 1)) // 2, row


@functools.lru_cache(maxsize=_FIT_MEMO_SIZE)
def build_with_primary_count(
    spec: DesignSpec,
    n: int,
    max_dim: int = 64,
) -> FitResult:
    """Find a rectangular instance of ``spec`` with exactly ``n`` primaries.

    Scans rectangle shapes most square first (:func:`_candidate_shapes`)
    and, within a shape, the lattice cosets ``Hex(dq, dr)`` over one period
    with ``dq`` outer and ``dr`` inner; the first shape and coset holding
    exactly ``n`` primaries and at least one spare wins.  A coset's spares
    are the cells whose residues ``(a*q + b*r) % m`` equal the coset's
    translated constants, so one residue histogram per shape counts every
    coset at once.

    Memoized per process: a repeated call returns the identical
    :class:`FitResult`.  Chips are never memoized — call
    :meth:`FitResult.build` for a fresh one.  Raises :class:`DesignError`
    (never memoized) if ``n < 1`` or no footprint up to ``max_dim`` per
    side fits.
    """
    if n < 1:
        raise DesignError(f"primary count must be >= 1, got {n}")
    density = float(spec.primary_density)
    target_cells = n / density
    lattice = spec.spare_lattice
    parts = lattice.parts if isinstance(lattice, IntersectionLattice) else (lattice,)
    period = lattice_period(lattice)
    bins = math.prod(part.m for part in parts)
    # Translating a congruence by Hex(dq, dr) moves its constant c to
    # c + a*dq + b*dr, so coset [dq, dr]'s spares are the cells whose
    # residues fall in bin coset_bin[dq, dr].
    dq, dr = np.meshgrid(np.arange(period), np.arange(period), indexing="ij")
    coset_bin = _residue_bin(parts, dq, dr, with_constant=True)
    for cols, rows in _candidate_shapes(target_cells, max_dim):
        q, r = _rect_axial(cols, rows)
        counts = np.bincount(_residue_bin(parts, q, r), minlength=bins)
        spares = counts[coset_bin]
        hits = (cols * rows - spares == n) & (spares > 0)
        if hits.any():
            first = int(np.argmax(hits))  # row-major: dq outer, dr inner
            spare_count = int(spares.flat[first])
            return FitResult(
                spec, cols, rows, Hex(*divmod(first, period)),
                cols * rows - spare_count, spare_count,
            )
    raise DesignError(
        f"no {spec.name} rectangle up to {max_dim}x{max_dim} has exactly "
        f"{n} primary cells"
    )


def build_flower_chip(n: int, name: Optional[str] = None) -> Biochip:
    """A DTMB(1,6) array made of exactly ``n / 6`` *complete* flowers.

    The paper's analytical model views DTMB(1,6) as independent 7-cell
    clusters ("flowers": one spare and its six primaries).  Rectangular
    footprints clip flowers at the boundary, stranding some primaries with
    no spare; this builder instead assembles whole flowers — the spare
    centers nearest the origin on the DTMB(1,6) superlattice — so the
    cluster model is *exact* and Monte-Carlo can validate it directly.

    ``n`` must be a positive multiple of 6.
    """
    if n < 6 or n % 6 != 0:
        raise DesignError(
            f"flower chip needs a positive multiple of 6 primaries, got {n}"
        )
    from repro.chip.cell import Cell, CellRole
    from repro.designs.catalog import DTMB_1_6
    from repro.geometry.hex import hex_spiral

    lattice = DTMB_1_6.spare_lattice
    flowers = n // 6
    centers: List[Hex] = []
    radius = 4
    while len(centers) < flowers:
        centers = [h for h in hex_spiral(Hex(0, 0), radius) if h in lattice]
        radius += 2
    centers = centers[:flowers]
    cells: List[Cell] = []
    for center in centers:
        cells.append(Cell(center, CellRole.SPARE))
        cells.extend(Cell(nb, CellRole.PRIMARY) for nb in center.neighbors())
    return Biochip(cells, name=name or f"DTMB(1,6) flowers n={n}")

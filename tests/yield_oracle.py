"""Brute-force oracles for the Monte-Carlo yield kernel.

The shipped path decides repairability for a whole batch of fault maps at
once with the exact vectorized funnel of :mod:`repro.yieldsim.kernel`.
This module keeps the two definitional implementations it is checked
against:

* :class:`YieldSimulator` — the pre-engine Monte-Carlo simulator, run by
  run with Python Kuhn matching.  It draws the same float64 stream as
  :func:`~repro.yieldsim.kernel.survival_successes` with
  ``dtype=np.float64``, so the two must agree bit for bit.
* :func:`exact_yield` — the exact yield of a small array by exhaustive
  enumeration of every fault subset.

Both decide repairability with the one :func:`kuhn_repairable` below.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import SimulationError
from repro.faults.injection import RngLike, make_rng
from repro.yieldsim.kernel import RepairStructure
from repro.yieldsim.stats import YieldEstimate
from repro.yieldsim.sweeps import DEFAULT_RUNS

__all__ = ["YieldSimulator", "exact_yield", "kuhn_repairable", "MAX_EXACT_CELLS"]

#: Hard cap: 2^22 subsets is a few seconds; beyond that use Monte-Carlo.
MAX_EXACT_CELLS = 22


def kuhn_repairable(
    adj: Tuple[Tuple[int, ...], ...],
    faulty_positions: Iterable[int],
    alive: Sequence[bool],
) -> bool:
    """Kuhn matching feasibility: can every faulty primary get a spare?

    ``adj`` maps protected-primary positions to adjacent spare cell
    indices; ``alive`` is the per-cell survival row.  Correctness rests on
    the standard augmenting-path theorem: if a left vertex cannot be
    augmented at the moment it is processed, it is exposed in *some*
    maximum matching, so no saturating matching exists and we can stop.
    """
    match_right: Dict[int, int] = {}

    def try_augment(j: int, visited: Set[int]) -> bool:
        for s in adj[j]:
            if not alive[s] or s in visited:
                continue
            visited.add(s)
            owner = match_right.get(s)
            if owner is None or try_augment(owner, visited):
                match_right[s] = j
                return True
        return False

    for j in faulty_positions:
        if not try_augment(j, set()):
            return False
    return True


class YieldSimulator:
    """Batched Monte-Carlo repairability simulation for one chip layout.

    Parameters
    ----------
    chip:
        The array under evaluation.  Health state is ignored — fault maps
        are drawn internally; the chip object is never mutated.
    needed:
        Primary coordinates that must work for the chip to be good
        (default: every primary).  The diagnostics-chip experiment passes
        the 108 assay-used cells here.
    """

    def __init__(self, chip: Biochip, needed: Optional[Iterable[Hashable]] = None):
        self.chip = chip
        #: shared primary->adjacent-spare structure (validates ``needed``).
        self.structure = RepairStructure(chip, needed=needed)
        self.n_cells = self.structure.n_cells
        #: cell indices of the protected primaries, aligned with ``_adj``.
        self._needed_idx = self.structure.needed_idx
        #: per-protected-primary tuple of adjacent spare cell indices.
        self._adj: Tuple[Tuple[int, ...], ...] = self.structure.adj
        self.needed_count = self.structure.needed_count

    # -- repair kernel -------------------------------------------------------
    def _repairable(self, faulty_positions: Sequence[int], alive: np.ndarray) -> bool:
        """Kuhn matching feasibility: can every faulty primary get a spare?"""
        return kuhn_repairable(self._adj, faulty_positions, alive)

    # -- survival-probability regime ------------------------------------------
    def run_survival(
        self, p: float, runs: int = DEFAULT_RUNS, seed: RngLike = None
    ) -> YieldEstimate:
        """Yield under i.i.d. per-cell survival probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"survival probability must be in [0, 1], got {p}")
        if runs < 1:
            raise SimulationError(f"runs must be >= 1, got {runs}")
        rng = make_rng(seed)
        successes = 0
        # Draw in batches to bound memory at ~8 MB regardless of run count.
        batch = max(1, min(runs, 8_000_000 // max(1, self.n_cells)))
        remaining = runs
        while remaining > 0:
            size = min(batch, remaining)
            remaining -= size
            alive = rng.random((size, self.n_cells)) < p
            faulty = ~alive[:, self._needed_idx]
            # Runs with zero faulty protected primaries succeed immediately.
            any_fault = faulty.any(axis=1)
            successes += int(size - any_fault.sum())
            for r in np.nonzero(any_fault)[0]:
                positions = np.nonzero(faulty[r])[0]
                if self._repairable(positions.tolist(), alive[r]):
                    successes += 1
        return YieldEstimate(successes=successes, trials=runs)

    # -- fixed-fault-count regime ------------------------------------------------
    def run_fixed_faults(
        self, m: int, runs: int = DEFAULT_RUNS, seed: RngLike = None
    ) -> YieldEstimate:
        """Yield with exactly ``m`` faulty cells, uniform over all cells.

        This is the Figure 13 regime: faults can hit primaries (used or
        unused) and spares alike; the chip is good iff every faulty
        *protected* primary is matched to an adjacent fault-free spare.
        """
        if m < 0:
            raise SimulationError(f"fault count must be >= 0, got {m}")
        if m > self.n_cells:
            raise SimulationError(
                f"cannot place {m} faults on {self.n_cells} cells"
            )
        if runs < 1:
            raise SimulationError(f"runs must be >= 1, got {runs}")
        rng = make_rng(seed)
        needed_pos: Dict[int, int] = {
            int(cell): j for j, cell in enumerate(self._needed_idx)
        }
        successes = 0
        alive = np.ones(self.n_cells, dtype=bool)
        for _ in range(runs):
            faults = rng.choice(self.n_cells, size=m, replace=False)
            alive[faults] = False
            positions = [
                needed_pos[int(f)] for f in faults if int(f) in needed_pos
            ]
            if not positions or self._repairable(positions, alive):
                successes += 1
            alive[faults] = True
        return YieldEstimate(successes=successes, trials=runs)


def exact_yield(
    chip: Biochip,
    p: float,
    needed: Optional[Iterable[Hashable]] = None,
) -> float:
    """The exact yield of ``chip`` at per-cell survival probability ``p``.

    Enumerates all ``2^len(chip)`` fault subsets, weighting each by
    ``p^(alive) * q^(dead)``, and raises for arrays larger than
    :data:`MAX_EXACT_CELLS`.  Semantics identical to
    :meth:`YieldSimulator.run_survival`: the chip is good iff every faulty
    needed primary can be matched to an adjacent fault-free spare.

    Subsets are walked in Gray-code order, so one cell flips per step and
    the survival row is updated in place.
    """
    n = len(chip)
    if n > MAX_EXACT_CELLS:
        raise SimulationError(
            f"exact enumeration capped at {MAX_EXACT_CELLS} cells, "
            f"chip has {n}; use Monte-Carlo"
        )
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"survival probability must be in [0, 1], got {p}")

    coords = chip.coords
    index = {c: i for i, c in enumerate(coords)}
    if needed is None:
        needed_coords = [c.coord for c in chip.primaries()]
    else:
        needed_coords = sorted(set(needed))
        for coord in needed_coords:
            if coord not in chip or not chip[coord].is_primary:
                raise SimulationError(
                    f"needed cell {coord} is not a primary cell of the chip"
                )
    needed_positions = {index[c]: j for j, c in enumerate(needed_coords)}
    adjacency: Tuple[Tuple[int, ...], ...] = tuple(
        tuple(index[s.coord] for s in chip.adjacent_spares(c))
        for c in needed_coords
    )

    q = 1.0 - p
    total = 0.0
    alive = [True] * n
    dead = 0  # number of faulty cells, tracked incrementally
    faulty: Set[int] = set()  # positions of the faulty needed primaries
    # Precompute p^a * q^b table to avoid pow in the hot loop.
    pow_p = [p**k for k in range(n + 1)]
    pow_q = [q**k for k in range(n + 1)]

    # Subset 0: no faults — always good.
    total += pow_p[n]
    gray = 0
    for i in range(1, 1 << n):
        new_gray = i ^ (i >> 1)
        cell = (gray ^ new_gray).bit_length() - 1
        gray = new_gray
        alive[cell] = not alive[cell]
        dead += -1 if alive[cell] else 1
        j = needed_positions.get(cell)
        if j is not None:
            if alive[cell]:
                faulty.discard(j)
            else:
                faulty.add(j)
        weight = pow_p[n - dead] * pow_q[dead]
        if weight == 0.0:
            continue
        if kuhn_repairable(adjacency, faulty, alive):
            total += weight
    return total

"""Object-model oracle for the functional funnel's residue evaluator.

Decides one survival row the slow, definitional way: copy the chip, apply
the row's fault map, plan the local repair with
:func:`~repro.reconfig.local.plan_local_repair` (faulty primaries outside
the needed set become dead cells), install the
:class:`~repro.reconfig.remap.CellRemap` and drive the real fluidics
stack — a :class:`~repro.fluidics.scheduler.Scheduler` over the assay's
dispense/transport/discard program for :class:`RoutingCriterion`, the
:class:`~repro.fluidics.concurrent_routing.ConcurrentRouter` for
:class:`MultiplexedCriterion`.

The funnel's index-space evaluator (:mod:`repro.functional.residue`) must
reproduce every verdict and, for sequential legs, every per-leg move
count.  The oracle derives its sites from the chip on its own, so it
shares no compiled table with the code it checks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.assays.library import assay_by_analyte
from repro.errors import FluidicsError, ReconfigurationError
from repro.fluidics.concurrent_routing import (
    ConcurrentPlan,
    ConcurrentRouter,
    RouteRequest,
)
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.operations import Discard, Dispense, Operation, Transport
from repro.fluidics.scheduler import Scheduler
from repro.functional.criteria import SuccessCriterion
from repro.functional.sites import multiplexed_endpoints, routing_sites, site_legs
from repro.reconfig.local import RepairPlan, plan_local_repair
from repro.reconfig.remap import CellRemap
from repro.yieldsim.kernel import RepairStructure

__all__ = ["FluidicsOracle"]


class FluidicsOracle:
    """Brute-force evaluator of one (structure, criterion) pair."""

    def __init__(self, struct: RepairStructure, criterion: SuccessCriterion):
        chip = struct.chip
        coords = chip.coords
        self.concurrent = criterion.name == "multiplexed"
        self.deadline = int(criterion.deadline)
        self.needed_coords = [coords[int(i)] for i in struct.needed_idx]
        needed_set = set(self.needed_coords)
        self.unneeded_primary_mask = np.array(
            [chip[c].is_primary and c not in needed_set for c in coords],
            dtype=bool,
        )
        if self.concurrent:
            sources, targets = multiplexed_endpoints(chip, len(criterion.assays))
            self.requests = tuple(
                RouteRequest(name=f"{analyte}:{i}", source=src, target=dst)
                for i, (analyte, src, dst) in enumerate(
                    zip(criterion.assays, sources, targets)
                )
            )
        else:
            self.legs = tuple(site_legs(routing_sites(chip)))
            assay = assay_by_analyte(criterion.assay)
            lo, hi = assay.reference_range
            self.leg_contents = (
                {assay.analyte: (lo + hi) / 2.0},
                dict(assay.reagent_contents),
                {},
            )
        self._chip = chip.copy()

    # -- the object stack ----------------------------------------------------
    def _remap(self, row: np.ndarray) -> Optional[CellRemap]:
        chip = self._chip
        coords = chip.coords
        chip.clear_faults()
        faulty_cols = np.flatnonzero(~row)
        chip.apply_fault_map(coords[int(j)] for j in faulty_cols)
        plan = plan_local_repair(chip, self.needed_coords)
        if not plan.complete:
            return None
        extras = tuple(
            coords[int(j)] for j in faulty_cols if self.unneeded_primary_mask[j]
        )
        return CellRemap(
            chip, RepairPlan(dict(plan.assignment), plan.unrepaired + extras)
        )

    def leg_moves(self, row: np.ndarray) -> Optional[List[int]]:
        """Per-leg transport moves of the scheduled assay (None: fails)."""
        remap = self._remap(row)
        if remap is None:
            return None
        controller = ElectrodeController(self._chip, remap=remap)
        ops: List[Operation] = []
        for i, ((src, dst), contents) in enumerate(
            zip(self.legs, self.leg_contents)
        ):
            handle = f"leg{i}"
            ops.append(Dispense(handle, at=src, contents=dict(contents)))
            ops.append(Transport(handle, to=dst))
            ops.append(Discard(handle))
        try:
            schedule = Scheduler(controller).run(ops)
        except (FluidicsError, ReconfigurationError):
            return None
        return [e.moves for e in schedule.events if e.op == "Transport"]

    def plan(self, row: np.ndarray) -> Optional[ConcurrentPlan]:
        """The concurrent router's plan for the run (None: fails)."""
        remap = self._remap(row)
        if remap is None:
            return None
        try:
            return ConcurrentRouter(self._chip, remap).plan(list(self.requests))
        except (FluidicsError, ReconfigurationError):
            return None

    def success(self, row: np.ndarray) -> bool:
        """Ground truth for one fault map: does the program meet its deadline?"""
        if self.concurrent:
            plan = self.plan(row)
            return plan is not None and plan.makespan <= self.deadline
        moves = self.leg_moves(row)
        return moves is not None and sum(moves) <= self.deadline

    def baseline_ok(self) -> bool:
        """The verdict on a fault-free chip (identity remap)."""
        return self.success(np.ones(len(self._chip), dtype=bool))


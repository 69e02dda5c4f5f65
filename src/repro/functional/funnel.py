"""Screen-funnel evaluation of functional success criteria.

Deciding "does the assay still run on this repaired chip?" means a
repair plan plus a Python A* per route per run — exactly the per-run cost
the matching kernel's funnel was built to avoid.  This module reuses that
idiom for the criterion layer: a cascade of *exact* vectorized screens
decides most runs of a survival batch at once, and only the ambiguous
residue pays for per-run routing.

The funnel, in order (every stage is exact — never a heuristic):

1. **matching fail** — a run the kernel already classified BAD has no
   complete repair plan, so no remap exists and every functional
   criterion fails.  (The kernel's GOOD verdict and
   ``plan_local_repair(...).complete`` are the same bipartite question on
   the same graph.)
2. **spare-only faults** — a run with no faulty *primary* anywhere gets
   the identity remap, and the router never inspects spare health for
   identity-mapped primaries, so its logical graph equals the fault-free
   baseline's: the run takes the precomputed baseline verdict.
3. **alive-primary route screen** (routing criterion only, one-sided
   success) — if every functional site is alive, any physical path
   through alive primary cells is a valid logical route under *any*
   complete remap (alive primaries map to themselves, so consecutive
   cells stay logically adjacent and usable).  A vectorized multi-run BFS
   over the alive-primary subgraph computes per-leg distances; if every
   leg connects and the distances sum within the deadline, the run
   succeeds.  This subsumes the untouched-baseline-route fast path — a
   surviving baseline route is one such alive-primary path — and also
   covers detours around faults.
4. **reachability / distance bound** (one-sided fail) — a logical
   route's physical images form a walk in the alive-cell graph from the
   source's anchor set (the cell itself, plus its adjacent spares when
   the matching may remap it) to the target's anchors.  A multi-source
   BFS over *all* alive cells therefore lower-bounds every leg: if some
   leg's anchors are unreachable (or dead), or the per-leg lower bounds
   already exceed the deadline (sum for sequential legs, max for the
   concurrent makespan), the run fails — whatever the scheduler would
   try.
5. **residue** — whatever remains is decided run by run by
   :class:`~repro.functional.residue.ResidueProgram`, an index-space
   replay of the object-model fluidics stack: the local-repair matching
   (faulty primaries outside the needed set become routed-around dead
   cells), the logical remap, and the
   :class:`~repro.fluidics.scheduler.Scheduler`'s A* legs
   (:class:`RoutingCriterion`) or the
   :class:`~repro.fluidics.concurrent_routing.ConcurrentRouter`'s plan
   (:class:`MultiplexedCriterion`), on integer arrays at ~0.1-1 ms per
   run instead of ~2-30 ms.  The object stack stays the library API and
   the tests' oracle (``tests/functional_oracle.py``).

Per-(structure, criterion) precomputation — site placement, anchor
masks, padded physical adjacency, the residue's integer tables, the
fault-free baseline verdict (the residue evaluator on an all-alive
row) — is cached on the :class:`~repro.yieldsim.kernel.RepairStructure`
via a weak map, the ``geometry_for`` idiom of
:mod:`repro.yieldsim.defects`.

:func:`criterion_successes` is the criterion twin of
:func:`repro.yieldsim.kernel.model_successes`: identical sampling loop
and RNG stream (same ~8 MB batches from the same generator), with the
criterion evaluated on cache-sized sub-slices of each batch.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults.injection import RngLike, make_rng
from repro.functional.criteria import CriterionStats, SuccessCriterion
from repro.functional.residue import ResidueProgram
from repro.functional.sites import multiplexed_endpoints, routing_sites, site_legs
from repro.obs import profile as _profile
from repro.yieldsim.defects import DefectModel
from repro.yieldsim.kernel import (
    _CLASSIFY_BYTES,
    GOOD,
    RepairStructure,
    ScreenStats,
    classify_repairable,
    survival_batch_sizes,
)

__all__ = ["evaluate_functional", "criterion_successes", "context_for"]

#: Per-structure cache of funnel contexts, keyed by criterion digest.
_CONTEXTS: "weakref.WeakKeyDictionary[RepairStructure, Dict[str, _FunnelContext]]" = (
    weakref.WeakKeyDictionary()
)


def _bfs_distances(
    allowed: np.ndarray,
    start: np.ndarray,
    target: np.ndarray,
    nbr_pos: np.ndarray,
    nbr_mask: np.ndarray,
) -> np.ndarray:
    """Per-run BFS distance from a start set to a target set.

    All arguments are per-run boolean masks of shape ``(r, n_cells)``
    (``nbr_pos``/``nbr_mask`` are the shared padded adjacency).  Returns
    the per-run distance at which the BFS first touches the target set,
    or ``-1`` when it never does (including an empty start set).  BFS
    frontiers expand for all runs simultaneously; the loop runs at most
    graph-diameter iterations.
    """
    reached = start & allowed
    dist = np.full(reached.shape[0], -1, dtype=np.int64)
    hit = (reached & target).any(axis=1)
    dist[hit] = 0
    level = 0
    while True:
        level += 1
        grow = (reached[:, nbr_pos] & nbr_mask).any(axis=2)
        grow &= allowed & ~reached
        if not grow.any():
            break
        reached |= grow
        hit_now = (dist < 0) & (grow & target).any(axis=1)
        dist[hit_now] = level
    return dist


class _FunnelContext:
    """Everything one (structure, criterion) pair precomputes once."""

    def __init__(self, struct: RepairStructure, criterion: SuccessCriterion):
        chip = struct.chip
        coords = chip.coords
        index = {c: i for i, c in enumerate(coords)}
        n = len(coords)
        self.struct = struct
        self.criterion = criterion
        self.concurrent = criterion.name == "multiplexed"
        self.deadline = int(criterion.deadline)

        primary_cols = [index[cell.coord] for cell in chip.primaries()]
        self.primary_cols = np.asarray(primary_cols, dtype=np.int64)
        #: (n_cells,) mask of primary cells — the S3 route subgraph.
        self.primary_mask = np.zeros(n, dtype=bool)
        self.primary_mask[self.primary_cols] = True

        needed_set = {coords[int(i)] for i in struct.needed_idx}

        # -- criterion-specific program ----------------------------------
        if self.concurrent:
            sources, targets = multiplexed_endpoints(
                chip, len(criterion.assays)
            )
            self.legs: Tuple[Tuple[Hashable, Hashable], ...] = tuple(
                zip(sources, targets)
            )
        else:
            self.legs = tuple(site_legs(routing_sites(chip)))

        #: the residue's integer tables (stage 5 and the S2 baseline)
        self.program = ResidueProgram(
            chip, struct.needed_idx, self.legs, self.concurrent, self.deadline
        )

        # Padded physical adjacency over every cell (spares included).
        nbr_lists = self.program.nbrs
        width = max((len(lst) for lst in nbr_lists), default=0) or 1
        self.nbr_pos = np.zeros((n, width), dtype=np.int32)
        self.nbr_mask = np.zeros((n, width), dtype=bool)
        for i, lst in enumerate(nbr_lists):
            for d, j in enumerate(lst):
                self.nbr_pos[i, d] = j
                self.nbr_mask[i, d] = True

        # Distinct functional sites; all alive => S3 eligibility.
        site_coords = sorted({c for leg in self.legs for c in leg})
        self.site_cols = np.asarray(
            [index[c] for c in site_coords], dtype=np.int64
        )
        #: per-leg (src one-hot, dst one-hot) masks for the S3 BFS.
        self.leg_nodes: List[Tuple[np.ndarray, np.ndarray]] = []
        #: per-leg (src anchors, dst anchors) masks for the S4 bound.
        self.leg_anchors: List[Tuple[np.ndarray, np.ndarray]] = []
        for src, dst in self.legs:
            pair_nodes = []
            pair_anchors = []
            for endpoint in (src, dst):
                node = np.zeros(n, dtype=bool)
                node[index[endpoint]] = True
                pair_nodes.append(node)
                anchor = node.copy()
                if endpoint in needed_set:
                    # The matching may remap a faulty needed endpoint to
                    # any adjacent spare; an unneeded endpoint always
                    # serves itself (dead when faulty).
                    for spare in chip.adjacent_spares(endpoint):
                        anchor[index[spare.coord]] = True
                pair_anchors.append(anchor)
            self.leg_nodes.append((pair_nodes[0], pair_nodes[1]))
            self.leg_anchors.append((pair_anchors[0], pair_anchors[1]))

        # -- fault-free baseline (the S2 verdict) -------------------------
        self.baseline_ok = self.program.success(np.ones(n, dtype=bool))

    # -- the funnel --------------------------------------------------------
    def screen(
        self, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, CriterionStats]:
        """Stages 1-4: (verdicts so far, undecided mask, stage counters)."""
        n_runs = alive.shape[0]
        stats = CriterionStats(runs=n_runs)
        ok = np.zeros(n_runs, dtype=bool)

        with _profile.phase("funnel_screen"):
            # 1. matching failed => no remap exists => criterion fails.
            good = verdict == GOOD
            stats.matching_fail = int(n_runs - good.sum())

            # 2. spare-only faults => identity remap => baseline verdict.
            faulty_primary = (~alive[:, self.primary_cols]).any(axis=1)
            spare_only = good & ~faulty_primary
            stats.spare_only = int(spare_only.sum())
            ok[spare_only] = self.baseline_ok
            undecided = good & faulty_primary

            # 3. alive-primary route screen (sequential legs only).
            if not self.concurrent and undecided.any():
                rows = np.flatnonzero(
                    undecided & alive[:, self.site_cols].all(axis=1)
                )
                if rows.size:
                    sub = alive[rows]
                    allowed = sub & self.primary_mask
                    total = np.zeros(rows.size, dtype=np.int64)
                    feasible = np.ones(rows.size, dtype=bool)
                    for src_node, dst_node in self.leg_nodes:
                        dist = _bfs_distances(
                            allowed,
                            np.broadcast_to(src_node, sub.shape),
                            np.broadcast_to(dst_node, sub.shape),
                            self.nbr_pos,
                            self.nbr_mask,
                        )
                        feasible &= dist >= 0
                        total += np.where(dist > 0, dist, 0)
                    clear = feasible & (total <= self.deadline)
                    cleared = rows[clear]
                    ok[cleared] = True
                    undecided[cleared] = False
                    stats.route_clear = int(clear.sum())

            # 4. physical reachability / distance lower bound (exact fail).
            if undecided.any():
                rows = np.flatnonzero(undecided)
                sub = alive[rows]
                bound = np.zeros(rows.size, dtype=np.int64)
                dead = np.zeros(rows.size, dtype=bool)
                for src_anchor, dst_anchor in self.leg_anchors:
                    dist = _bfs_distances(
                        sub,
                        np.broadcast_to(src_anchor, sub.shape),
                        np.broadcast_to(dst_anchor, sub.shape),
                        self.nbr_pos,
                        self.nbr_mask,
                    )
                    dead |= dist < 0
                    leg_bound = np.where(dist > 0, dist, 0)
                    if self.concurrent:
                        # Concurrent makespan >= the slowest droplet's moves.
                        bound = np.maximum(bound, leg_bound)
                    else:
                        bound += leg_bound
                fail = dead | (bound > self.deadline)
                failed = rows[fail]
                undecided[failed] = False
                stats.unreachable = int(fail.sum())
        return ok, undecided, stats

    def evaluate(
        self, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        ok, undecided, stats = self.screen(alive, verdict)
        # 5. residue: the index-space replay of the fluidics stack.
        with _profile.phase("funnel_residue"):
            rows = np.flatnonzero(undecided)
            stats.residue = int(rows.size)
            success = self.program.success
            for r in rows:
                got = success(alive[r])
                ok[r] = got
                stats.residue_ok += int(got)
        return ok, stats


def context_for(
    struct: RepairStructure, criterion: SuccessCriterion
) -> _FunnelContext:
    """The cached funnel context of one (structure, criterion) pair."""
    per_struct = _CONTEXTS.get(struct)
    if per_struct is None:
        per_struct = {}
        _CONTEXTS[struct] = per_struct
    key = criterion.digest()
    ctx = per_struct.get(key)
    if ctx is None:
        ctx = _FunnelContext(struct, criterion)
        per_struct[key] = ctx
    return ctx


def evaluate_functional(
    struct: RepairStructure,
    criterion: SuccessCriterion,
    alive: np.ndarray,
    verdict: np.ndarray,
) -> Tuple[np.ndarray, CriterionStats]:
    """Funnel evaluation of one survival batch under one criterion."""
    if alive.ndim != 2 or alive.shape[1] != struct.n_cells:
        raise SimulationError(
            f"survival matrix must be (runs, {struct.n_cells}), got {alive.shape}"
        )
    return context_for(struct, criterion).evaluate(alive, verdict)


def criterion_successes(
    struct: RepairStructure,
    model: DefectModel,
    criterion: SuccessCriterion,
    runs: int,
    seed: RngLike = None,
    dtype: type = np.float32,
) -> Tuple[int, ScreenStats, CriterionStats]:
    """Functional successes among ``runs`` fault maps from a defect model.

    The criterion twin of :func:`repro.yieldsim.kernel.model_successes`:
    the sampling loop (generator, ~8 MB batches) is replicated exactly, so
    a functional point consumes the *identical RNG stream* as the matching
    point at equal (chip, model, runs, seed, dtype) — the property that
    keeps serial == pool == sharded bit-identity for functional points.
    Each batch is classified by the matching funnel, then decided by the
    criterion funnel in cache-sized sub-slices.
    """
    if runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs}")
    criterion.validate(struct.n_cells)
    rng = make_rng(seed)
    geometry = struct.geometry
    successes = 0
    screen_total = ScreenStats()
    crit_total = CriterionStats()
    sub = max(1, _CLASSIFY_BYTES // max(1, struct.n_cells))
    for size in survival_batch_sizes(runs, struct.n_cells):
        with _profile.phase("funnel_sample"):
            alive = model.sample_batch(geometry, size, rng, dtype=dtype)
        for start in range(0, alive.shape[0], sub):
            rows = alive[start:start + sub]
            with _profile.phase("funnel_classify"):
                verdict, stats = classify_repairable(struct, rows)
            screen_total.merge(stats)
            got, cstats = criterion.evaluate_batch(struct, rows, verdict)
            successes += int(got.sum())
            crit_total.merge(cstats)
    return successes, screen_total, crit_total

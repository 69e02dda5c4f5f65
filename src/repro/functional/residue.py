"""Index-space evaluator for the functional funnel's residue (stage 5).

The residue is the set of runs no exact screen could decide, so its
verdict is *defined* by the object-model fluidics stack: build the run's
local-repair plan, install the logical->physical remap, and drive the
:class:`~repro.fluidics.scheduler.Scheduler` (sequential legs, one
:meth:`~repro.fluidics.routing.Router.route` A* per leg) or the
:class:`~repro.fluidics.concurrent_routing.ConcurrentRouter` (concurrent
legs, prioritized time-expanded A*).  That stack pays for a chip copy,
hashable coordinates and per-call remap lookups on every run.

:class:`ResidueProgram` compiles one (chip, needed set, route program)
once into integer tables — physical neighbour lists in
:meth:`~repro.chip.biochip.Biochip.neighbors` order, role and needed
masks, leg endpoints as cell indices, and one lattice-distance row per
leg target — and replays the same decisions on a survival row:

1. **repair** — the bipartite graph of
   :func:`~repro.reconfig.local.build_repair_graph` on cell indices
   (faulty needed primaries in chip order, edges in neighbour order) is
   matched by the library's own
   :func:`~repro.reconfig.bipartite.hopcroft_karp`.  The verdict depends
   on *which* spare serves which primary, and only the same algorithm on
   the same node and edge order reproduces that assignment;
2. **remap** — an int array ``phys`` (``-1`` for dead cells: unrepaired
   primaries and faulty primaries outside the needed set, and for every
   spare, which is no logical cell) plus its inverse;
3. **logical neighbours** — :meth:`~repro.fluidics.routing.Router.neighbors`'
   pull-back-consistency rule, memoised per run;
4. **sequential legs** — :meth:`Router.route`'s A* replayed move for
   move: heap key ``(g + h, insertion counter)``, ``h`` the lattice
   distance to the target, the same closed-set and g-score rules.  Under
   a remap that heuristic is inadmissible (a logical neighbour served by
   a spare can sit at lattice distance 2), so A* may return a route one
   move longer than the shortest; functional verdicts are defined by
   this A*, so a BFS would change them at tight deadlines;
5. **concurrent legs** — :meth:`ConcurrentRouter.plan` ported as is:
   rotation order, horizon formula, the three time slices of ``_legal``,
   ``_parked_ok`` and the wait move tried first.

The object stack stays the library API; ``tests/functional_oracle.py``
drives it as the oracle these ports are checked against.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.reconfig.bipartite import BipartiteGraph, hopcroft_karp

__all__ = ["ResidueProgram"]

#: One trajectory of the concurrent planner: the droplet's cell per step.
_Trajectory = List[int]


class _Run:
    """One run's remap plus its memoised logical neighbour lists."""

    __slots__ = ("phys", "inverse", "nbrs", "memo")

    def __init__(
        self,
        phys: List[int],
        inverse: Dict[int, int],
        nbrs: Sequence[Tuple[int, ...]],
    ):
        #: logical cell -> serving physical cell, -1 for no logical cell
        self.phys = phys
        #: serving spare -> the logical primary it replaces
        self.inverse = inverse
        self.nbrs = nbrs
        self.memo: Dict[int, List[int]] = {}

    def neighbors(self, logical: int) -> List[int]:
        """Physical adjacency pulled back through the remap.

        A physical neighbour counts only when the logical cell it serves
        maps back onto it — which drops dead cells, idle spares and a
        remapped primary's own (faulty) coordinate.
        """
        out = self.memo.get(logical)
        if out is None:
            phys = self.phys
            inverse = self.inverse
            out = []
            for cell in self.nbrs[phys[logical]]:
                owner = inverse.get(cell, cell)
                if phys[owner] == cell:
                    out.append(owner)
            self.memo[logical] = out
        return out

    def conflicts(self, a: int, b: int) -> bool:
        """Spacing conflict: same cell or logically adjacent cells."""
        return a == b or b in self.neighbors(a) or a in self.neighbors(b)


class ResidueProgram:
    """Integer tables of one (chip, needed set, route program).

    Parameters
    ----------
    chip:
        The array (health ignored: runs supply their own survival row).
    needed_idx:
        Cell indices of the primaries the repair must cover; faulty
        primaries outside this set become dead cells.
    legs:
        ``(source, target)`` coordinate pairs of the route program.
    concurrent:
        Plan the legs together (makespan) instead of one after another
        (total moves).
    deadline:
        Success bound on total moves (sequential) or makespan (concurrent).
    """

    def __init__(
        self,
        chip: Biochip,
        needed_idx: np.ndarray,
        legs: Sequence[Tuple[object, object]],
        concurrent: bool,
        deadline: int,
    ):
        coords = chip.coords
        index = {c: i for i, c in enumerate(coords)}
        n = len(coords)
        self.n_cells = n
        self.concurrent = concurrent
        self.deadline = int(deadline)
        #: physical neighbour lists, in ``chip.neighbors`` order
        self.nbrs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[x] for x in chip.neighbors(c)) for c in coords
        )
        self.is_primary: List[bool] = [chip[c].is_primary for c in coords]
        needed = np.zeros(n, dtype=bool)
        needed[np.asarray(needed_idx, dtype=np.int64)] = True
        self.is_needed: List[bool] = needed.tolist()
        #: identity remap: every primary serves itself, spares serve none
        self._phys0 = [i if p else -1 for i, p in enumerate(self.is_primary)]
        self.legs: Tuple[Tuple[int, int], ...] = tuple(
            (index[src], index[dst]) for src, dst in legs
        )
        #: lattice distance to each leg target: both planners' A* heuristic
        self._h: Dict[int, List[int]] = {}
        for _src, dst in self.legs:
            if dst not in self._h:
                target = coords[dst]
                self._h[dst] = [c.distance(target) for c in coords]
        k = len(self.legs)
        total = sum(self._h[dst][src] for src, dst in self.legs)
        #: ConcurrentRouter.plan's default horizon
        self.horizon = 2 * total + 4 * k + 8

    # -- repair -------------------------------------------------------------
    def _run(self, alive: np.ndarray) -> Optional[_Run]:
        """The run's repaired remap; None when the repair is incomplete."""
        is_primary = self.is_primary
        is_needed = self.is_needed
        phys = self._phys0.copy()
        left: List[int] = []
        for cell in np.flatnonzero(~alive).tolist():
            if is_primary[cell]:
                phys[cell] = -1  # dead unless a spare takes over below
                if is_needed[cell]:
                    left.append(cell)
        inverse: Dict[int, int] = {}
        if left:
            good = alive.tolist()
            edges = [
                (cell, spare)
                for cell in left
                for spare in self.nbrs[cell]
                if not is_primary[spare] and good[spare]
            ]
            graph = BipartiteGraph(left, [s for _c, s in edges], edges)
            matching = hopcroft_karp(graph)
            if len(matching) < len(left):
                return None
            for cell, spare in matching.items():
                phys[cell] = spare
                inverse[spare] = cell
        return _Run(phys, inverse, self.nbrs)

    # -- sequential legs ----------------------------------------------------
    def _route(self, run: _Run, src: int, dst: int) -> int:
        """:meth:`Router.route`'s move count, or -1 when it would raise."""
        if run.phys[src] < 0 or run.phys[dst] < 0:
            return -1
        if src == dst:
            return 0
        h = self._h[dst]
        counter = 0
        heap = [(h[src], counter, src)]
        g = {src: 0}
        closed = set()
        while heap:
            _, _, current = heapq.heappop(heap)
            if current == dst:
                return g[current]
            if current in closed:
                continue
            closed.add(current)
            step = g[current] + 1
            for nbr in run.neighbors(current):
                if nbr in closed:
                    continue
                if step < g.get(nbr, step + 1):
                    g[nbr] = step
                    counter += 1
                    heapq.heappush(heap, (step + h[nbr], counter, nbr))
        return -1

    def _sequential(
        self, run: _Run, budget: Optional[int]
    ) -> Optional[List[int]]:
        moves: List[int] = []
        spent = 0
        for src, dst in self.legs:
            got = self._route(run, src, dst)
            if got < 0:
                return None
            moves.append(got)
            spent += got
            if budget is not None and spent > budget:
                return None
        return moves

    # -- concurrent legs ----------------------------------------------------
    @staticmethod
    def _clear(
        run: _Run, cell: int, steps: range, planned: List[_Trajectory]
    ) -> bool:
        """No planned droplet conflicts with ``cell`` at any of ``steps``."""
        for step in steps:
            for traj in planned:
                other = traj[step] if step < len(traj) else traj[-1]
                if run.conflicts(cell, other):
                    return False
        return True

    def _plan_single(
        self,
        run: _Run,
        src: int,
        dst: int,
        planned: List[_Trajectory],
    ) -> Optional[_Trajectory]:
        """``ConcurrentRouter._plan_single``: A* over (cell, time)."""

        def legal(cell: int, t: int) -> bool:
            # Every cell offered here is usable: the endpoints were
            # validated and logical neighbours are live by construction.
            return self._clear(run, cell, range(max(t - 1, 0), t + 2), planned)

        if not legal(src, 0):
            return None
        n = self.n_cells
        horizon = self.horizon
        h = self._h[dst]
        high = max((len(traj) for traj in planned), default=0)
        counter = 0
        heap = [(h[src], counter, src, 0)]
        came: Dict[int, int] = {}  # t * n + cell -> previous cell
        while heap:
            _, _, cell, t = heapq.heappop(heap)
            if cell == dst and self._clear(run, dst, range(t, high + 1), planned):
                path = [cell]
                while t > 0:
                    cell = came[t * n + cell]
                    t -= 1
                    path.append(cell)
                path.reverse()
                return path
            if t >= horizon:
                continue
            t1 = t + 1
            for nxt in [cell] + run.neighbors(cell):
                key = t1 * n + nxt
                # Every path to (cell, t) costs t, so a state is pushed at
                # most once: the first time it is legal and reached.
                if key in came or not legal(nxt, t1):
                    continue
                came[key] = cell
                counter += 1
                heapq.heappush(heap, (t1 + h[nxt], counter, nxt, t1))
        return None

    def _concurrent(self, run: _Run) -> Optional[int]:
        legs = self.legs
        phys = run.phys
        for src, dst in legs:
            if phys[src] < 0 or phys[dst] < 0:
                return None
        for i, (src_a, dst_a) in enumerate(legs):
            for src_b, dst_b in legs[i + 1:]:
                if run.conflicts(src_a, src_b) or run.conflicts(dst_a, dst_b):
                    return None
        for rotation in range(len(legs)):
            planned: List[_Trajectory] = []
            for src, dst in legs[rotation:] + legs[:rotation]:
                traj = self._plan_single(run, src, dst, planned)
                if traj is None:
                    break
                planned.append(traj)
            else:
                return max(len(traj) for traj in planned) - 1
        return None

    # -- entry points -------------------------------------------------------
    def leg_moves(self, alive: np.ndarray) -> Optional[List[int]]:
        """Per-leg move counts of the sequential program (None: no schedule)."""
        run = self._run(alive)
        return None if run is None else self._sequential(run, None)

    def makespan(self, alive: np.ndarray) -> Optional[int]:
        """Makespan of the concurrent plan (None: no plan)."""
        run = self._run(alive)
        return None if run is None else self._concurrent(run)

    def success(self, alive: np.ndarray) -> bool:
        """Does the route program finish within the deadline on this run?"""
        run = self._run(alive)
        if run is None:
            return False
        if self.concurrent:
            makespan = self._concurrent(run)
            return makespan is not None and makespan <= self.deadline
        return self._sequential(run, self.deadline) is not None

"""Pure point scheduling: keys, cache, unit plans, fold order, speculation.

This module is the scheduling half of the engine split.  It owns
everything that determines *what* a sweep computes and in *what order*
results fold together — chip payload canonicalization and digests,
point-cache key derivation and the on-disk :class:`PointCache`, and one
unit model for every point.  Each computed point is a *plan of units*
folded strictly in order: a flat point is a one-fold plan whose unit
draws the legacy ``spec.seed`` stream; a batched (sharded or adaptive)
point folds its ``shard_plan`` units, unit ``k`` drawing from
``shard_seed(entropy, k)``, with the stop rule checked after each fold.
Packing is only a submission decision: flat units of one chip travel up
to ``_CHUNK_POINTS`` per submission, batched units one per submission.
One submit/collect/fold loop serves both.  The module owns nothing about
*where* compute units run: that is the
:class:`~repro.yieldsim.executors.Executor` passed into
:meth:`PointScheduler.run`.

The decomposition is what makes the engine's bit-identity contract
auditable: every number is produced by a fold whose order depends only on
the task list, and the executor can only reorder *completion*, never
*folding*.  Serial, process-pool and inline execution are therefore
bit-identical by construction, and the scheduler is the single place cache
keys are derived — which is also what lets the serving layer
(:mod:`repro.serve`) coalesce identical in-flight requests by the very key
the cache would use.

:class:`~repro.yieldsim.engine.SweepEngine` remains the user-facing
facade: it wires a scheduler to an executor and keeps the run accounting
(budget log, screen stats, estimates).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.chip.biochip import Biochip
from repro.chip.cell import Cell, CellRole
from repro.errors import SimulationError
from repro.geometry.hex import Hex
from repro.geometry.square import Square
from repro.yieldsim.cachestore import (
    CacheStore,
    LocalStore,
    decode_entry,
    encode_entry,
    entry_digest,
)
from repro.yieldsim.executors import Executor
from repro.yieldsim.kernel import (
    PointSpec,
    RepairStructure,
    ScreenStats,
    model_successes,
    point_entropy,
    point_model,
    shard_plan,
    shard_seed,
)
from repro.obs import profile as _profile
from repro.obs.events import get_logger, log_event
from repro.obs.trace import Tracer
from repro.yieldsim.resilience import (
    ResilienceStats,
    RetryPolicy,
    UnitRunner,
)
from repro.yieldsim.stats import StopRule

if TYPE_CHECKING:
    from repro.functional.criteria import CriterionStats

__all__ = [
    "ENGINE_VERSION",
    "EnginePoint",
    "PointCache",
    "PointOutcome",
    "PointScheduler",
    "UnitResult",
    "chip_payload",
    "payload_digest",
]

_log = get_logger("scheduler")

#: Bump when the kernel/sampling semantics change, to invalidate caches.
ENGINE_VERSION = 1

#: Maximum flat units per submission: small enough to load-balance a grid
#: across workers, large enough to amortize per-submission pickling.
_CHUNK_POINTS = 4

#: Callback invoked after each in-order fold of a batched point:
#: ``on_fold(task_index, successes, trials)`` with cumulative values.
FoldHook = Callable[[int, int, int], None]


# -- chip payloads ------------------------------------------------------------

def chip_payload(
    chip: Biochip, needed: Optional[Iterable[Hashable]] = None
) -> Dict[str, object]:
    """A minimal, canonical, picklable description of a simulation target.

    Only what the repairability question depends on is included — cell
    coordinates, roles and the needed set.  Health, labels and the chip
    name are deliberately excluded so cosmetic differences cannot split
    the cache.
    """
    kind = None
    cells: List[Tuple[int, int, int]] = []
    for cell in chip:
        coord = cell.coord
        if isinstance(coord, Hex):
            k, a, b = "hex", coord.q, coord.r
        elif isinstance(coord, Square):
            k, a, b = "square", coord.x, coord.y
        else:
            raise SimulationError(
                f"cannot serialize coordinate of type {type(coord).__name__}"
            )
        if kind is None:
            kind = k
        elif kind != k:
            raise SimulationError("chip mixes coordinate systems")
        cells.append((a, b, 1 if cell.is_spare else 0))
    payload: Dict[str, object] = {"coords": kind, "cells": cells}
    if needed is not None:
        needed_pairs = []
        for coord in sorted(set(needed)):
            if isinstance(coord, (Hex, Square)):
                needed_pairs.append(
                    (coord.q, coord.r) if isinstance(coord, Hex) else (coord.x, coord.y)
                )
            else:
                raise SimulationError(
                    f"cannot serialize needed coordinate {coord!r}"
                )
        payload["needed"] = needed_pairs
    return payload


def payload_digest(payload: Dict[str, object]) -> str:
    """Stable SHA-256 digest of a chip payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def structure_from_payload(payload: Dict[str, object]) -> RepairStructure:
    """Rebuild the chip from its payload and derive the repair structure."""
    kind = payload["coords"]
    make = Hex if kind == "hex" else Square
    cells = [
        Cell(make(a, b), CellRole.SPARE if spare else CellRole.PRIMARY)
        for a, b, spare in payload["cells"]
    ]
    chip = Biochip(cells, name="engine-target")
    needed = payload.get("needed")
    if needed is not None:
        needed = [make(a, b) for a, b in needed]
    return RepairStructure(chip, needed=needed)


# -- worker-side execution ----------------------------------------------------

#: Per-process memo of chip digest -> RepairStructure, so a sweep that
#: shards many points of one chip builds the structure once per worker.
_STRUCTURES: Dict[str, RepairStructure] = {}


def _structure_for(digest: str, payload: Dict[str, object]) -> RepairStructure:
    struct = _STRUCTURES.get(digest)
    if struct is None:
        struct = structure_from_payload(payload)
        _STRUCTURES[digest] = struct
    return struct


class UnitResult(NamedTuple):
    """What one compute unit reports: its successes plus its telemetry.

    ``screen`` and ``funnel`` (``None`` for default matching points) are
    the unit's own counters; ``timings`` its worker-side wall/CPU seconds
    (``wall_s``/``cpu_s``) plus any funnel phases.  Telemetry stays
    out-of-band: it never reaches results, cache entries, checkpoints or
    stable digests.
    """

    successes: int
    screen: ScreenStats
    funnel: Optional["CriterionStats"]
    timings: Dict[str, float]


#: One unit's arguments: the point's spec, the runs the unit draws, and
#: its stream — ``None`` for a flat point's legacy ``spec.seed`` stream,
#: ``(entropy, k)`` for unit ``k`` of a batched point's shard plan.
UnitArgs = Tuple[PointSpec, int, Optional[Tuple[int, int]]]


def compute_units(
    digest: str,
    payload: Dict[str, object],
    units: Sequence[UnitArgs],
    dtype_name: str,
) -> List[UnitResult]:
    """Compute one packed submission of units (the executor's unit function).

    Every unit runs on its own stream with its own timers, so its result
    is independent of what it was packed with and its timings are its
    own.  A shard stream is fully determined by ``(entropy, k)`` via
    :func:`~repro.yieldsim.kernel.shard_seed`, so any worker — or the
    calling process — computes the identical batch.  The point's defect
    model and optional success criterion travel inside its spec.
    """
    struct = _structure_for(digest, payload)
    dtype = np.dtype(dtype_name).type
    results: List[UnitResult] = []
    for spec, size, shard in units:
        seed = spec.seed if shard is None else np.random.default_rng(
            shard_seed(*shard)
        )
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with _profile.capture() as timings:
            if spec.criterion is None:
                got, screen = model_successes(
                    struct, point_model(spec), size, seed, dtype=dtype
                )
                funnel = None
            else:
                from repro.functional.funnel import criterion_successes

                got, screen, funnel = criterion_successes(
                    struct, point_model(spec), spec.criterion, size, seed,
                    dtype=dtype,
                )
        timings["wall_s"] = time.perf_counter() - wall0
        timings["cpu_s"] = time.process_time() - cpu0
        results.append(UnitResult(got, screen, funnel, timings))
    return results


# -- scheduling inputs --------------------------------------------------------

@dataclass(frozen=True)
class EnginePoint:
    """One sweep point: a chip, an optional needed set, and a PointSpec.

    ``stop`` attaches an adaptive sequential budget: the point runs in
    batches of ``stop.batch_runs`` and halts once its Wilson interval is
    as narrow as the rule demands, with ``spec.runs`` as the flat ceiling.
    """

    chip: Biochip
    spec: PointSpec
    needed: Optional[Tuple[Hashable, ...]] = None
    stop: Optional[StopRule] = None


# -- the on-disk point cache --------------------------------------------------

class PointCache:
    """Content-addressed on-disk store of computed points.

    One small JSON file per point, keyed by a SHA-256 digest of
    (chip payload digest, regime, parameter, runs, seed, dtype, engine
    version — plus the defect-model digest for explicit-model points, and
    the batch size and stop-rule digest for batched points).  The key is
    the request/response identity of a point: the serving layer coalesces
    concurrent identical requests by exactly this string.

    ``dir=None`` disables storage but keeps key derivation available;
    hits/misses counters then stay zero, matching the engine's historical
    accounting (misses are only counted when a cache is actually on).

    Entry storage is delegated to a
    :class:`~repro.yieldsim.cachestore.CacheStore`: by default a
    :class:`~repro.yieldsim.cachestore.LocalStore` over ``cache_dir``
    (byte-identical to the historical layout), but the engine can inject
    a :class:`~repro.yieldsim.cachestore.TieredCache` to read through to
    a shared remote store.  Fold checkpoints are deliberately **not**
    routed through the store: they are mid-flight private state of one
    run, meaningless to a fleet, and stay local files under ``dir``.

    Every entry carries a content digest, verified on load: a truncated,
    bit-rotted or hand-edited file is *quarantined* (renamed ``*.corrupt``,
    counted in ``stats.quarantined``) and treated as a miss — the read
    path never raises on bad data.  The same journal format backs the
    fold **checkpoints** (``*.ckpt.json``) that make adaptive points
    preemption-proof: :meth:`store_checkpoint` journals a point's
    cumulative fold state after every in-order fold with the same atomic
    tmp+rename discipline, and :meth:`load_checkpoint` lets the next run
    resume at fold *k* with state — successes, trials, screen stats,
    criterion funnel — identical to what the uninterrupted run had there,
    so the final artifact is byte-identical.
    """

    def __init__(self, cache_dir: Optional[str], dtype_name: str,
                 version: int = ENGINE_VERSION,
                 stats: Optional[ResilienceStats] = None,
                 store: Optional["CacheStore"] = None):
        if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise SimulationError(
                f"cache path {cache_dir!r} exists and is not a directory"
            )
        self.dir = cache_dir
        self.dtype_name = dtype_name
        self.version = version
        self.hits = 0
        self.misses = 0
        self.stats = stats if stats is not None else ResilienceStats()
        if store is not None:
            self.backend: Optional[CacheStore] = store
        elif cache_dir is not None:
            self.backend = LocalStore(cache_dir, stats=self.stats)
        else:
            self.backend = None

    # -- keys -----------------------------------------------------------------
    def key(
        self,
        digest: str,
        spec: PointSpec,
        stop: Optional[StopRule] = None,
        batch: Optional[int] = None,
    ) -> str:
        ident: Dict[str, object] = {
            "chip": digest,
            "kind": spec.kind,
            "param": spec.param,
            "runs": spec.runs,
            "seed": spec.seed,
            "dtype": self.dtype_name,
            "version": self.version,
        }
        if spec.model is not None:
            # The model's content digest keys the distribution: two models
            # at equal severity (or a model point and a legacy point at
            # the same p) can never collide in the cache.
            ident["defect_model"] = spec.model.digest()
        if spec.criterion is not None:
            # Same pattern for the success predicate: criterion points key
            # by content digest, and default matching points omit the field
            # entirely, so historical cache entries stay valid.
            ident["criterion"] = spec.criterion.digest()
        if batch is not None:
            # Batched points live under a distinct key family: the batch
            # size defines the RNG stream and the stop-rule digest defines
            # the effective budget, so a flat-budget entry is never served
            # to an adaptive request (or vice versa).
            ident["mode"] = "batched"
            ident["batch"] = batch
            ident["stop"] = stop.digest() if stop is not None else None
        blob = json.dumps(ident, sort_keys=True)
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def _ckpt_path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.ckpt.json")

    # -- integrity ------------------------------------------------------------
    @staticmethod
    def _entry_digest(entry: Dict[str, object]) -> str:
        """Content digest of an entry (excluding its own ``digest`` field)."""
        return entry_digest(entry)

    def _quarantine(self, path: str) -> None:
        """Move a corrupt file aside so it is recomputed, never re-read."""
        self.stats.quarantined += 1
        log_event(
            _log, "quarantine", level=logging.WARNING,
            msg=f"quarantined corrupt cache file {path}", path=path,
        )
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass

    def _verified(self, path: str) -> Optional[Dict[str, object]]:
        """The entry at ``path`` iff it parses and its digest checks out.

        Anything else — unreadable, truncated, non-JSON, digest mismatch,
        a pre-digest legacy entry — quarantines the file and reads as a
        miss.  A file that simply does not exist is a plain miss.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        try:
            # json.loads decodes the bytes itself; invalid UTF-8 raises a
            # UnicodeDecodeError, which is a ValueError — quarantined below.
            data = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(data, dict):
            self._quarantine(path)
            return None
        stored = data.pop("digest", None)
        if stored != self._entry_digest(data):
            self._quarantine(path)
            return None
        return data

    def _write(self, path: str, entry: Dict[str, object]) -> None:
        """Atomically persist ``entry`` (with its digest) at ``path``."""
        entry = dict(entry)
        entry["digest"] = self._entry_digest(entry)
        os.makedirs(self.dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- storage --------------------------------------------------------------
    def load(
        self, key: str, spec: PointSpec, batched: bool = False
    ) -> Optional[Tuple[int, int]]:
        """Cached ``(successes, effective trials)`` for a point, if valid.

        A non-hit counts as a miss (the point will have to be computed);
        with no cache directory nothing is counted at all.
        """
        if self.backend is None:
            return None
        entry = self._read(key, spec, batched)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _read(
        self, key: str, spec: PointSpec, batched: bool
    ) -> Optional[Tuple[int, int]]:
        if batched and spec.seed is None:
            # A seedless batched point has fresh entropy every time; a
            # cache entry for it would be a false hit.
            return None
        blob = self.backend.get(key)
        if blob is None:
            return None
        # The store verified transport/storage integrity; decode_entry
        # re-checks the embedded digest (the safety net for tiers that
        # store arbitrary bytes) before semantic validation below.
        data = decode_entry(blob)
        if data is None:
            return None
        try:
            successes = data["successes"]
            trials = data["trials"]
            if batched:
                if data["requested"] != spec.runs or not 0 <= successes <= trials <= spec.runs:
                    return None
            elif trials != spec.runs or not 0 <= successes <= spec.runs:
                return None
            return int(successes), int(trials)
        except (ValueError, KeyError, TypeError):
            return None

    def store(
        self,
        key: str,
        spec: PointSpec,
        successes: int,
        trials: int,
        batched: bool = False,
        stop: Optional[StopRule] = None,
    ) -> None:
        if self.backend is None or (batched and spec.seed is None):
            return
        entry: Dict[str, object] = {
            "successes": successes,
            "trials": trials,
            "kind": spec.kind,
            "param": spec.param,
            "seed": spec.seed,
            "version": self.version,
        }
        if batched:
            entry["requested"] = spec.runs
            entry["stop"] = stop.digest() if stop is not None else None
        self.backend.put(key, encode_entry(entry))

    # -- fold checkpoints ------------------------------------------------------
    def load_checkpoint(
        self, key: str, spec: PointSpec
    ) -> Optional[Dict[str, object]]:
        """The journaled fold state of a batched point, if present and valid.

        Returns the raw checkpoint entry (``folds``/``successes``/
        ``trials``/``stats``/``crit``); the scheduler validates it against
        the point's shard plan and counter fields before trusting it.  Corrupt checkpoints
        quarantine like any cache file; a stale or inconsistent one reads
        as absent, so the worst outcome of any checkpoint is recomputing
        from fold zero.
        """
        if self.dir is None or spec.seed is None:
            return None
        data = self._verified(self._ckpt_path(key))
        if data is None:
            return None
        try:
            folds = int(data["folds"])  # type: ignore[arg-type]
            successes = int(data["successes"])  # type: ignore[arg-type]
            trials = int(data["trials"])  # type: ignore[arg-type]
        except (ValueError, KeyError, TypeError):
            return None
        if data.get("requested") != spec.runs or folds < 1:
            return None
        if not 0 <= successes <= trials <= spec.runs:
            return None
        return data

    def store_checkpoint(
        self,
        key: str,
        spec: PointSpec,
        *,
        folds: int,
        successes: int,
        trials: int,
        stats: Dict[str, int],
        crit: Optional[Dict[str, int]] = None,
    ) -> None:
        """Journal a batched point's cumulative state after fold ``folds``."""
        if self.dir is None or spec.seed is None:
            return
        self._write(self._ckpt_path(key), {
            "requested": spec.runs,
            "folds": folds,
            "successes": successes,
            "trials": trials,
            "stats": stats,
            "crit": crit,
            "version": self.version,
        })

    def clear_checkpoint(self, key: str) -> None:
        """Drop a point's checkpoint (it completed; the final entry rules)."""
        if self.dir is None:
            return
        try:
            os.unlink(self._ckpt_path(key))
        except OSError:
            pass


# -- result validation --------------------------------------------------------
#
# Validators run parent-side in UnitRunner.collect(): the scheduler knows
# each unit's payload shape and bounds, so a corrupted payload (bit-rot,
# a broken transport, an injected fault) is rejected and the unit retried
# instead of folding garbage into the estimates.

def _is_count(value: object, cap: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    ) and 0 <= int(value) <= cap


def _units_validator(sizes: Sequence[int]) -> Callable[[list], bool]:
    """Accept only a well-formed ``compute_units`` payload for ``sizes``."""
    def validate(value: list) -> bool:
        return len(value) == len(sizes) and all(
            isinstance(result, UnitResult)
            and _is_count(result.successes, size)
            and isinstance(result.screen, ScreenStats)
            for result, size in zip(value, sizes)
        )
    return validate


def _counters(cls: type, block: object) -> Optional[object]:
    """``cls`` rebuilt from a journaled counter block, or ``None`` unless
    the block holds exactly ``cls``'s integer fields."""
    if not isinstance(block, dict) or set(block) != set(cls.__dataclass_fields__):
        return None
    if not all(_is_count(value, 2**63) for value in block.values()):
        return None
    return cls(**block)


# -- per-point outcomes -------------------------------------------------------

@dataclass
class PointOutcome:
    """What :meth:`PointScheduler.run` reports for one task.

    ``successes``/``trials`` are the result (``trials`` is the effective
    budget).  The rest is telemetry of *computed* points and stays
    ``None`` for cache hits — the cache stores results, not telemetry:
    ``screen`` and ``funnel`` (criterion points only) merge the counters
    of the point's in-order folds; ``timings`` sums its units' worker-side
    seconds plus parent-side ``cache_wall_s``/``fold_wall_s``;
    ``incidents`` counts the recovery work of its submissions and stays
    ``None`` for the common incident-free point.
    """

    successes: int = 0
    trials: int = 0
    screen: Optional[ScreenStats] = None
    funnel: Optional["CriterionStats"] = None
    incidents: Optional[Dict[str, int]] = None
    timings: Optional[Dict[str, float]] = None


def _new_funnel(spec: PointSpec) -> Optional["CriterionStats"]:
    if spec.criterion is None:
        return None
    from repro.functional.criteria import CriterionStats

    return CriterionStats()


def _members(token: tuple) -> List[Tuple[int, int]]:
    """The ``(task index, fold)`` units a submission token carries.

    A ``("chunk", indices)`` token packs the single units of flat points;
    an ``(index, k)`` token is unit ``k`` of one batched point.
    """
    if token[0] == "chunk":
        return [(i, 0) for i in token[1]]
    return [token]


# -- the scheduler ------------------------------------------------------------

class PointScheduler:
    """Turns a task list into ordered, cached, executor-agnostic results.

    The scheduler is pure in the sense that its results — each
    :class:`PointOutcome`'s ``(successes, trials)`` — are a function of
    the task list alone.  The executor passed to :meth:`run` decides only where
    compute units execute and how far the scheduler may speculate past an
    adaptive stop point; folds always happen in batch order, so every
    backend produces identical numbers and identical effective budgets.

    ``retry`` applies the resilience layer: failed, hung and corrupted
    units are re-executed with deterministic backoff, and a broken
    process pool is rebuilt with its in-flight units resubmitted — all
    without changing a single number, because every unit is a pure
    function of its arguments.  ``checkpoint=True`` journals each batched
    point's fold state to the cache directory so a preempted adaptive
    point resumes at the fold it reached.  ``stats`` shares one
    :class:`~repro.yieldsim.resilience.ResilienceStats` with the cache
    (default) so the engine sees every incident in one place.
    """

    def __init__(
        self,
        cache: PointCache,
        dtype: type = np.float32,
        shard_runs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: bool = False,
        stats: Optional[ResilienceStats] = None,
        tracer: Optional[Tracer] = None,
    ):
        if shard_runs is not None and shard_runs < 1:
            raise SimulationError(f"shard_runs must be >= 1, got {shard_runs}")
        self.cache = cache
        self.dtype = dtype
        self.shard_runs = shard_runs
        self.retry = retry
        self.checkpoint = checkpoint
        self.stats = stats if stats is not None else cache.stats
        #: Optional span tracer; ``None`` keeps every hot path untouched.
        #: Mutable so a server can arm tracing per-request on one engine.
        self.tracer = tracer

    # -- key derivation --------------------------------------------------------
    def task_batch(self, task: EnginePoint) -> Optional[int]:
        """Batch size for batched (sharded/adaptive) execution, else None."""
        if task.stop is not None:
            return task.stop.batch_runs
        if self.shard_runs is not None and task.spec.runs > self.shard_runs:
            return self.shard_runs
        return None

    def key_for(self, task: EnginePoint) -> str:
        """The point-cache key (request identity) of one task."""
        payload = chip_payload(task.chip, task.needed)
        return self.cache.key(
            payload_digest(payload), task.spec,
            stop=task.stop, batch=self.task_batch(task),
        )

    # -- execution -------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[EnginePoint],
        executor: Executor,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        on_fold: Optional[FoldHook] = None,
    ) -> List[PointOutcome]:
        """One :class:`PointOutcome` per task, in order.

        Every computed point is a plan of units folded strictly in order
        (see the module docstring); a point with a stop rule checks it
        after each fold and stops there.  Submissions go out in a fixed
        order — flat points packed per chip, then batched units point-major
        — up to the executor's capacity, so an adaptive sweep keeps every
        worker busy; units that complete beyond a stop point are discarded
        (queued ones cancelled), keeping numbers, effective budgets and
        counters equal to the capacity-1 fold.  With a capacity-1 immediate
        executor no speculation happens at all.

        ``on_fold`` (if given) observes each in-order fold of a batched
        point — cumulative successes/trials — which is what the serving
        layer streams as NDJSON progress.

        With checkpointing on, each in-order fold of a seeded batched point
        journals the point's cumulative state (successes, trials, screen
        and funnel counters) to the cache directory, and a point with a
        valid journal restores that state up front — skipping the folds an
        interrupted run already did.  Because the journal holds exactly
        what the fold loop had accumulated, a resumed point is
        indistinguishable from an uninterrupted one.

        Telemetry is recorded once: each unit's worker-side timings go to
        the point the unit belongs to, and a submission's recovery
        incidents go to the first point it carried.
        """
        n = len(tasks)
        tracer = self.tracer
        run_t0 = tracer.now_us() if tracer is not None else 0.0
        #: task index -> trace-relative start of the point's lifecycle.
        point_start: Dict[int, float] = {}

        def trace_point(i: int, hit: bool) -> None:
            if tracer is None:
                return
            tracer.complete(
                "point", point_start.get(i, 0.0),
                tracer.now_us() - point_start.get(i, 0.0), cat="point",
                index=i, kind=tasks[i].spec.kind, param=tasks[i].spec.param,
                requested=tasks[i].spec.runs, effective=outcomes[i].trials,
                successes=outcomes[i].successes, hit=hit,
            )

        # Canonical payload/digest per distinct chip object (and needed set).
        seen: Dict[Tuple[int, Optional[Tuple[Hashable, ...]]], str] = {}
        payload_by_digest: Dict[str, Dict[str, object]] = {}
        digests: List[str] = []
        for task in tasks:
            marker = (id(task.chip), task.needed)
            digest = seen.get(marker)
            if digest is None:
                payload = chip_payload(task.chip, task.needed)
                digest = payload_digest(payload)
                seen[marker] = digest
                payload_by_digest[digest] = payload
            digests.append(digest)

        # Cache pass.
        batch_of = [self.task_batch(task) for task in tasks]
        keys = [
            self.cache.key(digests[i], task.spec, stop=task.stop, batch=batch_of[i])
            for i, task in enumerate(tasks)
        ]
        outcomes: List[PointOutcome] = []
        pending: List[int] = []
        for i, task in enumerate(tasks):
            task.spec.validate(len(task.chip))
            if tracer is not None:
                point_start[i] = tracer.now_us()
            load0 = time.perf_counter()
            cached = self.cache.load(keys[i], task.spec, batched=batch_of[i] is not None)
            load_s = time.perf_counter() - load0
            if tracer is not None:
                tracer.complete(
                    "cache.get", point_start[i], load_s * 1e6, cat="cache",
                    key=keys[i][:16], hit=cached is not None,
                )
            if cached is not None:
                outcomes.append(PointOutcome(*cached))
                trace_point(i, hit=True)
            else:
                outcomes.append(PointOutcome(
                    screen=ScreenStats(), funnel=_new_funnel(task.spec),
                    timings={"cache_wall_s": load_s},
                ))
                pending.append(i)
        done, reported = n - len(pending), 0

        def report() -> None:
            nonlocal reported
            if done > reported and progress is not None:
                progress(done, n)
            reported = done

        report()

        # Unit plans: one fold for a flat point, the shard plan otherwise.
        plans = {
            i: (tasks[i].spec.runs,) if batch_of[i] is None else shard_plan(
                tasks[i].stop.cap(tasks[i].spec.runs) if tasks[i].stop else tasks[i].spec.runs,
                batch_of[i],
            )
            for i in pending
        }
        flat = [i for i in pending if batch_of[i] is None]
        batched = [i for i in pending if batch_of[i] is not None]
        entropies = {i: point_entropy(tasks[i].spec.seed) for i in batched}
        next_fold = dict.fromkeys(pending, 0)
        complete: set = set()
        journaled = {
            i for i in batched
            if self.checkpoint and self.cache.dir is not None
            and tasks[i].spec.seed is not None
        }

        def finish(i: int) -> None:
            nonlocal done
            complete.add(i)
            out = outcomes[i]
            self._store_traced(
                keys[i], tasks[i].spec, out.successes, out.trials,
                batched=batch_of[i] is not None, stop=tasks[i].stop,
            )
            if i in journaled:
                self.cache.clear_checkpoint(keys[i])
            out.timings = {
                k: round(v, 6) for k, v in sorted(out.timings.items())
            }
            trace_point(i, hit=False)
            done += 1

        def settle(i: int) -> None:
            """Stop-check point ``i`` after a fold; journal it if it goes on."""
            out, rule = outcomes[i], tasks[i].stop
            if next_fold[i] == len(plans[i]) or (
                rule is not None and rule.should_stop(out.successes, out.trials)
            ):
                finish(i)
            elif i in journaled:
                self.cache.store_checkpoint(
                    keys[i], tasks[i].spec,
                    folds=next_fold[i], successes=out.successes,
                    trials=out.trials, stats=out.screen.as_dict(),
                    crit=out.funnel.as_dict() if out.funnel is not None else None,
                )

        def fold(i: int, result: UnitResult) -> None:
            fold0 = time.perf_counter()
            out = outcomes[i]
            out.successes += result.successes
            out.trials += plans[i][next_fold[i]]
            next_fold[i] += 1
            out.screen.merge(result.screen)
            if out.funnel is not None:
                out.funnel.merge(result.funnel)
            _profile.merge_into(out.timings, result.timings)
            out.timings["fold_wall_s"] = out.timings.get("fold_wall_s", 0.0) + (
                time.perf_counter() - fold0
            )
            if batch_of[i] is not None:
                if tracer is not None:
                    tracer.instant(
                        "fold", cat="point", index=i, fold=next_fold[i],
                        successes=out.successes, trials=out.trials,
                    )
                if on_fold is not None:
                    on_fold(i, out.successes, out.trials)
            settle(i)

        for i in sorted(journaled):
            next_fold[i] = self._restore(i, keys[i], tasks[i].spec, plans[i], outcomes[i])
            if next_fold[i]:
                if on_fold is not None:
                    on_fold(i, outcomes[i].successes, outcomes[i].trials)
                settle(i)
        report()

        # Submission order depends only on the task list: flat units packed
        # per chip, then batched units point-major (a decided point's tail
        # is skipped).  Every backend therefore sees identical submissions.
        chunks: List[List[int]] = []
        for i in flat:
            if (not chunks or digests[i] != digests[chunks[-1][0]]
                    or len(chunks[-1]) >= _CHUNK_POINTS):
                chunks.append([])
            chunks[-1].append(i)

        def submissions() -> Iterator[tuple]:
            for chunk in chunks:
                yield ("chunk", tuple(chunk))
            for i in batched:
                for k in range(next_fold[i], len(plans[i])):
                    if i in complete:
                        break
                    yield (i, k)

        stream = submissions()
        dtype_name = np.dtype(self.dtype).name
        executor.start(len(chunks) + sum(
            len(plans[i]) - next_fold[i] for i in batched if i not in complete
        ))
        runner = UnitRunner(executor, self.retry, self.stats, tracer=tracer)
        ready: Dict[Tuple[int, int], UnitResult] = {}
        try:
            while len(complete) < len(pending):
                while runner.free_slots > 0:
                    token = next(stream, None)
                    if token is None:
                        break
                    units = _members(token)
                    digest = digests[units[0][0]]
                    runner.submit(
                        token, compute_units,
                        (digest, payload_by_digest[digest], tuple(
                            (tasks[i].spec, plans[i][k],
                             None if batch_of[i] is None else (entropies[i], k))
                            for i, k in units
                        ), dtype_name),
                        validator=_units_validator([plans[i][k] for i, k in units]),
                    )
                if not len(runner):
                    raise SimulationError("scheduler stalled with undecided points")
                touched = set()
                for token, results in runner.collect():
                    for unit, result in zip(_members(token), results):
                        ready[unit] = result
                        touched.add(unit[0])
                for i in sorted(touched):
                    while i not in complete and (i, next_fold[i]) in ready:
                        fold(i, ready.pop((i, next_fold[i])))
                report()
                # Drop speculative results (and cancel queued units) of
                # points that have since been decided.
                for unit in [u for u in ready if u[0] in complete]:
                    del ready[unit]
                runner.cancel_where(lambda token: _members(token)[0][0] in complete)
        finally:
            executor.shutdown()

        for token, counts in runner.incidents.items():
            out = outcomes[_members(token)[0][0]]
            out.incidents = out.incidents or {}
            for kind, count in counts.items():
                out.incidents[kind] = out.incidents.get(kind, 0) + count

        if tracer is not None:
            tracer.complete(
                "scheduler.run", run_t0, tracer.now_us() - run_t0,
                cat="engine", tasks=n, hits=n - len(pending),
            )
        return outcomes

    def _restore(
        self, i: int, key: str, spec: PointSpec, plan: Tuple[int, ...],
        out: PointOutcome,
    ) -> int:
        """Restore point ``i``'s journaled folds into ``out``; the count.

        A journal from another plan shape, or whose counter blocks do not
        parse to the counter fields, reads as absent (0): the point
        recomputes from fold zero rather than resume with wrong counters.
        """
        data = self.cache.load_checkpoint(key, spec)
        if data is None:
            return 0
        folds = int(data["folds"])  # type: ignore[arg-type]
        screen = _counters(ScreenStats, data.get("stats"))
        funnel = (
            None if out.funnel is None
            else _counters(type(out.funnel), data.get("crit"))
        )
        if (
            folds > len(plan)
            or int(data["trials"]) != sum(plan[:folds])  # type: ignore[arg-type]
            or screen is None
            or (funnel is None) != (out.funnel is None)
        ):
            return 0
        out.successes = int(data["successes"])  # type: ignore[arg-type]
        out.trials = int(data["trials"])  # type: ignore[arg-type]
        out.screen, out.funnel = screen, funnel
        self.stats.checkpoint_resumes += 1
        self.stats.folds_resumed += folds
        if self.tracer is not None:
            self.tracer.instant(
                "checkpoint_resume", cat="incident", index=i,
                folds=folds, trials=out.trials,
            )
        log_event(
            _log, "checkpoint_resume", point=i, folds=folds,
            successes=out.successes, trials=out.trials,
        )
        return folds

    def _store_traced(
        self,
        key: str,
        spec: PointSpec,
        got: int,
        trials: int,
        *,
        batched: bool = False,
        stop: Optional[StopRule] = None,
    ) -> None:
        """``cache.store`` wrapped in a ``cache.put`` span when tracing."""
        if self.tracer is None:
            self.cache.store(key, spec, got, trials, batched=batched, stop=stop)
            return
        t0 = self.tracer.now_us()
        self.cache.store(key, spec, got, trials, batched=batched, stop=stop)
        self.tracer.complete(
            "cache.put", t0, self.tracer.now_us() - t0, cat="cache",
            key=key[:16],
        )

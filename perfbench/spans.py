"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the public function at each layer boundary of the
``repro`` package from the benchmark's own files; the program itself is
not modified.  Each call becomes one span ``[layer, start, end, parent]``
kept in memory (``parent`` is the enclosing span on the same thread) and
written out once when the traced process ends.  Self time is computed
from that span tree by :func:`summarize`.

Module-level functions are bound by name at every import site
(``from repro.designs.interstitial import build_with_primary_count`` in
``sweeps``, ``serve.app`` and four experiment drivers), so
:meth:`Recorder.install` replaces the function object in its defining
module *and* in every loaded ``repro`` module that holds it.  Methods are
replaced on their class, which every binding shares.

Times use ``time.perf_counter`` -- ``CLOCK_MONOTONIC`` on Linux, one clock
for all processes -- so a client process can line its request windows up
with the server's spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: (layer, module, attribute) of every wrapped function or method.
#: Every concrete defect model's ``sample_batch`` is added by
#: :meth:`Recorder.install`, because each model class defines its own.
TARGETS = (
    ("designs.fit", "repro.designs.interstitial", "build_with_primary_count"),
    ("kernel.count", "repro.yieldsim.kernel", "count_repairable"),
    ("funnel", "repro.functional.funnel", "criterion_successes"),
    ("reconfig.plan", "repro.reconfig.local", "plan_local_repair"),
    ("fluidics.schedule", "repro.fluidics.scheduler", "Scheduler.run"),
    ("fluidics.concurrent", "repro.fluidics.concurrent_routing", "ConcurrentRouter.plan"),
    ("engine", "repro.yieldsim.engine", "SweepEngine.run_points"),
    ("cache.load", "repro.yieldsim.scheduler", "PointCache.load"),
    ("cache.store", "repro.yieldsim.scheduler", "PointCache.store"),
    ("registry", "repro.experiments.registry", "execute"),
    ("artifacts.write", "repro.experiments.artifacts", "ArtifactRun.add"),
    ("artifacts.write", "repro.experiments.artifacts", "ArtifactRun.finalize"),
)
DEFECTS_MODULE = "repro.yieldsim.defects"

#: Layers whose spans :func:`summarize` reports as ``<layer>.calls`` and
#: ``<layer>.s`` (plus ``self_s`` where the metric list asks for it).
LAYERS = (
    "designs.fit", "defects.sample", "kernel.count", "funnel",
    "reconfig.plan", "fluidics.schedule", "fluidics.concurrent", "engine",
    "cache.load", "cache.store", "registry", "artifacts.write",
)


class Recorder:
    """Spans of one traced process, plus the engines it saw.

    ``label_points=True`` (the server) labels each ``engine`` span with the
    point-cache key of its single task, computed after the span closes,
    so a client can match a request to the compute it caused.
    """

    def __init__(self, label_points: bool = False):
        self.spans: List[list] = []
        self.label_points = label_points
        self._local = threading.local()
        self._engines: Dict[int, object] = {}
        #: tasks passed to the wrapped ``run_points``, and the distinct
        #: chips among them, counted by the wrapper
        self.engine_tasks = 0
        self._chips: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, None]
            recorder.spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if layer == "engine":
                    recorder._note_engine(span, args)

        return traced

    def _note_engine(self, span: list, args: Sequence[object]) -> None:
        engine, tasks = args[0], args[1]
        self._engines[id(engine)] = engine
        self.engine_tasks += len(tasks)
        self._chips.update(id(task.chip) for task in tasks)
        if self.label_points and len(tasks) == 1:
            span[4] = engine.point_key(tasks[0])

    def install(self) -> None:
        """Wrap every target; call after ``import repro.cli``."""
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(layer, cls.__dict__[meth]))
            else:
                self._rebind(getattr(module, attr), self.wrap(layer, getattr(module, attr)))
        defects = importlib.import_module(DEFECTS_MODULE)
        for obj in list(vars(defects).values()):
            if (isinstance(obj, type) and obj.__module__ == DEFECTS_MODULE
                    and "sample_batch" in obj.__dict__
                    and not getattr(obj, "_is_protocol", False)):
                obj.sample_batch = self.wrap("defects.sample", obj.__dict__["sample_batch"])

    @staticmethod
    def _rebind(original: Callable, wrapped: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapped

    def export(self) -> List[list]:
        """Spans as ``[layer, start, end, parent_index, label]`` rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [layer, start, end, index[id(parent)] if parent is not None else -1, label]
            for layer, start, end, parent, label in self.spans
        ]

    def program_counts(self) -> Dict[str, int]:
        """Counts the program keeps itself, summed over every engine seen:
        ``screen_stats``, ``point_log`` (with its criterion funnel) and the
        point cache's hit/miss counters; plus ``engine_tasks`` and
        ``engine_chips``, the wrapper's own counts to check them against."""
        counts = dict.fromkeys(
            ("screen_runs", "screen_screened", "points", "funnel_runs",
             "funnel_residue", "cache_hits", "cache_misses"), 0,
        )
        counts["engine_tasks"] = self.engine_tasks
        counts["engine_chips"] = len(self._chips)
        for engine in self._engines.values():
            counts["screen_runs"] += engine.screen_stats.runs
            counts["screen_screened"] += engine.screen_stats.screened
            counts["points"] += len(engine.point_log)
            counts["cache_hits"] += engine.cache_hits
            counts["cache_misses"] += engine.cache_misses
            for record in engine.point_log:
                if record.funnel:
                    counts["funnel_runs"] += int(record.funnel.get("runs", 0))
                    counts["funnel_residue"] += int(record.funnel.get("residue", 0))
        return counts


def summarize(spans: Sequence[list], counts: Dict[str, int], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced process.

    ``<layer>.s`` sums the spans of a layer not nested in another span of
    the same layer; ``self_s`` subtracts each span's direct children.  The
    sum of all self times equals the time covered by top-level spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    for layer, start, end, parent, _label in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    total = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    top = 0.0
    for i, (layer, start, end, parent, _label) in enumerate(spans):
        duration = end - start
        calls[layer] += 1
        self_s[layer] += duration - child_time[i]
        if parent < 0:
            top += duration
        if not _nested_in_same(spans, i):
            total[layer] += duration
    runs = counts["screen_runs"]
    loads = counts["cache_hits"] + counts["cache_misses"]
    return {
        "designs.fit_calls": calls["designs.fit"],
        "designs.fit_s": total["designs.fit"],
        "defects.sample_calls": calls["defects.sample"],
        "defects.sample_s": total["defects.sample"],
        "kernel.count_calls": calls["kernel.count"],
        "kernel.count_s": total["kernel.count"],
        "kernel.runs": runs,
        "kernel.screen_frac": counts["screen_screened"] / runs if runs else 0.0,
        "funnel.calls": calls["funnel"],
        "funnel.s": total["funnel"],
        "funnel.self_s": self_s["funnel"],
        "funnel.residue_frac": (
            counts["funnel_residue"] / counts["funnel_runs"] if counts["funnel_runs"] else 0.0
        ),
        "reconfig.plan_calls": calls["reconfig.plan"],
        "reconfig.plan_s": total["reconfig.plan"],
        "fluidics.schedule_calls": calls["fluidics.schedule"],
        "fluidics.schedule_s": total["fluidics.schedule"],
        "fluidics.concurrent_calls": calls["fluidics.concurrent"],
        "fluidics.concurrent_s": total["fluidics.concurrent"],
        "engine.points": counts["points"],
        "engine.s": total["engine"],
        "engine.self_s": self_s["engine"],
        "cache.load_calls": calls["cache.load"],
        "cache.load_s": total["cache.load"],
        "cache.store_calls": calls["cache.store"],
        "cache.store_s": total["cache.store"],
        "cache.hit_frac": counts["cache_hits"] / loads if loads else 0.0,
        "registry.self_s": self_s["registry"],
        "artifacts.write_s": total["artifacts.write"],
        "trace.coverage_frac": top / wall_s,
        "trace.self_sum_s": sum(self_s.values()),
    }


def checks(layers: Dict[str, float], counts: Dict[str, int], wall_s: float,
           cached: bool) -> List[Tuple[str, bool]]:
    """``(label, ok)`` checks of one traced process.

    The count checks compare span counts with the program's own counters,
    so they fail when a binding the recorder missed lets calls go
    unrecorded.  ``cached`` says whether the program had a cache directory:
    only then does the point cache count hits and misses.  The self-time
    check holds by construction on one thread; it guards the summary.
    """
    lookups = counts["cache_hits"] + counts["cache_misses"]
    return [
        ("tasks in run_points spans == len(point_log)",
         counts["engine_tasks"] == counts["points"]),
        ("cache.load_calls == engine.points",
         layers["cache.load_calls"] == counts["points"]),
        ("cache hits + misses == " + ("cache.load_calls" if cached else "0 (no cache)"),
         lookups == (layers["cache.load_calls"] if cached else 0)),
        ("distinct chips in run_points spans <= designs.fit_calls",
         counts["engine_chips"] <= layers["designs.fit_calls"]),
        ("kernel.count_calls > 0 when screen_stats.runs > 0",
         layers["kernel.count_calls"] > 0 or counts["screen_runs"] == 0),
        ("sum of layer self times <= traced wall_s",
         layers["trace.self_sum_s"] <= wall_s),
    ]


def all_pass(per_process: Sequence[List[Tuple[str, bool]]]) -> List[Tuple[str, bool]]:
    """The checks of several processes, each ok only if ok in all of them."""
    return [(label, all(c[i][1] for c in per_process))
            for i, (label, _ok) in enumerate(per_process[0])]


def _nested_in_same(spans: Sequence[list], i: int) -> bool:
    layer, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def engine_windows(spans: Sequence[list]) -> Dict[str, List[Sequence[float]]]:
    """``key -> [(start, end), ...]`` of every labelled engine span."""
    windows: Dict[str, List[Sequence[float]]] = {}
    for layer, start, end, _parent, label in spans:
        if layer == "engine" and label is not None:
            windows.setdefault(label, []).append((start, end))
    return windows


def overlap(windows: Dict[str, List[Sequence[float]]], key: str,
            start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by engine spans for ``key``."""
    return sum(
        max(0.0, min(end, w_end) - max(start, w_start))
        for w_start, w_end in windows.get(key, ())
    )

"""Shared configuration for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure from the paper at
the paper's Monte-Carlo budget (10 000 runs per point unless stated) and
asserts the *shape* claims — who wins, by roughly what factor, where the
crossovers fall.  Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_RUNS`` to lower the budget for a quick pass,
``REPRO_BENCH_JOBS`` to shard sweep points across worker processes
(results are bit-identical to serial), and ``REPRO_BENCH_CACHE`` to reuse
an on-disk sweep result cache between invocations.
"""

from __future__ import annotations

import importlib.util
import os
from types import ModuleType

import pytest

from repro.yieldsim.engine import SweepEngine

#: Monte-Carlo runs per point; the paper uses 10 000.
FULL_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "10000"))

#: Worker processes for the sweep engine (1 = in-process).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Optional on-disk sweep cache directory.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None


@pytest.fixture(scope="session")
def runs() -> int:
    return FULL_RUNS


@pytest.fixture(scope="session")
def engine() -> SweepEngine:
    """One engine for the whole benchmark session (shared cache counters)."""
    return SweepEngine(jobs=JOBS, cache_dir=CACHE_DIR)


def load_test_module(name: str) -> ModuleType:
    """Load ``tests/<name>.py`` (an oracle kept with the tests) by path.

    Putting ``tests/`` on ``sys.path`` instead would let its conftest
    shadow this directory's.
    """
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", f"{name}.py"
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(title: str, body: str) -> None:
    """Print a labelled report block (shown with pytest -s)."""
    print(f"\n=== {title} ===\n{body}\n")

"""Program processes and small statistics shared by the workloads."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: a run must end within 180 s; no single program process may take longer
CHILD_TIMEOUT_S = 150.0


class Failure(Exception):
    """A program process that did not run to completion."""


# -- program processes ---------------------------------------------------------

class Work:
    """The run's scratch directory inside the checkout and the processes it
    started; :meth:`close` ends both."""

    def __init__(self) -> None:
        self.root = os.path.join(WORK_ROOT, str(os.getpid()))
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self._n = 0
        self.procs: List[subprocess.Popen] = []

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.root, f"{self._n:03d}-{name}")

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def launch(work: Work, mode: str, argv: Sequence[str],
           stdout_path: Optional[str] = None) -> Tuple[subprocess.Popen, str, float, str]:
    """Start one child; returns (process, report path, launch instant, stderr path)."""
    report = work.path("report.json")
    stderr_path = report + ".stderr"
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    stderr = open(stderr_path, "wb")
    try:
        launched = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, report, mode, "--", *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
        )
        work.procs.append(proc)
    finally:
        if stdout_path:
            stdout.close()
        stderr.close()
    return proc, report, launched, stderr_path


def finish(proc: subprocess.Popen, report: str, stderr_path: str,
           timeout: float = CHILD_TIMEOUT_S) -> Tuple[Dict[str, object], float]:
    """Wait for a child; returns (its report, exit instant)."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Failure(f"{proc.args[4:]} exceeded {timeout:.0f} s")
    exited = time.perf_counter()
    if proc.returncode != 0 or not os.path.exists(report):
        with open(stderr_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        raise Failure(f"{proc.args[4:]} exited {proc.returncode}:\n{tail}")
    with open(report) as fh:
        return json.load(fh), exited


def setup_probe(work: Work) -> float:
    """Seconds from launch until ``import repro.cli`` has returned."""
    proc, report, launched, err = launch(work, "setup", [])
    data, _ = finish(proc, report, err)
    return data["import_done"] - launched


def repeat(modes: Sequence[str], seconds: float,
           once: Callable[[str], Dict[str, object]]) -> List[Dict[str, object]]:
    """``once(mode)`` for ``modes`` in turn, each result tagged with its mode.

    Makes at least one call per mode, then more while the longest call so
    far would still end within ``seconds`` of the first.
    """
    results: List[Dict[str, object]] = []
    start = time.perf_counter()
    longest = 0.0
    while len(results) < len(modes) or time.perf_counter() - start + longest <= seconds:
        mode = modes[len(results) % len(modes)]
        t0 = time.perf_counter()
        results.append({**once(mode), "mode": mode})
        longest = max(longest, time.perf_counter() - t0)
    return results


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median_dict(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}

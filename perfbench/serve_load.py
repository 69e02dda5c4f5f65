"""serve-mixed: ``repro serve --cache DIR`` under a closed loop of point requests.

One session starts a server on a fresh cache directory and, once
``GET /health`` answers, drives it with ``CLIENTS`` threads that each send
their next ``POST /points`` only when the previous reply has arrived (a
closed loop: serve callers wait for each reply, and all compute is
serialized under one lock in the server).  The ``REQUESTS`` bodies come
from the seed: a design of ``DESIGNS``, n of ``NS``, p of ``PS`` and runs
of ``RUNS``, with about ``REPEAT_FRAC`` of them repeating an earlier one.
A first occurrence is *cold* (computes and writes the cache); a repeat is
*warm* (a cache hit, or coalesced onto the in-flight original), so reads
run beside writes.  The mix is synthetic, chosen for that; nothing records
real ``/points`` callers to check it against.

A run replays the same bodies in as many fresh sessions as fit in
``--seconds`` (at least one) and reports the median over sessions of each
session's metrics, so a few seconds lost to a busy shared host in one
session do not move the result.

Checks: every reply is 2xx; every answer equals the first answer to the
same body in any session of the run (so warm equals cold, and sessions
agree); and ``RECOMPUTE`` cold answers, picked by the seed, are recomputed
in this process through ``SweepEngine.run_points`` and must match, point
key included.

A traced run alternates traced and untraced sessions.  In a traced
session the server runs under the span recorder, and the client lines
each request's window up with the server's engine spans for the same
point key, so ``serve.*_overhead_p50_ms`` is the part of a request spent
outside ``run_points`` (HTTP, JSON, the thread hop and the wait for the
compute lock).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import procs
import spans

DESIGNS = ("DTMB(1,6)", "DTMB(2,6)", "DTMB(3,6)", "DTMB(4,4)")
NS = (60, 120)
PS = (0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98)
RUNS = (500, 1000, 2000)
REQUESTS = 1000
REPEAT_FRAC = 0.4
CLIENTS = 2
RECOMPUTE = 16
HTTP_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


def make_requests(seed: int) -> List[Dict[str, object]]:
    """The session's request bodies; a repeat is the same dict object."""
    rng = random.Random(seed)
    bodies: List[Dict[str, object]] = []
    for _ in range(REQUESTS):
        if bodies and rng.random() < REPEAT_FRAC:
            bodies.append(bodies[rng.randrange(len(bodies))])
        else:
            bodies.append({
                "kind": "survival", "param": rng.choice(PS),
                "runs": rng.choice(RUNS), "seed": rng.randrange(1, 2**31),
                "design": rng.choice(DESIGNS), "n": rng.choice(NS),
            })
    return bodies


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get(port: int, path: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()


class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, work: procs.Work, mode: str):
        self.port = free_port()
        argv = ["serve", "--port", str(self.port), "--cache", work.path("cache")]
        self.proc, self.report, launched, self.stderr = procs.launch(work, mode, argv)
        deadline = launched + READY_TIMEOUT_S
        while True:
            try:
                if get(self.port, "/health") == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise procs.Failure("repro serve did not become healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - launched

    def stop(self) -> Dict[str, object]:
        """SIGTERM (a graceful drain), then the child's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        data, _ = procs.finish(self.proc, self.report, self.stderr, timeout=60.0)
        return data


def drive(port: int, bodies: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Send every body over ``CLIENTS`` closed-loop threads."""
    records: List[Optional[Dict[str, object]]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(bodies):
                return
            data = json.dumps(bodies[i]).encode()
            record: Dict[str, object] = {"status": None, "payload": None}
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
            record["start"] = time.perf_counter()
            try:
                conn.request("POST", "/points", body=data,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                raw = resp.read()
                record["end"] = time.perf_counter()
                record["status"] = resp.status
                record["payload"] = json.loads(raw)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                record["end"] = time.perf_counter()
                record["error"] = repr(exc)
            finally:
                conn.close()
            records[i] = record

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records  # type: ignore[return-value]


def session(work: procs.Work, mode: str, bodies: Sequence[Dict[str, object]]) -> Dict[str, object]:
    server = Server(work, mode)
    try:
        records = drive(server.port, bodies)
    finally:
        report = server.stop()
    seen = set()
    cold = []
    for i, body in enumerate(bodies):
        cold.append(id(body) not in seen)
        seen.add(id(body))
    return {"setup_s": server.setup_s, "records": records, "cold": cold, "report": report}


def check(bodies: Sequence[Dict[str, object]],
          sessions: Sequence[Dict[str, object]]) -> Tuple[int, Dict[int, int]]:
    """Failed requests over all sessions, and the first good answer's
    request index for each distinct body (its cold answer).

    A request fails on a non-2xx reply or an error, or when its answer
    ``(key, successes, trials)`` differs from the first good answer to the
    same body in any session of the run.
    """
    failed = 0
    first: Dict[int, Tuple[Tuple[object, ...], int, int]] = {}
    for n, sess in enumerate(sessions):
        for i, (body, rec) in enumerate(zip(bodies, sess["records"])):
            if rec["status"] is None or not 200 <= rec["status"] < 300:
                failed += 1
                print(f"# session {n} request {i} failed: {rec['status']} "
                      f"{rec.get('error', '')}", file=sys.stderr)
                continue
            answer = tuple(rec["payload"].get(k) for k in ("key", "successes", "trials"))
            ref = first.setdefault(id(body), (answer, n, i))
            if ref[0] != answer:
                failed += 1
                print(f"# session {n} request {i}: answer {answer} != {ref[0]}",
                      file=sys.stderr)
    return failed, first


def recompute(checks: Sequence[Tuple[Dict[str, object], Dict[str, object]]]) -> int:
    """How many ``(body, served payload)`` pairs differ from an in-process
    computation of the same point."""
    src = os.path.join(procs.ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.designs.catalog import ALL_DESIGNS
    from repro.designs.interstitial import build_with_primary_count
    from repro.yieldsim.engine import SweepEngine
    from repro.yieldsim.kernel import PointSpec
    from repro.yieldsim.scheduler import EnginePoint

    designs = {d.name: d for d in ALL_DESIGNS}
    engine = SweepEngine()
    chips = {}
    failed = 0
    for body, payload in checks:
        key = (body["design"], body["n"])
        if key not in chips:
            chips[key] = build_with_primary_count(designs[body["design"]], body["n"]).build()
        task = EnginePoint(chips[key], PointSpec("survival", body["param"], body["runs"], body["seed"]))
        estimate = engine.run_points([task])[0]
        want = (engine.point_key(task), estimate.successes, estimate.trials)
        got = (payload["key"], payload["successes"], payload["trials"])
        if want != got:
            failed += 1
            print(f"# {body}: served {got} != recomputed {want}", file=sys.stderr)
    return failed


def latencies_ms(sess: Dict[str, object], cold: bool) -> List[float]:
    return [(r["end"] - r["start"]) * 1000 for r, c in zip(sess["records"], sess["cold"])
            if c == cold and r["status"] == 200]


def session_metrics(sess: Dict[str, object]) -> Dict[str, float]:
    records = sess["records"]
    cold, warm = latencies_ms(sess, True), latencies_ms(sess, False)
    return {
        "wall_s": max(r["end"] for r in records) - min(r["start"] for r in records),
        "cold_p50_ms": statistics.median(cold),
        "cold_p99_ms": procs.percentile(cold, 99),
        "warm_p50_ms": statistics.median(warm),
        "warm_p99_ms": procs.percentile(warm, 99),
        "peak_rss_mb": sess["report"]["maxrss_kb"] / 1024.0,
    }


def overhead_p50_ms(sess: Dict[str, object], cold: bool) -> float:
    """Median request latency outside the server's engine time for its key."""
    windows = spans.engine_windows(sess["report"]["spans"])
    outside = [
        (r["end"] - r["start"] - spans.overlap(windows, r["payload"]["key"], r["start"], r["end"])) * 1000
        for r, c in zip(sess["records"], sess["cold"]) if c == cold and r["status"] == 200
    ]
    return statistics.median(outside)


def run_serve(seed: int, seconds: float, trace: bool, work: procs.Work) -> Dict[str, object]:
    print(f"# serve-mixed: seed {seed}, sessions of {REQUESTS} requests, {CLIENTS} clients, "
          f"{'traced' if trace else 'untraced'}")
    bodies = make_requests(seed)
    probe = Server(work, "plain")
    setups = [probe.setup_s]
    imports = [_import_s(probe.stop())]
    modes = ("trace", "plain") if trace else ("plain",)
    sessions = procs.repeat(modes, seconds, lambda mode: session(work, mode, bodies))
    failed, first = check(bodies, sessions)
    picks = random.Random(seed).sample(sorted(first.values(), key=lambda r: (r[1], r[2])),
                                       min(RECOMPUTE, len(first)))
    failed += recompute([(bodies[i], sessions[n]["records"][i]["payload"]) for _, n, i in picks])
    for sess in sessions:
        setups.append(sess["setup_s"])
        imports.append(_import_s(sess["report"]))
    plain = [s for s in sessions if s["mode"] == "plain"]
    e2e = procs.median_dict([session_metrics(s) for s in plain])
    e2e["setup_s"] = statistics.median(setups)
    n_cold = sum(plain[0]["cold"])
    samples = {
        "setup_s": len(setups), "wall_s": len(plain), "peak_rss_mb": len(plain),
        "cold_p50_ms": n_cold * len(plain), "cold_p99_ms": n_cold * len(plain),
        "warm_p50_ms": (REQUESTS - n_cold) * len(plain),
        "warm_p99_ms": (REQUESTS - n_cold) * len(plain),
    }
    result = {"attempted": REQUESTS * len(sessions), "failed": failed, "e2e": e2e,
              "samples": samples}
    if trace:
        per_session = []
        session_checks = []
        for sess in sessions:
            if sess["mode"] != "trace":
                continue
            wall = session_metrics(sess)["wall_s"]
            counts = sess["report"]["counts"]
            layers = spans.summarize(sess["report"]["spans"], counts, wall)
            session_checks.append(spans.checks(layers, counts, wall, cached=True))
            layers["serve.cold_overhead_p50_ms"] = overhead_p50_ms(sess, True)
            layers["serve.warm_overhead_p50_ms"] = overhead_p50_ms(sess, False)
            layers["trace.wall_s"] = wall
            per_session.append(layers)
        layers = procs.median_dict(per_session)
        layers["import.s"] = statistics.median(imports)
        layers["artifacts.bytes"] = 0
        layers["trace.overhead_frac"] = (layers["trace.wall_s"] - e2e["wall_s"]) / e2e["wall_s"]
        result["layers"] = layers
        result["checks"] = spans.all_pass(session_checks)
        result["why"] = [
            ("cache.load_calls > 0", layers["cache.load_calls"] > 0),
            ("serve.warm_overhead_p50_ms > warm_p50_ms / 2",
             layers["serve.warm_overhead_p50_ms"] > e2e["warm_p50_ms"] / 2),
        ]
    return result


def _import_s(report: Dict[str, object]) -> float:
    return report["import_done"] - report["import_start"]


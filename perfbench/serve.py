"""Parent side of ``serve-query``: ``rootsim-serve`` as a subprocess.

Set-up builds the dataset (in a fresh interpreter, through the
``study-save`` body) and computes every reference answer.  Then come
sessions, each on a fresh server; an untraced run's first session is a
warm-up, checked but not reported.  The timed phase is a cold pass over
every analysis and figure group, then a fixed number of closed-loop
requests, whose rate is ``max_rps``.  After it, the warm server takes
open-loop load at fractions of that rate, which gives ``p50_ms``.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import loadgen
from harness import (
    ROOT,
    BenchError,
    add_missing,
    child_env,
    expect,
    iterate,
    median,
    merge_checks,
    new_checks,
    overhead_ratio,
    percentile,
    reference_metrics,
    run_child,
    tracing_summary,
)
from batch import layer_counts
from proctree import hwm_mb, self_cpu_seconds

#: Closed-loop requests in the timed phase of a session.
CLOSED_LOOP_REQUESTS = 6000
#: Seconds each open-loop rate runs per session.
OPEN_LOOP_STEP_S = 0.5


class Server:
    """``rootsim-serve DATASET --port 0`` in a subprocess, stopped and
    reaped on exit."""

    def __init__(self, dataset: Path, log: Path) -> None:
        self.spawned = time.monotonic()
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.app", str(dataset), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) \(", line)
        if not match:
            self.close()
            raise BenchError(f"rootsim-serve did not start: {line!r} (see {log.name})")
        self.port = int(match.group(1))

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cold_pass(server: Server, entry: str, ref: dict, expected: Dict[str, bytes],
              checks: dict, spans: List[list], parent: int) -> Tuple[List[float], float, str]:
    """Every analysis and figure group once, in order, on one
    connection; returns (latencies, time of the first answer, ETag)."""
    keys = [f"analyses/{n}" for n in ref["analyses"]] + [f"figures/{g}" for g in ref["figures"]]
    latencies, first, etag = [], 0.0, ""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        for key in keys:
            started = time.monotonic()
            status, body, headers = loadgen.fetch(
                conn, loadgen.Request(f"/datasets/{entry}/{key}", (), 200, key)
            )
            done = time.monotonic()
            if parent >= 0:
                spans.append(["http.request", started, done, parent])
            latencies.append(done - started)
            first = first or done
            etag = headers.get("ETag", etag)
            expect(checks, status == 200 and body == expected[key],
                   f"cold {key}: status {status} or body differs from the reference")
    finally:
        conn.close()
    return latencies, first, etag


def session(args, dataset: Path, ref: dict, expected: Dict[str, bytes], work: Path,
            index: int) -> dict:
    """One fresh server: cold pass and closed loop (timed), then the
    open-loop steps."""
    traced = bool(args.trace)
    checks = new_checks()
    spans: List[list] = []
    with Server(dataset, work / f"serve-{index}.log") as server:
        health = server.get_json("/healthz")
        ready = time.monotonic()
        spans += [["setup", server.spawned, ready, -1], ["serving.start", server.spawned, ready, 0]]
        stats0 = server.get_json("/stats")["cache"]
        expect(checks, health.get("status") == "ok", "healthz not ok")
        expect(checks, stats0["entries"] == stats0["hits"] == stats0["misses"] == 0,
               f"server cache not cold: {stats0}")
        cpu0 = self_cpu_seconds(server.proc.pid) or 0.0

        t0 = time.monotonic()
        root = len(spans)
        spans += [["timed", t0, None, -1], ["serving.cold_pass", t0, None, root]]
        cold, first, etag = cold_pass(server, dataset.name, ref, expected, checks, spans,
                                      root + 1 if traced else -1)
        spans[root + 1][2] = time.monotonic()
        mix = loadgen.request_mix(args.seed, dataset.name, ref["analyses"], ref["figures"],
                                  etag, 4096)
        # each session starts further into the mix, so sessions differ
        offset = index * 1400
        closed_loop = len(spans)
        spans.append(["serving.closed_loop", time.monotonic(), None, root])
        capacity = loadgen.run_step(server.port, mix, offset, CLOSED_LOOP_REQUESTS, None,
                                    expected)
        t1 = time.monotonic()
        spans[closed_loop][2] = spans[root][2] = t1
        cpu1 = self_cpu_seconds(server.proc.pid) or cpu0
        offset += capacity.attempted

        steps = []
        for fraction in loadgen.LOAD_FRACTIONS:
            rate = fraction * capacity.throughput
            step = loadgen.run_step(server.port, mix, offset, int(rate * OPEN_LOOP_STEP_S),
                                    rate, expected)
            offset += step.attempted
            steps.append(step)
        stats1 = server.get_json("/stats")["cache"]
        peak_rss_mb = hwm_mb(server.proc.pid) or 0.0
    for step in [capacity] + steps:
        checks["attempted"] += step.attempted
        checks["failed"] += step.failed
        if step.failed:
            checks["errors"].append(f"{step.failed} wrong or failed answers")
    return {
        "checks": checks,
        "server_start_s": ready - server.spawned,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "cold_s": sum(cold),
        "fresh_lag_s": first - server.spawned,
        "p50_s": percentile([lat for s in steps for lat in s.latencies], 50),
        "p99_s": percentile([lat for s in steps for lat in s.latencies], 99),
        "per_rate": [(percentile(s.latencies, 50), percentile(s.latencies, 99)) for s in steps],
        "max_rps": capacity.throughput,
        "late": [late for s in steps for late in s.late],
        "stats": {k: stats1[k] - stats0[k] for k in ("hits", "misses")},
        "trace": {"spans": spans, "counters": {}},
    }


def serve_workload(args, work: Path):
    """Returns ``(checks, metrics)`` for ``serve-query``."""
    trace = bool(args.trace)
    # a traced run also builds untraced once, to measure tracing overhead
    builds = [
        run_child("study-save", args, work / f"dataset-{i}", trace=trace and i == 0,
                  build_only=1)
        for i in range(2 if trace else 1)
    ]
    dataset = work / "dataset-0"
    ref = run_child("reference", args, work / "reference", trace=False, dataset=dataset)
    expected = {
        f"{kind}/{path.stem}": path.read_bytes()
        for kind in ("analyses", "figures")
        for path in (work / "reference" / kind).glob("*.json")
    }
    checks = new_checks()
    for build in builds:
        merge_checks(checks, build["checks"])

    # a traced run serves one session, so its layer times are per session;
    # an untraced run's first session is a warm-up, checked but not timed
    sessions = iterate(lambda i: session(args, dataset, ref, expected, work, i),
                       0.0 if trace else args.seconds, minimum=1 if trace else 2)
    for s in sessions:
        merge_checks(checks, s["checks"])
    if not trace:
        sessions = sessions[1:]
    print("sessions: " + json.dumps([
        {"cold_s": round(s["cold_s"], 4), "wall_s": round(s["wall_s"], 4),
         "max_rps": round(s["max_rps"], 1),
         "p50_p99_ms": {f"{int(100 * f)}%": [round(1000 * v, 3) for v in pair]
                        for f, pair in zip(loadgen.LOAD_FRACTIONS, s["per_rate"])}}
        for s in sessions
    ]))

    build_s = [b["t_saved"] - b["t_spawn"] for b in builds]
    if not trace:
        return checks, {
            "setup_s": build_s[0] + median(s["server_start_s"] for s in sessions),
            "wall_s": median(s["wall_s"] for s in sessions),
            "cpu_s": median(s["cpu_s"] for s in sessions),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in sessions),
            "cold_s": median(s["cold_s"] for s in sessions),
            "p50_ms": 1000 * median(s["p50_s"] for s in sessions),
            "fresh_lag_ms": 1000 * median(s["fresh_lag_s"] for s in sessions),
            "max_rps": median(s["max_rps"] for s in sessions),
        }

    build = builds[0]
    build["trace"]["group"] = "setup"
    metrics = tracing_summary(
        [build["trace"]] + [s["trace"] for s in sessions], len(sessions),
        overhead_ratio(build_s[:1], build_s[1:]),
    )
    add_missing(metrics, reference_metrics(ref))
    metrics.update(layer_counts([build], "study-save"))
    hits = sum(s["stats"]["hits"] for s in sessions)
    misses = sum(s["stats"]["misses"] for s in sessions)
    metrics.update({
        "serving.cache_hits": hits / len(sessions),
        "serving.cache_misses": misses / len(sessions),
        "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.compute_s": median(s["cold_s"] for s in sessions),
        "answers.p99_ms": 1000 * median(s["p99_s"] for s in sessions),
        "serving.generator_late_ms": 1000 * percentile(
            [late for s in sessions for late in s["late"]], 99
        ),
    })
    for i, fraction in enumerate(loadgen.LOAD_FRACTIONS):
        load = f"load{int(100 * fraction)}"
        metrics[f"answers.p50_ms.{load}"] = 1000 * median(s["per_rate"][i][0] for s in sessions)
        metrics[f"answers.p99_ms.{load}"] = 1000 * median(s["per_rate"][i][1] for s in sessions)
    return checks, metrics

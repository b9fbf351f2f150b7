"""What every workload shares: fresh child interpreters, the
iteration loop, checks, and the per-layer summary of traced runs."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from proctree import TreeSampler
from tracing import find_root, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child or the server failed: the run prints no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(kind: str, args, out: Path, trace: bool, **extra) -> dict:
    """Run one workload body (:mod:`workloads`) in a fresh interpreter,
    sampling its whole process tree; returns the body's result plus the
    tree's CPU (descendants only) and summed peak RSS."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", kind,
        "--seed", str(args.seed), "--scale", args.scale,
        "--out", str(out), "--trace", "1" if trace else "0",
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    try:
        with TreeSampler(proc.pid) as sampler:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-15:]
        raise BenchError(f"{kind} child failed ({proc.returncode}):\n" + "\n".join(tail))
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    result["t_spawn"] = t_spawn
    result["tree_cpu_s"] = sampler.cpu_seconds(exclude=(proc.pid,))
    result["peak_rss_mb"] = sampler.peak_rss_mb()
    # set-up starts when the interpreter is spawned, not when it runs
    spans = result["trace"]["spans"]
    setup = find_root(spans, "setup")
    if setup is not None:
        spans[setup][1] = t_spawn
    return result


def iterate(run_one: Callable[[int], dict], seconds: float, minimum: int) -> List[dict]:
    """Run iterations until the next one would overrun *seconds*."""
    results: List[dict] = []
    started = time.monotonic()
    while True:
        results.append(run_one(len(results)))
        elapsed = time.monotonic() - started
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return float("inf")
    rank = min(len(ordered), max(1, -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


# --- checks --------------------------------------------------------------------------


def new_checks() -> dict:
    return {"attempted": 0, "failed": 0, "errors": []}


def expect(checks: dict, ok: bool, what: str) -> None:
    checks["attempted"] += 1
    if not ok:
        checks["failed"] += 1
        checks["errors"].append(what)


def merge_checks(into: dict, other: dict) -> None:
    into["attempted"] += other["attempted"]
    into["failed"] += other["failed"]
    into["errors"].extend(other["errors"])


# --- traced runs ---------------------------------------------------------------------


def layer_times(traces: List[dict]) -> Dict[str, Dict[str, float]]:
    """Self time by layer per root group (``setup``, ``timed``), summed
    over *traces*.  ``""`` holds each group's unaccounted time and
    ``"__wall__"`` its roots' total duration.  A trace may carry a
    ``group`` that all of its roots count under."""
    groups: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        spans = trace["spans"]
        for index, span in enumerate(spans):
            if span[3] != -1 or span[2] is None:
                continue
            group = groups.setdefault(trace.get("group", span[0]), {})
            for name, value in self_times(spans, index).items():
                group[name] = group.get(name, 0.0) + value
            group["__wall__"] = group.get("__wall__", 0.0) + span[2] - span[1]
    return groups


def tracing_summary(traces: List[dict], iterations: int, overhead: float) -> Dict[str, float]:
    """Per-layer self times and the trace identity, as means over
    *iterations* traced iterations: the ``timed`` layers plus
    ``trace.unaccounted_s`` add up to ``trace.wall_s``, and likewise
    for set-up."""
    n = max(1, iterations)
    groups = layer_times(traces)
    out: Dict[str, float] = {}
    for group in ("setup", "timed"):
        for name, value in groups.get(group, {}).items():
            if name and name != "__wall__":
                out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + value / n
    timed, setup = groups.get("timed", {}), groups.get("setup", {})
    out["trace.wall_s"] = timed.get("__wall__", 0.0) / n
    out["trace.unaccounted_s"] = timed.get("", 0.0) / n
    out["trace.setup_s"] = setup.get("__wall__", 0.0) / n
    out["trace.setup_unaccounted_s"] = setup.get("", 0.0) / n
    out["trace.overhead_ratio"] = overhead
    print("trace layers: " + json.dumps({
        group: {name or "(unaccounted)": round(value / n, 6) for name, value in sorted(layers.items())}
        for group, layers in groups.items()
    }))
    return out


def overhead_ratio(traced: List[float], untraced: List[float]) -> float:
    """Median traced time over median untraced time, minus one."""
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def reference_metrics(ref: dict) -> Dict[str, float]:
    """``analysis.<name>_s`` and the cold reload, from a reference child."""
    return {f"{name}_s": value for name, value in ref["timings"].items()}


def add_missing(metrics: Dict[str, float], more: Dict[str, float]) -> None:
    for name, value in more.items():
        metrics.setdefault(name, value)

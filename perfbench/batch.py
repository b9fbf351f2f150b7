"""Parent side of ``study-save`` and ``stream-live``: iterations of one
child body, each in a fresh interpreter, and their metrics."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from harness import (
    add_missing,
    expect,
    median,
    merge_checks,
    new_checks,
    overhead_ratio,
    percentile,
    reference_metrics,
    run_child,
    tracing_summary,
    iterate,
)


def batch_workload(args, work: Path):
    """Returns ``(checks, metrics)`` for ``study-save``/``stream-live``."""
    trace = bool(args.trace)

    def one(i: int) -> dict:
        # a traced run alternates traced and untraced iterations, so the
        # tracing overhead is measured against untraced ones of the run
        traced = trace and i % 2 == 0
        result = run_child(args.workload, args, work / f"iter-{i}", trace=traced)
        result["traced"] = traced
        return result

    results = iterate(one, args.seconds, minimum=2 if trace else 1)
    checks = new_checks()
    for result in results:
        merge_checks(checks, result["checks"])
    digests = {r["digest"] for r in results}
    expect(checks, len(digests) == 1, f"iterations disagree on the dataset: {digests}")
    if args.workload == "study-save":
        headlines = {tuple(r["headline"]) for r in results}
        expect(checks, len(headlines) == 1, f"headline analyses differ: {headlines}")
    else:
        # the streamed dataset must be the batch path's, byte for byte
        batch = run_child("study-save", args, work / "batch", trace=False, build_only=1)
        expect(checks, batch["digest"] == results[0]["digest"],
               "stream-live dataset digest differs from study-save's")
        expect(checks, batch["rows"] == results[0]["rows"],
               "stream-live row count differs from study-save's")
    print("iterations: " + json.dumps([
        {"wall_s": round(r["wall_s"], 4), "cpu_s": round(r["cpu_self_s"] + r["tree_cpu_s"], 3),
         "traced": r["traced"]}
        for r in results
    ]))

    if not trace:
        return checks, {
            "setup_s": median(r["t_setup_end"] - r["t_spawn"] for r in results),
            "wall_s": median(r["wall_s"] for r in results),
            "cpu_s": median(r["cpu_self_s"] + r["tree_cpu_s"] for r in results),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
            "cold_s": median(r["cold_s"] for r in results),
            "p50_ms": 1000 * median(percentile(r["answers_s"], 50) for r in results),
            "fresh_lag_ms": 1000 * median(statistics.fmean(r["fresh_lag_s"]) for r in results),
            "max_rps": median(len(r["answers_s"]) / sum(r["answers_s"]) for r in results),
        }

    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    metrics = tracing_summary(
        [r["trace"] for r in traced], len(traced),
        overhead_ratio([r["wall_s"] for r in traced], [r["wall_s"] for r in untraced]),
    )
    if args.workload == "stream-live":
        # the streamed path answers only the live pair: time every
        # analysis on its finalized dataset in a fresh interpreter
        ref = run_child("reference", args, work / "reference", trace=True,
                        dataset=work / f"iter-{len(results) - 1}")
        add_missing(metrics, reference_metrics(ref))
    metrics.update(layer_counts(traced, args.workload))
    metrics["answers.p99_ms"] = 1000 * median(percentile(r["answers_s"], 99) for r in results)
    return checks, metrics


def layer_counts(traced: List[dict], workload: str) -> Dict[str, float]:
    """Counts and per-process CPU of traced iterations (means)."""
    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    sealed = mean(r["trace"]["counters"].get("dnssec.transfers_sealed", 0) for r in traced)
    distinct = mean(r["trace"]["counters"].get("dnssec.distinct_zones", 0) for r in traced)
    out = {
        "vantage.rows": mean(r["rows"] for r in traced),
        "vantage.queries": mean(r["queries"] for r in traced),
        "dnssec.transfers_sealed": sealed,
        "dnssec.distinct_zones": distinct,
        "dnssec.validation_reuse": 1.0 - distinct / sealed if sealed else 0.0,
        "data.bytes_written": mean(r["bytes_written"] for r in traced),
        "core.parent_cpu_s": mean(r["cpu_self_s"] for r in traced),
        "core.worker_cpu_s": mean(r["tree_cpu_s"] for r in traced),
    }
    if workload == "stream-live":
        hits = mean(r["cache"]["hits"] for r in traced)
        misses = mean(r["cache"]["misses"] for r in traced)
        out.update({
            "data.chunks_sealed": mean(r["chunks_sealed"] for r in traced),
            "data.chunk_interval_s": mean(median(r["chunk_interval_s"]) for r in traced),
            "data.checkpoint_bytes_rewritten": mean(
                r["checkpoint_bytes_rewritten"] for r in traced
            ),
            "core.worker_busy_share": mean(
                r["tree_cpu_s"] / (r["workers"] * r["wall_s"]) for r in traced
            ),
            "serving.cache_hits": hits,
            "serving.cache_misses": misses,
            "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serving.compute_s": mean(sum(r["answers_s"]) for r in traced),
        })
    return out

"""Dataset reload benchmark: mmap-backed reload + analyze vs full re-run.

Quantifies what the dataset layer buys: the wall time from "I have a
saved dataset directory" to "analysis output" (``rootsim-analyze``'s
path — load the manifest, memory-map the columns, run the analyses),
against re-simulating the same campaign to produce the same output.
Every analysis summary is checked byte-identical across the two paths
before any timing is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataset_reload.py --scale bench
    PYTHONPATH=src python benchmarks/bench_dataset_reload.py --scale tiny \
        --min-speedup 1.0 --output BENCH_dataset_ci.json

Exits non-zero when any summary differs between the live and reloaded
runs, or when the reload speedup falls below ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict
from typing import Callable, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from benchutil import make_config

from repro.analysis import registry
from repro.analysis.summaries import PASSIVE_ANALYSES, render_summary
from repro.core import RootStudy
from repro.data import load_dataset

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The campaign-fed analyses (passive ones don't consume the dataset).
DATASET_ANALYSES = [n for n in registry.names() if n not in PASSIVE_ANALYSES]


def timed(fn: Callable):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_all(source) -> dict:
    return {
        name: render_summary(name, registry.run(name, source))
        for name in DATASET_ANALYSES
    }


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "bench"), default="bench")
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_dataset.json"),
        help="result file (default: BENCH_dataset.json at the repo root)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless the reload-path speedup reaches this factor",
    )
    args = parser.parse_args(argv)

    config = make_config(args.scale)

    results, rerun_s = timed(lambda: RootStudy(config).run())
    live, live_analyze_s = timed(lambda: run_all(results))
    print(f"simulate    {rerun_s:7.2f}s  analyze {live_analyze_s:6.2f}s  (live)")

    with tempfile.TemporaryDirectory(prefix="rootsim_bench_ds_") as tmp:
        directory = os.path.join(tmp, "dataset")
        path, save_s = timed(lambda: results.save(directory))
        disk_bytes = directory_bytes(directory)
        print(f"save        {save_s:7.2f}s  ({disk_bytes / 1e6:.1f} MB on disk)")

        dataset, load_s = timed(lambda: load_dataset(directory))
        reloaded, reload_analyze_s = timed(lambda: run_all(dataset))
        print(f"mmap reload {load_s:7.2f}s  analyze {reload_analyze_s:6.2f}s  (reloaded)")

    failures: List[str] = []
    mismatched = [n for n in DATASET_ANALYSES if live[n] != reloaded[n]]
    if mismatched:
        failures.append(
            "reloaded summaries differ from live run: " + ", ".join(mismatched)
        )

    rerun_total = rerun_s + live_analyze_s
    reload_total = load_s + reload_analyze_s
    speedup = rerun_total / reload_total if reload_total else 0.0
    print(
        f"reload+analyze {reload_total:.2f}s vs rerun+analyze "
        f"{rerun_total:.2f}s -> {speedup:.1f}x"
    )
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"reload speedup {speedup:.2f}x below required {args.min_speedup}x"
        )

    report = {
        "benchmark": "dataset mmap reload + analyze vs campaign re-run + analyze",
        "scale": args.scale,
        "config": asdict(config),
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "analyses": DATASET_ANALYSES,
        "equivalence": (
            "all analysis summaries byte-identical across reload"
            if not mismatched
            else failures
        ),
        "dataset_bytes": disk_bytes,
        "seconds": {
            "simulate": round(rerun_s, 2),
            "analyze_live": round(live_analyze_s, 2),
            "save": round(save_s, 2),
            "load": round(load_s, 3),
            "analyze_reloaded": round(reload_analyze_s, 2),
        },
        "reload_speedup": round(speedup, 1),
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"results written to {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

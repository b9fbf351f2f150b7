"""End-to-end benchmark of the root-study program, layer by layer.

Three workloads drive the program from outside, through its public
functions, CLI entry points and ``rootsim-serve``:

* ``study-save``  — the batch path: campaign, transfer sealing, passive
  captures, dataset save, reload and the headline analyses;
* ``stream-live`` — the same study streamed through a checkpoint on 2
  shards / 2 worker processes, with live answers after every seal;
* ``serve-query`` — ``rootsim-serve`` over the study's saved dataset:
  a cold pass and closed-loop requests, then open-loop requests at
  fractions of the closed-loop rate.

``BENCHMARK.json`` lists ``stream-live`` and ``serve-query``: two
workloads leave time for long runs, which the shared host's drifting
speed needs; ``serve-query``'s set-up runs the ``study-save`` path.
Every iteration runs in a fresh interpreter, so module caches start
cold.  Usage, from the repository root::

    python3 perfbench/run.py --workload stream-live --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs traced iterations
and reports the per-layer metrics.  ``perfbench/README.md`` maps
workloads to layers to metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, SRC, BenchError  # noqa: E402

WORKLOADS = ("study-save", "stream-live", "serve-query")
WORK = ROOT / ".perfbench_work"

def metric_units(kind: str) -> Dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def result_line(checks: dict, metrics: Dict[str, float], trace: bool) -> dict:
    """The final JSON object; a traced run reports every per-layer
    metric (0 where the workload does not reach the layer)."""
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics = dict(metrics, failed_ratio=checks["failed"] / max(1, checks["attempted"]))
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def machine_meta(args) -> dict:
    import numpy

    from workloads import SCALES

    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "visible_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "study_config": {"scenario": "default", "scale": args.scale, **SCALES[args.scale]},
    }


def parse_args(argv: List[str] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="study size; 'tiny' is for the benchmark's own tests")
    # one iteration in a child interpreter (see harness.run_child)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--dataset", help=argparse.SUPPRESS)
    parser.add_argument("--build-only", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: List[str] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        from workloads import child_main

        return child_main(args)

    from batch import batch_workload
    from serve import serve_workload

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        print("meta: " + json.dumps(machine_meta(args)))
        body = serve_workload if args.workload == "serve-query" else batch_workload
        checks, metrics = body(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in checks["errors"][:20]:
        print(f"check failed: {error}")
    print(json.dumps(result_line(checks, metrics, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

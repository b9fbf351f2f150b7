"""Campaign execution benchmark: serial vs sharded vs multiprocess.

Runs the campaign stage at a fixed config across execution variants —
serial, in-process sharded, and multiprocess with the mmap spill
handoff — each in its own subprocess, repeated, with medians reported.
Each child prints wall time, CPU time (self + children, so pool workers
count), a collector content digest, and the handoff accounting:

* the in-process sharded child reports ``handoff_pickle_bytes`` — what
  the old design would have pushed through the pool pipe (one pickled
  collector per shard);
* multiprocess children report ``handoff_payload_bytes`` (what actually
  crosses the pipe now: JSON with a path and a summary) and
  ``handoff_spill_bytes`` (what comes home via mmap instead).

Every variant must produce the same content digest — probe/traceroute
column bytes, aggregate state and transfer serials — which checks the
serial ↔ sharded ↔ multiprocess byte-identity without paying for a
dataset save (sealing transfers costs ~45 s of RSA at this config and
belongs to the export, not the campaign).

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --scale bench \
        --max-mp-overhead 1.15               # full run + overhead gate
    PYTHONPATH=src python benchmarks/bench_pipeline.py --scale tiny \
        --repeats 1                          # CI smoke: digests + spill
                                             # gate only — at tiny scale
                                             # fixed pool startup dwarfs
                                             # the campaign, so no
                                             # overhead gate there

Exits non-zero when digests diverge, a multiprocess run fails to spill
(handoff regressed to pickling), or the overhead gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.config import StudyConfig
from repro.util.timeutil import parse_ts

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from benchutil import cpu_scaling_meta, scaling_worker_levels, visible_cpus

#: (shards, workers) execution variants, in report order.  workers 1/2/4
#: is the scaling curve; on a single-CPU container the interesting number
#: is the multiprocess *overhead* over serial, not speedup.
VARIANTS = [(1, 1), (2, 1), (2, 2), (4, 4)]


def variants_for(cpus: int) -> List[tuple]:
    """The fixed overhead variants, plus — when the container actually
    has CPUs to scale over — one ``(N, N)`` row per scaling level, so a
    many-core host records a real speedup curve instead of silently
    publishing single-core numbers."""
    variants = list(VARIANTS)
    for level in scaling_worker_levels(cpus):
        if level > 1 and (level, level) not in variants:
            variants.append((level, level))
    return variants


def make_config(scale: str) -> StudyConfig:
    if scale == "tiny":
        return StudyConfig(
            seed=77,
            ring_scale=0.02,
            interval_scale=96.0,
            campaign_start=parse_ts("2023-11-25"),
            campaign_end=parse_ts("2023-11-30"),
            rtt_sample_every=1,
            traceroute_sample_every=2,
            axfr_sample_every=2,
            clean_transfer_keep_one_in=20,
        )
    return StudyConfig(
        seed=2024,
        ring_scale=0.2,
        interval_scale=8.0,
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=200,
    )


def _cpu_seconds() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _collector_digest(collector) -> str:
    """Content digest of everything the campaign produced."""
    digest = hashlib.sha256()
    probes = collector.probe_columns()
    for name in sorted(probes):
        digest.update(probes[name].tobytes())
    traceroutes = collector.traceroute_columns()
    for name in sorted(traceroutes):
        digest.update(traceroutes[name].tobytes())
    digest.update(json.dumps(collector.state_dict(), sort_keys=True).encode())
    digest.update(
        json.dumps([int(o.serial) for o in collector.transfers]).encode()
    )
    return digest.hexdigest()


def child_main(scale: str, shards: int, workers: int) -> int:
    """One measured variant; prints a JSON result line for the parent."""
    import pickle

    from repro.core.pipeline import ShardRunner, StudyPipeline, last_spill_stats

    config = make_config(scale)
    if shards > 1:
        config = config.with_sharding(shards, workers=workers)

    pipeline = StudyPipeline(config)
    build_started = time.perf_counter()
    pipeline.build_world()
    pipeline.build_platform()
    build_seconds = time.perf_counter() - build_started

    campaign_started = time.perf_counter()
    cpu_started = _cpu_seconds()
    collector = pipeline.run_campaign()
    campaign_seconds = time.perf_counter() - campaign_started
    cpu_seconds = _cpu_seconds() - cpu_started

    result = {
        "shards": shards,
        "workers": workers,
        "build_seconds": round(build_seconds, 2),
        "campaign_seconds": round(campaign_seconds, 2),
        "campaign_cpu_seconds": round(cpu_seconds, 2),
        "digest": _collector_digest(collector),
        "summary": collector.summary(),
    }

    spill = last_spill_stats()
    if spill is not None:
        result["handoff_payload_bytes"] = spill["payload_bytes"]
        result["handoff_spill_bytes"] = spill["spill_bytes"]
        # forkserver pool workers are invisible to RUSAGE_CHILDREN;
        # they report their own CPU through the spill stats
        result["campaign_cpu_seconds"] = round(
            cpu_seconds + spill["worker_cpu_seconds"], 2
        )
    elif shards > 1:
        # What the retired design would have pushed through the pool
        # pipe: one pickled collector per shard.  Re-run the shards
        # (untimed) to size it — run_campaign does not retain them.
        world = pipeline.store.get("world")
        platform_artifacts = pipeline.store.get("platform")
        with ShardRunner(config, world, platform_artifacts) as runner:
            shard_collectors = runner.advance(
                0, platform_artifacts.expected_rounds
            )
        result["handoff_pickle_bytes"] = sum(
            len(pickle.dumps(c, protocol=pickle.HIGHEST_PROTOCOL))
            for c in shard_collectors
        )

    print(json.dumps(result))
    return 0


def run_child(scale: str, shards: int, workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--child", "--scale", scale,
         "--shards", str(shards), "--workers", str(workers)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"shards={shards} workers={workers} child failed "
            f"({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "bench"), default="bench")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per variant; medians are reported (default 3)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_pipeline.json"),
        help="result file (default: BENCH_pipeline.json at the repo root)",
    )
    parser.add_argument(
        "--max-mp-overhead", type=float, default=None,
        help="fail unless the shards=2 workers=2 median wall time is "
             "within this factor of the serial median",
    )
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.scale, args.shards, args.workers)

    failures: List[str] = []
    medians: List[dict] = []
    for shards, workers in variants_for(visible_cpus()):
        samples = [
            run_child(args.scale, shards, workers)
            for _ in range(max(args.repeats, 1))
        ]
        walls = [s["campaign_seconds"] for s in samples]
        cpus = [s["campaign_cpu_seconds"] for s in samples]
        median = dict(samples[0])
        median["campaign_seconds"] = round(statistics.median(walls), 2)
        median["campaign_cpu_seconds"] = round(statistics.median(cpus), 2)
        median["campaign_seconds_runs"] = walls
        medians.append(median)
        print(f"shards={shards} workers={workers}  "
              f"wall {median['campaign_seconds']:7.2f}s  "
              f"cpu {median['campaign_cpu_seconds']:7.2f}s  runs {walls}")

    digests = {m["digest"] for m in medians}
    if len(digests) != 1:
        failures.append(
            "variants diverged: "
            + ", ".join(
                f"({m['shards']},{m['workers']})={m['digest'][:12]}"
                for m in medians
            )
        )
    else:
        print(f"all variants byte-identical (digest {medians[0]['digest'][:12]})")

    by_variant = {(m["shards"], m["workers"]): m for m in medians}
    for m in medians:
        if m["workers"] > 1:
            if m.get("handoff_spill_bytes", 0) <= 0:
                failures.append(
                    f"shards={m['shards']} workers={m['workers']} produced "
                    f"no spill — the handoff regressed to pickling"
                )
            else:
                ratio = m["handoff_payload_bytes"] / max(
                    by_variant[(2, 1)].get("handoff_pickle_bytes", 0), 1
                )
                print(f"shards={m['shards']} workers={m['workers']}: "
                      f"{m['handoff_payload_bytes']} B through the pipe, "
                      f"{m['handoff_spill_bytes']} B via mmap spill "
                      f"(pipe traffic {ratio:.2e}x of the pickled handoff)")

    serial_wall = by_variant[(1, 1)]["campaign_seconds"]
    mp_wall = by_variant[(2, 2)]["campaign_seconds"]
    overhead = mp_wall / serial_wall
    print(f"shards=2 workers=2 wall = {overhead:.2f}x serial")
    if args.max_mp_overhead is not None and overhead > args.max_mp_overhead:
        failures.append(
            f"multiprocess overhead {overhead:.2f}x exceeds the "
            f"--max-mp-overhead {args.max_mp_overhead}x gate"
        )

    report = {
        "benchmark": "staged pipeline: serial vs sharded vs multiprocess "
                     "campaign execution with mmap spill handoff",
        "scale": args.scale,
        "repeats": max(args.repeats, 1),
        "config": asdict(make_config(args.scale)),
        "machine": {
            "python": platform.python_version(),
            **cpu_scaling_meta(),
        },
        "equivalence": "all variants produced identical collector content "
                       "digests (probe/traceroute column bytes, aggregate "
                       "state, transfer serials)"
                       if len(digests) == 1 else "DIVERGED",
        "mp_overhead_vs_serial": round(overhead, 3),
        "runs": medians,
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

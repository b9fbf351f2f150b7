"""Workload bodies that run in a fresh interpreter, one per iteration.

Each function here is the whole life of one child process: it imports
the program, sets up, asserts that the timed phase starts with cold
module caches, runs the timed phase through public entry points, then
checks what it produced.  It returns a JSON-able dict that the parent
(``batch.py``, ``serve.py``) turns into metrics.  Clock readings are ``time.monotonic``
so the parent can line them up with its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from pathlib import Path
from typing import Dict, List

from harness import expect, new_checks
from tracing import Tracer

#: The analyses ``rootsim-study`` prints after a campaign.
HEADLINE = ("colocation", "stability", "zonemd_audit", "coverage")

#: What the live-serving client asks after every sealed chunk.
LIVE_PAIR = ("stability", "zonemd_audit")

#: Rounds per sealed chunk: the ``rootsim-study --checkpoint-every``
#: default.
CHECKPOINT_EVERY = 8

#: Study sizes.  ``bench`` is what the benchmark measures; ``tiny`` is
#: for the benchmark's own tests.
SCALES: Dict[str, Dict[str, object]] = {
    "bench": {
        "world": {"ring_scale": 0.05},
        "platform": {
            "interval_scale": 24.0,
            "campaign_start": "2023-11-24",
            "campaign_end": "2023-11-30",
            "rtt_sample_every": 1,
            "traceroute_sample_every": 2,
            "axfr_sample_every": 4,
            "clean_transfer_keep_one_in": 20,
        },
        "traffic": {"profiles": {"isp": {"n_clients": 1000}}},
    },
    "tiny": {
        "world": {"ring_scale": 0.02},
        "platform": {
            "interval_scale": 48.0,
            "campaign_start": "2023-11-25",
            "campaign_end": "2023-11-30",
            "rtt_sample_every": 1,
            "traceroute_sample_every": 2,
            "axfr_sample_every": 2,
            "clean_transfer_keep_one_in": 20,
        },
        "traffic": {"profiles": {"isp": {"n_clients": 300}}},
    },
}


def study_config(scale: str, seed: int, **execution):
    """The ``default`` scenario with the scale's overlay folded on."""
    from repro.scenarios import Overlay, compose

    overlay = Overlay(name=f"perfbench-{scale}", **SCALES[scale])
    return compose("default").with_overlay(overlay).study_config(
        seed=seed, **execution
    )


def dataset_digest(directory) -> str:
    """SHA-256 over every dataset file but ``MANIFEST.json`` (whose
    study block records shards/workers), path and bytes."""
    root = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "MANIFEST.json":
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cold_state() -> Dict[str, int]:
    """Sizes of the module-level caches a warm process would reuse."""
    from repro.core import pipeline
    from repro.dnssec.digestcache import shared_cache
    from repro.passive import clients

    return {
        "world_cache": len(pipeline._WORLD_CACHE),
        "zone_validation_cache": len(shared_cache()),
        "population_cache": len(clients._POPULATION_CACHE),
    }


def _assert_cold(expected_worlds: int) -> None:
    state = _cold_state()
    expected = {
        "world_cache": expected_worlds,
        "zone_validation_cache": 0,
        "population_cache": 0,
    }
    if state != expected:
        raise RuntimeError(f"timed phase would start warm: {state} != {expected}")


def _dataset_facts(out: Path, checks: dict) -> Dict[str, object]:
    """Digest and row counts of a saved dataset, read back from disk."""
    from repro.data import load_dataset

    reloaded = load_dataset(out)
    rows = len(reloaded.table("probes")) + len(reloaded.table("traceroutes"))
    queries = int(reloaded.summary().get("queries", 0))
    expect(checks, rows > 0 and queries > 0, f"empty dataset at {out.name}")
    return {
        "digest": dataset_digest(out),
        "rows": rows,
        "queries": queries,
        "transfers": len(reloaded.transfers),
        "bytes_written": dir_bytes(out),
    }


# --- study-save ----------------------------------------------------------------------


def study_save(args, tracer: Tracer) -> Dict[str, object]:
    """compose → world → platform | campaign → seal → captures → save →
    the four headline analyses → reload → every analysis as
    ``rootsim-analyze --json`` prints it.  With ``build_only`` the timed
    phase stops after the save (the serving workload's set-up)."""
    checks = new_checks()
    out = Path(args.out)
    with tracer.span("setup"):
        with tracer.span("python.import"):
            from repro.analysis import registry
            from repro.analysis.summaries import analysis_json_bytes
            from repro.core.pipeline import build_platform, build_world, run_campaign
            from repro.core.results import StudyResults
            from repro.data import load_dataset, save_dataset
            from repro.data.passive import PassiveStore
            from repro.dnssec.digestcache import shared_cache
            from repro.passive.recipes import standard_captures
        _assert_cold(expected_worlds=0)
        with tracer.span("scenarios.compose"):
            config = study_config(args.scale, args.seed)
        with tracer.span("core.build_world"):
            world = build_world(config)
        with tracer.span("core.build_platform"):
            platform = build_platform(config, world)
    _assert_cold(expected_worlds=1)

    result: Dict[str, object] = {"t_setup_end": time.monotonic()}
    cpu0 = _self_cpu()
    t0 = time.monotonic()
    answers: List[float] = []
    fresh: List[float] = []
    headline: List[str] = []
    t_asked = None
    with tracer.span("timed"):
        with tracer.span("core.run_campaign"):
            collector = run_campaign(config, world, platform)
        t_measured = time.monotonic()
        results = StudyResults(
            config=config,
            schedule=platform.schedule,
            vps=platform.vps,
            catalog=world.catalog,
            fabric=world.fabric,
            deployments=world.deployments,
            distributor=world.distributor,
            fault_plan=platform.fault_plan,
            collector=collector,
        )
        dataset = results.dataset
        with tracer.span("data.seal_transfers"):
            sealed = dataset.transfers
        tracer.count("dnssec.transfers_sealed", len(sealed))
        tracer.count("dnssec.distinct_zones", len(shared_cache()))
        with tracer.span("passive.standard_captures"):
            aggregates = standard_captures(
                config.seed, engine="vectorized", traffic=config.traffic_spec()
            )
        dataset.attach_passive(PassiveStore.from_aggregates(aggregates))
        with tracer.span("data.save_dataset"):
            save_dataset(dataset, out)
        t_saved = time.monotonic()
        if not args.build_only:
            with tracer.span("analysis.headline"):
                for name in HEADLINE:
                    headline.append(_headline_line(name, registry.run(name, results)))
            t_asked = time.monotonic()
            with tracer.span("data.load_dataset"):
                reloaded = load_dataset(out)
            for name in registry.names():
                started = time.monotonic()
                with tracer.span(f"analysis.{name}"):
                    analysis_json_bytes(reloaded, name)
                answers.append(time.monotonic() - started)
                if not fresh:
                    fresh.append(time.monotonic() - t_measured)
    t1 = time.monotonic()
    result.update(
        t_timed_start=t0,
        t_timed_end=t1,
        t_saved=t_saved,
        wall_s=t1 - t0,
        cpu_self_s=_self_cpu() - cpu0,
        answers_s=answers,
        cold_s=t1 - t_asked if t_asked else 0.0,
        fresh_lag_s=fresh,
        headline=headline,
    )
    result.update(_dataset_facts(out, checks))
    expect(checks, result["transfers"] == len(sealed), "reloaded transfer count differs")
    result["checks"] = checks
    return result


def _headline_line(name: str, analysis) -> str:
    """The line ``rootsim-study`` prints for one headline analysis."""
    if name == "colocation":
        return f"{100 * analysis.fraction_with_colocation():.1f}"
    if name == "stability":
        return (f"{analysis.median_changes('b', 4, 'new'):g} "
                f"{analysis.median_changes('g', 4):g} "
                f"{analysis.median_changes('g', 6):g}")
    if name == "zonemd_audit":
        findings, valid = analysis.validate_transfers()
        return f"{valid} {len(findings)}"
    total, unmapped = analysis.observed_identifier_count()
    return f"{total} {unmapped}"


# --- stream-live ---------------------------------------------------------------------


def stream_live(args, tracer: Tracer) -> Dict[str, object]:
    """Checkpointed streamed campaign on 2 shards / 2 workers, with an
    in-process service answering the live pair after every seal, then
    finalize."""
    checks = new_checks()
    out = Path(args.out)
    ckpt = out.with_name(out.name + ".ckpt")
    with tracer.span("setup"):
        with tracer.span("python.import"):
            from repro.analysis.summaries import analysis_json_bytes
            from repro.core.pipeline import build_world
            from repro.core.streaming import (
                finalize_streaming_campaign,
                load_streaming_checkpoint,
                run_streaming_campaign,
            )
            from repro.data import chunks
            from repro.dnssec.digestcache import shared_cache
            from repro.serving.catalog import Catalog
            from repro.serving.service import AnalysisService
        _assert_cold(expected_worlds=0)
        with tracer.span("scenarios.compose"):
            config = study_config(args.scale, args.seed, shards=2, workers=2)
        with tracer.span("core.build_world"):
            build_world(config)
    _assert_cold(expected_worlds=1)
    # Layer boundaries inside the streamed campaign, traced runs only.
    tracer.wrap(chunks.ChunkedDatasetWriter, "seal_chunk", "data.seal_chunk")
    tracer.wrap(chunks, "seal_transfers", "data.seal_transfers")

    live = {"service": None, "entry": None, "etag": None, "last_seal": None}
    answers: List[float] = []
    lags: List[float] = []
    intervals: List[float] = []
    checkpoint_bytes = [0]
    excluded = [0.0, 0.0]  # wall, self CPU spent in the benchmark's checks

    def after_chunk(index, _chunk_dir, lo, hi):
        sealed_at = time.monotonic()
        if live["last_seal"] is not None:
            intervals.append(sealed_at - live["last_seal"])
        live["last_seal"] = sealed_at
        checkpoint_bytes[0] += (ckpt / "CHECKPOINT.json").stat().st_size
        bodies = {}
        with tracer.span("serving.live_queries"):
            started = time.monotonic()
            if live["service"] is None:
                live["service"] = AnalysisService(Catalog.from_paths([ckpt]))
                live["entry"] = live["service"].catalog.ids()[0]
            service = live["service"]
            for name in LIVE_PAIR:
                bodies[name] = service.handle(
                    "GET", f"/datasets/{live['entry']}/analyses/{name}"
                )
                if name == LIVE_PAIR[0]:
                    lags.append(time.monotonic() - sealed_at)
            answers.append(time.monotonic() - started)
        etag = bodies[LIVE_PAIR[0]].headers.get("ETag")
        expect(checks, etag != live["etag"], f"chunk {index}: stale watermark")
        live["etag"] = etag
        check_wall, check_cpu = time.monotonic(), _self_cpu()
        with tracer.span("bench.check"):
            partial = load_streaming_checkpoint(ckpt)
            for name, response in bodies.items():
                expect(
                    checks,
                    response.status == 200
                    and response.body == analysis_json_bytes(partial, name),
                    f"chunk {index}: served {name} differs from reloaded",
                )
        excluded[0] += time.monotonic() - check_wall
        excluded[1] += _self_cpu() - check_cpu

    result: Dict[str, object] = {"t_setup_end": time.monotonic()}
    cpu0 = _self_cpu()
    t0 = time.monotonic()
    with tracer.span("timed"):
        with tracer.span("core.run_campaign"):
            run = run_streaming_campaign(
                config, ckpt, checkpoint_every=CHECKPOINT_EVERY,
                after_chunk=after_chunk,
            )
        tracer.count("dnssec.distinct_zones", len(shared_cache()))
        with tracer.span("data.finalize"):
            finalize_streaming_campaign(ckpt, out)
    t1 = time.monotonic()
    expect(checks, run.complete, "streamed campaign incomplete")
    result.update(
        t_timed_start=t0,
        t_timed_end=t1,
        wall_s=t1 - t0 - excluded[0],
        cpu_self_s=_self_cpu() - cpu0 - excluded[1],
        answers_s=answers,
        cold_s=sum(answers),
        fresh_lag_s=lags,
        chunks_sealed=run.chunks,
        chunk_interval_s=intervals,
        checkpoint_bytes_rewritten=checkpoint_bytes[0],
        workers=config.workers,
        cache=(live["service"].cache.stats.snapshot() if live["service"] else {}),
    )
    result.update(_dataset_facts(out, checks))
    tracer.count("dnssec.transfers_sealed", result["transfers"])
    result["checks"] = checks
    return result


# --- reference answers ---------------------------------------------------------------


def reference(args, tracer: Tracer) -> Dict[str, object]:
    """Every analysis (as ``analysis_json_bytes``) and figure group on
    the reloaded dataset, cold, written under ``args.out`` for the
    served-body checks."""
    out = Path(args.out)
    (out / "analyses").mkdir(parents=True, exist_ok=True)
    (out / "figures").mkdir(parents=True, exist_ok=True)
    with tracer.span("setup"):
        with tracer.span("python.import"):
            from repro.analysis import registry
            from repro.analysis.summaries import analysis_json_bytes, canonical_json_bytes
            from repro.data import load_dataset
            from repro.reportgen import (
                GROUP_ARTEFACTS,
                group_requirements_error,
                render_group,
            )
    _assert_cold(expected_worlds=0)
    timings: Dict[str, float] = {}
    with tracer.span("timed"):
        started = time.monotonic()
        with tracer.span("data.load_dataset"):
            dataset = load_dataset(args.dataset)
        timings["data.load_dataset"] = time.monotonic() - started
        for name in registry.names():
            started = time.monotonic()
            with tracer.span(f"analysis.{name}"):
                body = analysis_json_bytes(dataset, name)
            timings[f"analysis.{name}"] = time.monotonic() - started
            (out / "analyses" / f"{name}.json").write_bytes(body)
        figures = []
        for group in sorted(GROUP_ARTEFACTS):
            if group_requirements_error(group, dataset) is not None:
                continue
            with tracer.span("reportgen.render_group"):
                body = canonical_json_bytes(
                    {"figure": group, "contents": render_group(group, dataset)}
                )
            (out / "figures" / f"{group}.json").write_bytes(body)
            figures.append(group)
    return {"timings": timings, "analyses": registry.names(), "figures": figures}


CHILDREN = {
    "study-save": study_save,
    "stream-live": stream_live,
    "reference": reference,
}


def child_main(args) -> int:
    """Entry of a child interpreter: run one body, print its result as
    the last line of standard output."""
    tracer = Tracer(bool(args.trace), run_id=f"{args.child}-{os.getpid()}")
    result = CHILDREN[args.child](args, tracer)
    result["pid"] = os.getpid()
    result["trace"] = tracer.export()
    print(json.dumps(result))
    return 0

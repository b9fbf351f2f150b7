"""The staged study pipeline: build_world → build_platform → run_campaign → analyze.

:class:`~repro.core.study.RootStudy` used to derive the whole world in one
monolithic constructor and run strictly serially through a single
in-memory collector.  This module splits that flow into four explicit,
individually timed stages over a typed artifact store:

* **build_world** — sites, routing fabric, zone machinery, deployments.
  Worlds depend only on the seed and are checkpointed in a module-level
  cache, so the CLI tools, benchmarks and repeated studies stop
  re-deriving identical worlds.
* **build_platform** — schedule, route selector, VP ring, fault plan,
  collector and prober (the full measurement platform).
* **run_campaign** — executes the campaign on the epoch-compiled engine
  (:mod:`repro.vantage.epoch_engine`).  With ``config.shards > 1``
  the VP ring is partitioned and each shard probed against its own
  :class:`~repro.vantage.collector.CampaignCollector`; the shard
  collectors are then recombined with
  :meth:`~repro.vantage.collector.CampaignCollector.merge`, which is
  guaranteed to reproduce the serial run byte-for-byte.  With
  ``config.workers > 1`` the shards run on a ``ProcessPoolExecutor``.
* **analyze** — runs analyses by name through
  :mod:`repro.analysis.registry`.

Sharding invariant: every shard probes a *disjoint VP subset* over the
*full* schedule.  Catchment churn, sampling phase and fault state are all
keyed per (VP, address) or per timestamp, never across VPs, which is what
makes the partitioned execution exact rather than approximate.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.config import StudyConfig
from repro.core.results import StudyResults
from repro.faults.plan import FaultPlan, default_fault_plan
from repro.geo.continents import Continent
from repro.netsim.routing import RouteSelector
from repro.netsim.topology import NetworkFabric
from repro.rss.operators import ROOT_SERVERS
from repro.rss.server import RootServerDeployment
from repro.rss.sites import SiteCatalog, build_site_catalog
from repro.util.rng import RngFactory
from repro.vantage.collector import CampaignCollector
from repro.vantage.epoch_engine import EpochCampaignPlan, run_epoch_campaign
from repro.vantage.node import VantagePoint
from repro.vantage.probes import Prober, SamplingPolicy
from repro.vantage.ring import build_ring
from repro.vantage.scheduler import MeasurementSchedule
from repro.zone.distribution import ZoneDistributor
from repro.zone.rootzone import RootZoneBuilder


# --- typed artifact store -----------------------------------------------------------


class ArtifactStore:
    """Typed name -> value store with stage provenance.

    Every pipeline stage publishes its outputs here; later stages (and
    external consumers like benchmarks) read them back by name.  ``get``
    with an ``expected_type`` doubles as a lightweight schema check.
    """

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}
        self._producers: Dict[str, str] = {}

    def put(
        self,
        name: str,
        value: Any,
        *,
        stage: str,
        expected_type: Optional[type] = None,
    ) -> None:
        if expected_type is not None and not isinstance(value, expected_type):
            raise TypeError(
                f"artifact {name!r} must be {expected_type.__name__}, "
                f"got {type(value).__name__}"
            )
        self._values[name] = value
        self._producers[name] = stage

    def get(self, name: str, expected_type: Optional[type] = None) -> Any:
        if name not in self._values:
            raise KeyError(
                f"artifact {name!r} not available; run its producing stage first"
            )
        value = self._values[name]
        if expected_type is not None and not isinstance(value, expected_type):
            raise TypeError(
                f"artifact {name!r} is {type(value).__name__}, "
                f"expected {expected_type.__name__}"
            )
        return value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def names(self) -> List[str]:
        return sorted(self._values)

    def producer(self, name: str) -> str:
        """The stage that published *name*."""
        if name not in self._producers:
            raise KeyError(f"artifact {name!r} not available")
        return self._producers[name]


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one executed (or reused) pipeline stage."""

    stage: str
    seconds: float
    reused: bool = False


def render_profile(profiler, limit: int = 30) -> str:
    """Human-readable top-*limit* cumulative view of a cProfile run."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(limit)
    return stream.getvalue()


# --- stage outputs ------------------------------------------------------------------


@dataclass
class WorldArtifacts:
    """Stage 1 output: the simulated world (seed-determined only)."""

    seed: int
    catalog: SiteCatalog
    fabric: NetworkFabric
    zone_builder: RootZoneBuilder
    distributor: ZoneDistributor
    deployments: Dict[str, RootServerDeployment]


@dataclass
class PlatformArtifacts:
    """Stage 2 output: the measurement platform for one config."""

    schedule: MeasurementSchedule
    expected_rounds: int
    selector: RouteSelector
    vps: List[VantagePoint]
    fault_plan: FaultPlan
    collector: CampaignCollector
    prober: Prober


# --- stage 1: build_world -----------------------------------------------------------

#: Checkpointed worlds by (seed, world-layer cache token): the seed plus
#: whatever part of the world spec shapes the site catalog.
_WORLD_CACHE: Dict[Any, WorldArtifacts] = {}


def _world_cache_key(config: StudyConfig) -> Any:
    return (config.seed, config.world_spec().cache_token())


def build_world(config: StudyConfig, *, reuse: bool = True) -> WorldArtifacts:
    """Build (or reuse) the world: sites, fabric, zone machinery, RSS.

    Worlds are immutable except for the distributor's staleness faults,
    which every campaign resets at start — so reuse across studies, CLI
    invocations and benchmarks is exact, not approximate.
    """
    cache_key = _world_cache_key(config)
    if reuse and cache_key in _WORLD_CACHE:
        return _WORLD_CACHE[cache_key]
    rng_factory = RngFactory(config.seed)
    catalog = build_site_catalog(rng_factory, config.world_spec().site_plan())
    fabric = NetworkFabric(catalog, rng_factory)
    zone_builder = RootZoneBuilder(seed=config.seed)
    distributor = ZoneDistributor(zone_builder)
    deployments = {
        letter: RootServerDeployment(
            ROOT_SERVERS[letter], catalog.of_letter(letter), distributor
        )
        for letter in ROOT_SERVERS
    }
    world = WorldArtifacts(
        seed=config.seed,
        catalog=catalog,
        fabric=fabric,
        zone_builder=zone_builder,
        distributor=distributor,
        deployments=deployments,
    )
    if reuse:
        _WORLD_CACHE[cache_key] = world
    return world


def clear_world_cache() -> None:
    """Drop every checkpointed world (tests / memory pressure)."""
    _WORLD_CACHE.clear()


# --- stage 2: build_platform --------------------------------------------------------


def _popular_d_sites(
    catalog: SiteCatalog, selector: RouteSelector, ring: List[VantagePoint]
) -> List[str]:
    """The most-visited d.root site in Asia and in Europe.

    Stale sites must actually be in some VP's catchment to be observable,
    so the fault plan targets the most-visited d.root sites (paper:
    Tokyo, 3 VPs; Leeds, 7 VPs).
    """
    counts: Counter = Counter()
    for vp in ring:
        for family in (4, 6):
            site = selector.best(vp.attachment, "d", family).site
            counts[site.key] += 1
    best: Dict[Continent, str] = {}
    site_by_key = {s.key: s for s in catalog.of_letter("d")}
    for key, _n in counts.most_common():
        continent = site_by_key[key].continent
        if continent in (Continent.ASIA, Continent.EUROPE) and continent not in best:
            best[continent] = key
    return [best[c] for c in (Continent.ASIA, Continent.EUROPE) if c in best]


def build_platform(config: StudyConfig, world: WorldArtifacts) -> PlatformArtifacts:
    """Build the measurement platform: schedule, selector, ring, faults,
    collector and prober."""
    rng_factory = RngFactory(config.seed)
    schedule = MeasurementSchedule(
        start=config.campaign_start,
        end=config.campaign_end,
        interval_scale=config.interval_scale,
    )
    expected_rounds = schedule.round_count()
    selector = world.fabric.selector(
        seed=config.seed, expected_rounds=expected_rounds
    )
    ring = build_ring(rng_factory, config.ring_config)

    fault_spec = config.fault_spec()
    if fault_spec.include_faults:
        stale_keys = _popular_d_sites(world.catalog, selector, ring)
        fault_plan = fault_spec.apply(
            default_fault_plan(world.catalog, len(ring), stale_site_keys=stale_keys)
        )
    else:
        fault_plan = FaultPlan()

    collector = CampaignCollector()
    prober = Prober(
        fabric=world.fabric,
        selector=selector,
        deployments=world.deployments,
        fault_plan=fault_plan,
        collector=collector,
        sampling=SamplingPolicy(
            rtt_every=config.rtt_sample_every,
            traceroute_every=config.traceroute_sample_every,
            axfr_every=config.axfr_sample_every,
            clean_transfer_keep_one_in=config.clean_transfer_keep_one_in,
        ),
    )
    return PlatformArtifacts(
        schedule=schedule,
        expected_rounds=expected_rounds,
        selector=selector,
        vps=ring,
        fault_plan=fault_plan,
        collector=collector,
        prober=prober,
    )


# --- stage 3: run_campaign ----------------------------------------------------------


def shard_vp_lists(
    vps: Sequence[VantagePoint], shards: int
) -> List[List[VantagePoint]]:
    """Round-robin partition of the ring into *shards* disjoint subsets.

    Round-robin (rather than contiguous blocks) balances the regional
    clustering of the ring across shards; any disjoint partition yields
    identical merged output.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    return [list(vps[i::shards]) for i in range(shards)]


#: Per-worker-process study config, installed once by the pool
#: initializer so shard tasks ship only ``(shard_index, spill_root)``
#: instead of re-pickling the config (and, transitively, nothing of the
#: parent's world or platform) per task.
_WORKER_CONFIG: Optional[StudyConfig] = None


def _init_shard_worker(config_values: Dict[str, Any], owner_pid: int) -> None:
    """Pool initializer: install the worker-process study config.

    *config_values* is a plain ``asdict()`` of primitives — the only
    payload that crosses the pipe at pool setup.  Worlds are NOT shipped:
    each worker derives its own through the seed-keyed module cache
    (``_WORLD_CACHE``), so repeated shard tasks in one worker reuse one
    world build.  *owner_pid* arms the orphan watchdog: workers must not
    outlive the campaign process that owns the pool.
    """
    from repro.util.procutil import exit_when_orphaned

    global _WORKER_CONFIG
    _WORKER_CONFIG = StudyConfig(**config_values)
    exit_when_orphaned(owner_pid)


def _run_shard_spill_job(shard_index: int, spill_root: str) -> Dict[str, Any]:
    """Worker-process entry: run one shard and spill it to disk.

    Returns only the spill path plus a summary — the collector's numpy
    buffers and zone graphs never transit the process-pool pipe.  The
    parent memory-maps the spill back via
    :func:`repro.data.spill.read_shard_spill`.
    """
    config = _WORKER_CONFIG
    if config is None:
        raise RuntimeError(
            "shard worker used before _init_shard_worker installed its config"
        )
    serial_config = config.serial()
    world = build_world(serial_config)
    platform = build_platform(serial_config, world)
    world.distributor.reset_faults()
    shard_vps = shard_vp_lists(platform.vps, config.shards)[shard_index]
    run_epoch_campaign(platform.prober, shard_vps, platform.schedule)

    from repro.data.spill import write_shard_spill

    spill_dir = write_shard_spill(
        Path(spill_root) / f"shard-{shard_index:03d}", platform.collector
    )
    import resource

    rusage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "shard": shard_index,
        "spill_dir": str(spill_dir),
        "summary": platform.collector.summary(),
        # worker-process CPU accounting: forkserver workers are children
        # of the forkserver daemon, not of the parent, so the parent's
        # RUSAGE_CHILDREN never sees them — report it ourselves.
        "worker_pid": os.getpid(),
        "worker_cpu_seconds": rusage.ru_utime + rusage.ru_stime,
    }


#: Handoff accounting for the most recent multiprocess campaign in this
#: process: ``{"shards", "payload_bytes", "spill_bytes", "spill_dirs"}``.
#: Benchmarks and CI read it to prove the spill path ran (spill_bytes >
#: 0) and to size the new handoff against the old pickled-collector one.
_LAST_SPILL_STATS: Optional[Dict[str, Any]] = None


def last_spill_stats() -> Optional[Dict[str, Any]]:
    """Stats for the last multiprocess campaign (None if none ran)."""
    return _LAST_SPILL_STATS


def _run_multiprocess(
    config: StudyConfig, spill_root: Path
) -> List[CampaignCollector]:
    """Run every shard on a process pool with mmap spill handoff.

    The pool uses the pinned start method (forkserver preferred, spawn
    fallback — never fork), ships the config once per worker via the
    initializer, and receives back per-shard spill *paths*; the heavy
    row buffers come home through the filesystem, memory-mapped.
    """
    global _LAST_SPILL_STATS
    from repro.data.spill import read_shard_spill, spill_nbytes
    from repro.util.procutil import mp_context, pool_width

    processes = pool_width(config.workers, config.shards)
    with ProcessPoolExecutor(
        max_workers=processes,
        mp_context=mp_context(preload=("repro.core.pipeline",)),
        initializer=_init_shard_worker,
        initargs=(asdict(config), os.getpid()),
    ) as pool:
        futures = [
            pool.submit(_run_shard_spill_job, index, str(spill_root))
            for index in range(config.shards)
        ]
        results = [future.result() for future in futures]

    worker_cpu: Dict[int, float] = {}
    for result in results:
        pid = result["worker_pid"]
        # rusage is cumulative per process; with task reuse the last
        # task's reading covers the earlier ones too
        worker_cpu[pid] = max(worker_cpu.get(pid, 0.0), result["worker_cpu_seconds"])
    _LAST_SPILL_STATS = {
        "shards": config.shards,
        "pool_processes": processes,
        "payload_bytes": sum(
            len(json.dumps(result).encode()) for result in results
        ),
        "spill_bytes": sum(spill_nbytes(r["spill_dir"]) for r in results),
        "spill_dirs": [r["spill_dir"] for r in results],
        "worker_cpu_seconds": round(sum(worker_cpu.values()), 2),
    }
    return [read_shard_spill(result["spill_dir"]) for result in results]


def shard_plan(
    world: WorldArtifacts,
    platform: PlatformArtifacts,
    vps: Sequence[VantagePoint],
    collector: CampaignCollector,
) -> EpochCampaignPlan:
    """One shard's campaign plan over *platform*, emitting into its own
    *collector* (the batch path emits it whole, the streaming path one
    chunk at a time)."""
    prober = Prober(
        fabric=world.fabric,
        selector=platform.selector,
        deployments=world.deployments,
        fault_plan=platform.fault_plan,
        collector=collector,
        sampling=platform.prober.sampling,
    )
    return EpochCampaignPlan(prober, list(vps), platform.schedule)


def _run_sharded(
    config: StudyConfig, world: WorldArtifacts, platform: PlatformArtifacts
) -> List[CampaignCollector]:
    """Run every shard in-process; returns the per-shard collectors in
    shard order."""
    collectors: List[CampaignCollector] = []
    for shard_vps in shard_vp_lists(platform.vps, config.shards):
        world.distributor.reset_faults()
        plan = shard_plan(world, platform, shard_vps, CampaignCollector())
        plan.emit_range(0, plan.n_rounds)
        collectors.append(plan.collector)
    return collectors


def run_campaign(
    config: StudyConfig, world: WorldArtifacts, platform: PlatformArtifacts
) -> CampaignCollector:
    """Execute the campaign (serial, sharded, or multiprocess) and leave
    the merged collector on the platform."""
    world.distributor.reset_faults()
    if config.shards <= 1:
        run_epoch_campaign(platform.prober, platform.vps, platform.schedule)
        return platform.collector
    if config.workers > 1:
        from repro.data.spill import spill_tempdir

        spill_root = spill_tempdir("rootsim-spill-")
        try:
            shard_collectors = _run_multiprocess(config, spill_root)
            world.distributor.reset_faults()
            # merge copies every row out of the mmapped spill views, and
            # the reload already pulled the transfer metadata and zone
            # pack bytes into memory, so the spill directory is safe to
            # delete once the merge returns.
            merged = CampaignCollector.merge(shard_collectors)
        finally:
            shutil.rmtree(spill_root, ignore_errors=True)
        platform.collector = merged
        platform.prober.collector = merged
        return merged
    shard_collectors = _run_sharded(config, world, platform)
    world.distributor.reset_faults()
    merged = CampaignCollector.merge(shard_collectors)
    platform.collector = merged
    platform.prober.collector = merged
    return merged


# --- stage 4: analyze ---------------------------------------------------------------


def analyze(
    results: StudyResults, names: Optional[Sequence[str]] = None, **inputs: Any
) -> Dict[str, Any]:
    """Run analyses by registry name against a results bundle.

    With ``names=None`` every registered analysis whose requirements the
    bundle satisfies is run.  Extra inputs (e.g. a passive-capture
    ``aggregate``) are forwarded to the registry.
    """
    from repro.analysis import registry

    if names is None:
        names = registry.runnable(results, **inputs)
    return {name: registry.run(name, results, **inputs) for name in names}


# --- the pipeline object ------------------------------------------------------------


class StudyPipeline:
    """Composable staged execution with artifact checkpointing and timing.

    Stages are idempotent: a second call reuses the stored artifacts (and
    records a zero-cost :class:`StageTiming` with ``reused=True``), so
    callers can drive stages in any mix — ``run()`` end-to-end, or
    stage-by-stage with inspection in between.
    """

    def __init__(
        self, config: Optional[StudyConfig] = None, profile: bool = False
    ) -> None:
        self.config = config or StudyConfig()
        #: Record a cProfile of the campaign stage into the artifact
        #: store (``campaign_profile`` / ``campaign_profile_top``).
        self.profile = profile
        self.store = ArtifactStore()
        self.timings: List[StageTiming] = []
        self._campaign_done = False

    # -- internals ---------------------------------------------------------------

    def _record(self, stage: str, started: float, reused: bool = False) -> None:
        self.timings.append(
            StageTiming(stage=stage, seconds=time.perf_counter() - started, reused=reused)
        )
        # Keep the per-stage timing log available as an artifact too, so
        # benchmarks and the CLI read timings the same way as any other
        # pipeline output.
        self.store.put("stage_timings", self.timings, stage=stage)

    # -- stages ------------------------------------------------------------------

    def build_world(self) -> WorldArtifacts:
        started = time.perf_counter()
        if "world" in self.store:
            world = self.store.get("world", WorldArtifacts)
            self._record("build_world", started, reused=True)
            return world
        reused = _world_cache_key(self.config) in _WORLD_CACHE
        world = build_world(self.config)
        self.store.put("world", world, stage="build_world", expected_type=WorldArtifacts)
        self.store.put("catalog", world.catalog, stage="build_world")
        self.store.put("fabric", world.fabric, stage="build_world")
        self.store.put("distributor", world.distributor, stage="build_world")
        self.store.put("deployments", world.deployments, stage="build_world")
        self._record("build_world", started, reused=reused)
        return world

    def build_platform(self) -> PlatformArtifacts:
        started = time.perf_counter()
        if "platform" in self.store:
            platform = self.store.get("platform", PlatformArtifacts)
            self._record("build_platform", started, reused=True)
            return platform
        world = self.build_world()
        platform = build_platform(self.config, world)
        self.store.put(
            "platform", platform, stage="build_platform", expected_type=PlatformArtifacts
        )
        self.store.put("schedule", platform.schedule, stage="build_platform")
        self.store.put("vps", platform.vps, stage="build_platform")
        self.store.put("fault_plan", platform.fault_plan, stage="build_platform")
        self._record("build_platform", started)
        return platform

    def run_campaign(self) -> CampaignCollector:
        started = time.perf_counter()
        if self._campaign_done:
            self._record("run_campaign", started, reused=True)
            return self.store.get("collector", CampaignCollector)
        world = self.build_world()
        platform = self.build_platform()
        if self.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                collector = run_campaign(self.config, world, platform)
            finally:
                profiler.disable()
            self.store.put("campaign_profile", profiler, stage="run_campaign")
            self.store.put(
                "campaign_profile_top", render_profile(profiler), stage="run_campaign"
            )
        else:
            collector = run_campaign(self.config, world, platform)
        self.store.put(
            "collector", collector, stage="run_campaign", expected_type=CampaignCollector
        )
        self._campaign_done = True
        self._record("run_campaign", started)
        return collector

    def analyze(
        self, names: Optional[Sequence[str]] = None, **inputs: Any
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        out = analyze(self.results(), names, **inputs)
        self._record("analyze", started)
        return out

    # -- results -----------------------------------------------------------------

    @property
    def campaign_done(self) -> bool:
        return self._campaign_done

    def run(self) -> StudyResults:
        """Run every stage through the campaign; returns the bundle."""
        self.run_campaign()
        return self.results()

    def results(self) -> StudyResults:
        """The results bundle (only valid once the campaign has run)."""
        if not self._campaign_done:
            raise RuntimeError(
                "results() called before the campaign ran; "
                "call run() / run_campaign() first"
            )
        world = self.store.get("world", WorldArtifacts)
        platform = self.store.get("platform", PlatformArtifacts)
        return StudyResults(
            config=self.config,
            schedule=platform.schedule,
            vps=platform.vps,
            catalog=world.catalog,
            fabric=world.fabric,
            deployments=world.deployments,
            distributor=world.distributor,
            fault_plan=platform.fault_plan,
            collector=self.store.get("collector", CampaignCollector),
        )

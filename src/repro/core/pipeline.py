"""The staged study pipeline: build_world → build_platform → run_campaign → analyze.

Four explicit, individually timed stages over a typed artifact store:

* **build_world** — sites, routing fabric, zone machinery, deployments.
  Worlds depend only on the seed and are checkpointed in a module-level
  cache, so the CLI tools, benchmarks and repeated studies stop
  re-deriving identical worlds.
* **build_platform** — schedule, route selector, VP ring, fault plan,
  collector and prober (the full measurement platform).
* **run_campaign** — executes the campaign on the epoch-compiled engine
  (:mod:`repro.vantage.epoch_engine`) through a :class:`ShardRunner`,
  the one shard executor under this batch path and the streamed
  checkpoint path (:mod:`repro.core.streaming`).  With
  ``config.shards > 1`` the VP ring is partitioned and each shard probed
  against its own :class:`~repro.vantage.collector.CampaignCollector`;
  the shard collectors are then recombined with
  :meth:`~repro.vantage.collector.CampaignCollector.merge`, which is
  guaranteed to reproduce the serial run byte-for-byte.  With
  ``config.workers > 1`` the shards run on a ``ProcessPoolExecutor`` and
  come home as memory-mapped spills (:mod:`repro.data.spill`).
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from repro.vantage.epoch_engine import EpochCampaignPlan
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


def shard_plan(
    world: WorldArtifacts,
    platform: PlatformArtifacts,
    vps: Sequence[VantagePoint],
    collector: CampaignCollector,
) -> EpochCampaignPlan:
    """One shard's campaign plan over *platform*, emitting into its own
    *collector*."""
    prober = Prober(
        fabric=world.fabric,
        selector=platform.selector,
        deployments=world.deployments,
        fault_plan=platform.fault_plan,
        collector=collector,
        sampling=platform.prober.sampling,
    )
    return EpochCampaignPlan(prober, list(vps), platform.schedule)


#: Per-worker-process pool state: the study config installed by the
#: initializer, and the live shard plans keyed by shard index with the
#: round each has reached.  ProcessPoolExecutor does not pin tasks to
#: workers, so a cached plan is only reused when its position matches
#: the requested ``lo`` — a reassigned shard rebuilds its plan from the
#: shipped state dict (correct always, cheap in the common pinned case).
_POOL_CONFIG: Optional[StudyConfig] = None
_POOL_PLANS: Dict[int, Tuple[EpochCampaignPlan, int]] = {}


def _init_pool_worker(config_values: Dict[str, Any], owner_pid: int) -> None:
    """Pool initializer: install the worker-process study config.

    *config_values* is a plain ``asdict()`` of primitives — the only
    payload that crosses the pipe at pool setup.  Worlds are NOT shipped:
    each worker derives its own through the seed-keyed module cache
    (``_WORLD_CACHE``).  *owner_pid* arms the orphan watchdog: a
    SIGKILLed campaign must not leave workers blocked on the call queue
    holding its inherited file descriptors.
    """
    from repro.util.procutil import exit_when_orphaned

    global _POOL_CONFIG
    _POOL_CONFIG = StudyConfig(**config_values)
    _POOL_PLANS.clear()
    exit_when_orphaned(owner_pid)


def _advance_shard(
    shard: int, lo: int, hi: int, state: Optional[Dict], spill_root: str
) -> Dict[str, Any]:
    """Worker-process entry: advance one shard over ``[lo, hi)`` and
    spill the rows.

    *state* is the shard's aggregate state at round ``lo``; a cached
    plan already at ``lo`` advances directly, anything else rebuilds
    world, platform and plan from the seed-keyed world cache plus the
    state.  Rows cross back through the spill, which the parent
    memory-maps (:func:`repro.data.spill.read_shard_spill`) — only this
    small dict transits the pool pipe.
    """
    import resource

    from repro.data.spill import write_shard_spill

    config = _POOL_CONFIG
    cached = _POOL_PLANS.get(shard)
    if cached is not None and cached[1] == lo:
        plan = cached[0]
    else:
        serial_config = config.serial()
        world = build_world(serial_config)
        platform = build_platform(serial_config, world)
        world.distributor.reset_faults()
        collector = CampaignCollector()
        if state is not None:
            collector.restore_state_dict(state)
        vps = shard_vp_lists(platform.vps, config.shards)[shard]
        plan = shard_plan(world, platform, vps, collector)
    plan.emit_range(lo, hi)
    spill_dir = write_shard_spill(
        Path(spill_root) / f"rounds-{lo:05d}-shard-{shard:03d}", plan.collector
    )
    # Drain so the next advance spills only its own rows; the
    # aggregates stay cumulative, exactly like an in-process shard.
    plan.collector.drain_rows()
    _POOL_PLANS[shard] = (plan, hi)
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "shard": shard,
        "spill_dir": str(spill_dir),
        # forkserver workers are children of the forkserver daemon, not
        # of the parent, so the parent's RUSAGE_CHILDREN never sees them
        "worker_pid": os.getpid(),
        "worker_cpu_seconds": rusage.ru_utime + rusage.ru_stime,
    }


#: Handoff accounting for the most recent campaign in this process when
#: it ran on a pool (``None`` otherwise): ``{"shards", "pool_processes",
#: "payload_bytes", "spill_bytes", "spill_dirs", "worker_cpu_seconds"}``,
#: summed over every shard task.  Benchmarks and tests read it to prove
#: the spill path ran (spill_bytes > 0) and the pipe stayed small.
_LAST_SPILL_STATS: Optional[Dict[str, Any]] = None


def last_spill_stats() -> Optional[Dict[str, Any]]:
    """Stats for the last campaign's pool handoff (None if it ran
    in-process)."""
    return _LAST_SPILL_STATS


class ShardRunner:
    """Advances every shard of a campaign over ascending round ranges.

    :meth:`advance` returns one collector per shard holding the rows of
    the requested range plus the shard's cumulative aggregates.  With
    ``workers == 1`` the shard plans run in this process (a single shard
    emits straight into ``platform.collector``); with ``workers > 1`` and
    several shards they run on a process pool through
    :func:`_advance_shard`, and each shard's rows come home as an mmap
    spill.  *shard_states* resumes every shard from a checkpointed
    aggregate state.  Close the runner (or use it as a context manager)
    when the campaign ends: that joins the pool and deletes the spill
    root.
    """

    def __init__(
        self,
        config: StudyConfig,
        world: WorldArtifacts,
        platform: PlatformArtifacts,
        shard_states: Optional[Sequence[Dict]] = None,
    ) -> None:
        global _LAST_SPILL_STATS
        _LAST_SPILL_STATS = None
        world.distributor.reset_faults()
        self.shards = config.shards
        self._states = list(shard_states or [None] * self.shards)
        self._pool: Optional[ProcessPoolExecutor] = None
        if config.workers > 1 and self.shards > 1:
            from repro.data.spill import spill_tempdir
            from repro.util.procutil import mp_context, pool_width

            processes = pool_width(config.workers, self.shards)
            self._spill_root = spill_tempdir("rootsim-spill-")
            self._worker_cpu: Dict[int, float] = {}
            self._stats: Dict[str, Any] = {
                "shards": self.shards,
                "pool_processes": processes,
                "payload_bytes": 0,
                "spill_bytes": 0,
                "spill_dirs": [],
                "worker_cpu_seconds": 0.0,
            }
            _LAST_SPILL_STATS = self._stats
            self._pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=mp_context(preload=("repro.core.pipeline",)),
                initializer=_init_pool_worker,
                initargs=(asdict(config), os.getpid()),
            )
            return
        collectors = (
            [platform.collector]
            if self.shards == 1
            else [CampaignCollector() for _ in range(self.shards)]
        )
        for collector, state in zip(collectors, self._states):
            if state is not None:
                collector.restore_state_dict(state)
        self._plans = [
            shard_plan(world, platform, vps, collector)
            for vps, collector in zip(
                shard_vp_lists(platform.vps, self.shards), collectors
            )
        ]

    def advance(self, lo: int, hi: int) -> List[CampaignCollector]:
        """Run rounds ``[lo, hi)`` on every shard; the per-shard
        collectors, in shard order."""
        if self._pool is None:
            for plan in self._plans:
                plan.emit_range(lo, hi)
            return [plan.collector for plan in self._plans]

        from repro.data.spill import read_shard_spill, spill_nbytes

        futures = [
            self._pool.submit(
                _advance_shard, shard, lo, hi, self._states[shard],
                str(self._spill_root),
            )
            for shard in range(self.shards)
        ]
        results = [future.result() for future in futures]
        spill_dirs = [result["spill_dir"] for result in results]
        stats = self._stats
        for result in results:
            # rusage is cumulative per process; with task reuse the
            # latest reading covers the earlier ones too
            pid = result["worker_pid"]
            self._worker_cpu[pid] = max(
                self._worker_cpu.get(pid, 0.0), result["worker_cpu_seconds"]
            )
            stats["payload_bytes"] += len(json.dumps(result).encode())
            stats["spill_bytes"] += spill_nbytes(result["spill_dir"])
        stats["spill_dirs"] += spill_dirs
        stats["worker_cpu_seconds"] = round(sum(self._worker_cpu.values()), 2)
        collectors = [read_shard_spill(d) for d in spill_dirs]
        # The reload memory-maps every table and reads the transfer
        # metadata and zone pack into memory, so the files can go now:
        # the mappings keep their pages until the collectors are dropped,
        # and a parent killed between ranges leaves no spill data behind.
        for spill_dir in spill_dirs:
            shutil.rmtree(spill_dir, ignore_errors=True)
        self._states = [collector.state_dict() for collector in collectors]
        return collectors

    def close(self) -> None:
        """Join the pool and delete its spill root (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            shutil.rmtree(self._spill_root, ignore_errors=True)

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_campaign(
    config: StudyConfig, world: WorldArtifacts, platform: PlatformArtifacts
) -> CampaignCollector:
    """Execute the campaign (serial, sharded, or multiprocess) and leave
    the merged collector on the platform."""
    with ShardRunner(config, world, platform) as runner:
        collectors = runner.advance(0, platform.expected_rounds)
        if len(collectors) == 1:
            return collectors[0]
        merged = CampaignCollector.merge(collectors)
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

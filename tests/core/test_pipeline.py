"""The staged pipeline: typed artifacts, checkpoint reuse, sharded and
multiprocess campaign execution, registry-driven analysis."""

import pytest

from repro.analysis import registry
from repro.analysis.stability import StabilityAnalysis
from repro.core import (
    ArtifactStore,
    RootStudy,
    StudyConfig,
    StudyPipeline,
    build_world,
    clear_world_cache,
    shard_vp_lists,
)
from repro.util.timeutil import parse_ts


def tiny_config(**overrides) -> StudyConfig:
    base = dict(
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
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def tiny_study() -> RootStudy:
    study = RootStudy(tiny_config())
    study.run()
    return study


class TestArtifactStore:
    def test_put_get_with_provenance(self):
        store = ArtifactStore()
        store.put("x", 3, stage="some-stage", expected_type=int)
        assert "x" in store
        assert store.get("x") == 3
        assert store.get("x", int) == 3
        assert store.producer("x") == "some-stage"
        assert store.names() == ["x"]

    def test_type_mismatches_rejected(self):
        store = ArtifactStore()
        with pytest.raises(TypeError):
            store.put("x", "not-an-int", stage="s", expected_type=int)
        store.put("x", 3, stage="s")
        with pytest.raises(TypeError):
            store.get("x", str)

    def test_missing_artifacts(self):
        store = ArtifactStore()
        with pytest.raises(KeyError, match="producing stage"):
            store.get("absent")
        with pytest.raises(KeyError):
            store.producer("absent")


class TestWorldCheckpoint:
    def test_worlds_reused_by_seed(self):
        clear_world_cache()
        config = tiny_config()
        first = build_world(config)
        assert build_world(config) is first
        assert build_world(config, reuse=False) is not first
        clear_world_cache()
        assert build_world(config) is not first

    def test_studies_share_one_world(self):
        clear_world_cache()
        a = RootStudy(tiny_config())
        b = RootStudy(tiny_config())
        assert a.catalog is b.catalog
        assert a.distributor is b.distributor
        # Platforms stay per-study: fresh collectors and churn state.
        assert a.collector is not b.collector
        assert a.selector is not b.selector


class TestStages:
    def test_stages_idempotent_and_timed(self):
        pipeline = StudyPipeline(tiny_config())
        world = pipeline.build_world()
        assert pipeline.build_world() is world
        platform = pipeline.build_platform()
        assert pipeline.build_platform() is platform
        stages = [(t.stage, t.reused) for t in pipeline.timings]
        assert ("build_world", True) in stages
        assert ("build_platform", True) in stages
        assert all(t.seconds >= 0 for t in pipeline.timings)

    def test_results_before_campaign_raises(self):
        pipeline = StudyPipeline(tiny_config())
        with pytest.raises(RuntimeError, match="before the campaign"):
            pipeline.results()
        study = RootStudy(tiny_config())
        with pytest.raises(RuntimeError, match="before the campaign"):
            study.results()

    def test_artifacts_published_with_provenance(self, tiny_study):
        store = tiny_study.pipeline.store
        for name in ("world", "catalog", "fabric", "distributor", "deployments"):
            assert store.producer(name) == "build_world"
        for name in ("platform", "schedule", "vps", "fault_plan"):
            assert store.producer(name) == "build_platform"
        assert store.producer("collector") == "run_campaign"

    def test_run_idempotent(self, tiny_study):
        before = tiny_study.collector.summary()
        again = tiny_study.run()
        assert again.collector.summary() == before
        reused = [t for t in tiny_study.timings if t.stage == "run_campaign" and t.reused]
        assert reused


class TestSharding:
    def test_shard_vp_lists_partitions(self, tiny_study):
        vps = tiny_study.vps
        shards = shard_vp_lists(vps, 3)
        assert len(shards) == 3
        flat = [vp.vp_id for shard in shards for vp in shard]
        assert sorted(flat) == [vp.vp_id for vp in vps]
        with pytest.raises(ValueError):
            shard_vp_lists(vps, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(shards=0)
        with pytest.raises(ValueError):
            tiny_config(workers=0)
        sharded = tiny_config().with_sharding(4, workers=2)
        assert (sharded.shards, sharded.workers) == (4, 2)
        serial = sharded.serial()
        assert (serial.shards, serial.workers) == (1, 1)
        assert serial.seed == sharded.seed

    def test_multiprocess_run_equals_serial(self, tiny_study):
        """workers > 1 runs shards on a process pool with mmap spill
        handoff; output is still byte-identical to the serial campaign."""
        import numpy as np

        from repro.core.pipeline import last_spill_stats

        study = RootStudy(tiny_config().with_sharding(2, workers=2))
        study.run()
        ours, ref = study.collector, tiny_study.collector
        assert ours.summary() == ref.summary()
        assert ours.change_counts() == ref.change_counts()
        assert ours.state_dict() == ref.state_dict()
        for columns in ("probe_columns", "traceroute_columns"):
            mine, theirs = getattr(ours, columns)(), getattr(ref, columns)()
            assert mine.keys() == theirs.keys()
            for name in mine:
                assert np.array_equal(mine[name], theirs[name]), (columns, name)

        # the collectors came home through spills, not the pool pipe
        stats = last_spill_stats()
        assert stats is not None and stats["shards"] == 2
        assert stats["spill_bytes"] > 0
        assert stats["payload_bytes"] < 4096

    def test_spill_stats_reset_by_in_process_run(self):
        from repro.core.pipeline import last_spill_stats

        RootStudy(tiny_config().with_sharding(2, workers=2)).run()
        assert last_spill_stats() is not None
        RootStudy(tiny_config()).run()
        assert last_spill_stats() is None


class TestAnalyzeStage:
    def test_all_analyses_reachable_by_name(self):
        assert registry.names() == [
            "clientbehavior",
            "colocation",
            "coverage",
            "distance",
            "paths",
            "querymix",
            "regional_rtt",
            "rssac",
            "rtt",
            "stability",
            "trafficshift",
            "variability",
            "zonemd_audit",
        ]
        for name in registry.names():
            cls = registry.get(name)
            assert cls.name == name
            assert isinstance(cls.requires, tuple)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="stability"):
            registry.get("nope")

    def test_analyze_by_name(self, tiny_study):
        out = tiny_study.analyze(["stability", "coverage"])
        assert sorted(out) == ["coverage", "stability"]
        assert isinstance(out["stability"], StabilityAnalysis)

    def test_analyze_defaults_to_runnable(self, tiny_study):
        out = tiny_study.analyze()
        assert set(out) == set(registry.runnable(tiny_study.results()))
        # Passive-only analyses need an explicit aggregate.
        assert "trafficshift" not in out
        assert "stability" in out

    def test_missing_input_error_names_the_gap(self, tiny_study):
        with pytest.raises(KeyError, match="aggregate"):
            registry.run("trafficshift", tiny_study.results())

"""Streamed campaigns: resume equivalence, guards, config recovery.

The crash-injection harness (tests/integration/test_crash_resume.py)
kills real subprocesses; these tests exercise the same resume machinery
in-process, where aborts are cheap enough to check serial and sharded
rings and the guard rails around a bad resume.
"""

from __future__ import annotations

import pytest

from repro.core.streaming import (
    config_from_checkpoint,
    finalize_streaming_campaign,
    load_streaming_checkpoint,
    run_streaming_campaign,
)
from repro.data import CheckpointError

from tests.streamutil import assert_trees_identical, tiny_stream_config


class _Abort(Exception):
    """Raised from after_chunk to simulate dying at a chunk boundary."""


@pytest.mark.parametrize("shards", [1, 2])
def test_abort_and_resume_is_byte_identical(shards, tmp_path):
    config = tiny_stream_config(shards=shards)

    clean_ckpt = tmp_path / "clean-ckpt"
    run = run_streaming_campaign(config, clean_ckpt, checkpoint_every=2)
    assert run.complete and run.chunks == 3
    reference = tmp_path / "clean"
    finalize_streaming_campaign(clean_ckpt, reference, passive=False)

    # die right after the first seal, then resume to completion
    ckpt = tmp_path / "crashed-ckpt"

    def bomb(index, _chunk_dir, _lo, _hi):
        if index == 0:
            raise _Abort

    with pytest.raises(_Abort):
        run_streaming_campaign(config, ckpt, checkpoint_every=2, after_chunk=bomb)
    partial = load_streaming_checkpoint(ckpt)
    assert partial.meta["checkpoint"]["rounds_done"] == 2

    resumed = run_streaming_campaign(config, ckpt, checkpoint_every=2, resume=True)
    assert resumed.complete
    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)


def test_resume_of_complete_checkpoint_is_a_noop(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    first = run_streaming_campaign(config, ckpt, checkpoint_every=2)
    again = run_streaming_campaign(config, ckpt, checkpoint_every=2, resume=True)
    assert again.complete and again.chunks == first.chunks
    assert again.collector.summary() == first.collector.summary()


def test_resume_rejects_different_study(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(tiny_stream_config(), ckpt, checkpoint_every=2)
    other = tiny_stream_config(seed=78)
    with pytest.raises(CheckpointError, match="different.*study configuration"):
        run_streaming_campaign(other, ckpt, checkpoint_every=2, resume=True)


def test_fresh_run_refuses_existing_checkpoint(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(config, ckpt, checkpoint_every=2)
    with pytest.raises(CheckpointError, match="already exists"):
        run_streaming_campaign(config, ckpt, checkpoint_every=2)


def test_multiprocess_streaming_matches_in_process(tmp_path):
    """Shard workers on a process pool seal the same chunks — the
    finalized tree differs from the in-process run only in the study
    fingerprint's worker count."""
    import json

    from tests.streamutil import tree_bytes

    ckpt1, ckpt2 = tmp_path / "ckpt1", tmp_path / "ckpt2"
    run_streaming_campaign(
        tiny_stream_config().with_sharding(2, workers=1), ckpt1, checkpoint_every=2
    )
    mp_run = run_streaming_campaign(
        tiny_stream_config().with_sharding(2, workers=2), ckpt2, checkpoint_every=2
    )
    assert mp_run.complete and mp_run.chunks == 3
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    finalize_streaming_campaign(ckpt1, out1, passive=False)
    finalize_streaming_campaign(ckpt2, out2, passive=False)

    left, right = tree_bytes(out1), tree_bytes(out2)
    assert set(left) == set(right)
    different = [name for name in left if left[name] != right[name]]
    assert different in ([], ["MANIFEST.json"])
    m1 = json.loads(left["MANIFEST.json"])
    m2 = json.loads(right["MANIFEST.json"])
    m1["study"]["workers"] = m2["study"]["workers"] = 0
    assert m1 == m2


def test_multiprocess_streaming_reports_spill_stats(tmp_path):
    """Every chunk task of a pooled streamed run hands its rows back
    through a spill; the pipe carries only a small per-task dict."""
    from repro.core.pipeline import last_spill_stats

    run = run_streaming_campaign(
        tiny_stream_config().with_sharding(2, workers=2),
        tmp_path / "ckpt",
        checkpoint_every=2,
    )
    stats = last_spill_stats()
    assert stats is not None and stats["shards"] == 2
    tasks = stats["shards"] * run.chunks
    assert len(stats["spill_dirs"]) == tasks
    assert stats["spill_bytes"] > 0
    assert stats["worker_cpu_seconds"] > 0
    assert stats["payload_bytes"] < 4096 * tasks


def test_checkpoint_every_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_streaming_campaign(
            tiny_stream_config(), tmp_path / "ckpt", checkpoint_every=0
        )


def test_config_from_checkpoint_roundtrips(tmp_path):
    config = tiny_stream_config()
    ckpt = tmp_path / "ckpt"
    run_streaming_campaign(config, ckpt, checkpoint_every=3)
    assert config_from_checkpoint(ckpt) == config


def _with_engine_key(ckpt) -> None:
    """Rewrite a checkpoint into the format written while campaigns still
    had an engine selector: ``"engine": "epoch"`` at the top level of
    ``CHECKPOINT.json`` and in every recorded study block (the
    checkpoint's and each chunk manifest's).  Nothing else differs."""
    import json

    from repro.data import CHECKPOINT_NAME

    def with_engine(study):
        # asdict() order: the knob sat between workers and world
        out = {}
        for key, value in study.items():
            if key == "world":
                out["engine"] = "epoch"
            out[key] = value
        return out

    for path in [ckpt / CHECKPOINT_NAME, *sorted(ckpt.glob("chunks/*/MANIFEST.json"))]:
        doc = json.loads(path.read_text())
        doc["study"] = with_engine(doc["study"])
        if path.name == CHECKPOINT_NAME:
            doc["engine"] = "epoch"
        path.write_text(json.dumps(doc, indent=2))


def test_checkpoint_recording_an_engine_still_serves(tmp_path, capsys):
    """Partial data from a checkpoint that still records the retired
    engine knob loads, analyzes and serves; resuming it is refused with
    a clean error instead of a traceback."""
    from repro.analysis.summaries import analysis_json_bytes
    from repro.cli import analyze_main, study_main
    from repro.serving.catalog import Catalog
    from repro.serving.service import AnalysisService

    ckpt = tmp_path / "ckpt"

    def stop(index, _chunk_dir, _lo, _hi):
        if index == 1:
            raise _Abort

    with pytest.raises(_Abort):
        run_streaming_campaign(
            tiny_stream_config(), ckpt, checkpoint_every=2, after_chunk=stop
        )
    _with_engine_key(ckpt)

    partial = load_streaming_checkpoint(ckpt)
    assert partial.meta["checkpoint"]["rounds_done"] == 4
    assert partial.study["engine"] == "epoch"
    # seed-derived inputs (the VP ring) rebuild from the recorded study
    assert partial.study_config() == tiny_stream_config()

    assert analyze_main([str(ckpt)]) == 0
    assert analyze_main([str(ckpt), "colocation"]) == 0
    capsys.readouterr()

    service = AnalysisService(Catalog.from_paths([ckpt]))
    entry = service.catalog.ids()[0]
    response = service.handle("GET", f"/datasets/{entry}/analyses/colocation")
    assert response.status == 200
    assert response.body == analysis_json_bytes(partial, "colocation")

    with pytest.raises(CheckpointError, match="cannot reload"):
        config_from_checkpoint(ckpt)
    assert study_main(["--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "cannot reload" in err and "Traceback" not in err

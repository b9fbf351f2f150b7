"""A shard task that raises in a pool worker.

The failure must reach the caller as the worker's own exception — from
the batch path and from the streamed checkpoint path — with every pool
process joined, and a streamed run must then resume byte-identically
from its last sealed chunk.  The fault is a spill root under a regular
file: ``write_shard_spill`` cannot create its directory in the worker.
"""

from __future__ import annotations

import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import pipeline
from repro.core.pipeline import build_platform, build_world, run_campaign
from repro.core.streaming import finalize_streaming_campaign, run_streaming_campaign
from repro.data import spill

from tests.streamutil import assert_trees_identical, tiny_stream_config


@pytest.fixture
def pool_processes(monkeypatch):
    """Every worker process a campaign pool starts during the test."""
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            started.extend(
                p for p in self._processes.values() if p not in started
            )
            return future

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    return started


def _assert_all_joined(processes) -> None:
    assert processes, "no pool process was started"
    assert all(p.exitcode is not None for p in processes)


def test_batch_worker_exception_surfaces(tmp_path, monkeypatch, pool_processes):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    monkeypatch.setattr(spill, "spill_tempdir", lambda prefix: blocker / prefix)

    config = tiny_stream_config().with_sharding(2, workers=2)
    world = build_world(config)
    platform = build_platform(config, world)
    with pytest.raises(NotADirectoryError):
        run_campaign(config, world, platform)
    _assert_all_joined(pool_processes)


def test_streamed_worker_exception_surfaces_and_resumes(
    tmp_path, monkeypatch, pool_processes
):
    config = tiny_stream_config().with_sharding(2, workers=2)
    reference_ckpt = tmp_path / "clean-ckpt"
    run_streaming_campaign(config, reference_ckpt, checkpoint_every=2)
    reference = tmp_path / "clean"
    finalize_streaming_campaign(reference_ckpt, reference, passive=False)

    # the spill root's parent turns into a regular file once the first
    # chunk is sealed, so the second chunk's spill fails in the worker
    blocker = tmp_path / "blocker"
    blocker.mkdir()
    monkeypatch.setattr(spill, "spill_tempdir", lambda prefix: blocker / prefix)

    def block(index, _chunk_dir, _lo, _hi):
        if index == 0:
            shutil.rmtree(blocker)
            blocker.write_text("a regular file")

    ckpt = tmp_path / "ckpt"
    pool_processes.clear()
    with pytest.raises(NotADirectoryError):
        run_streaming_campaign(config, ckpt, checkpoint_every=2, after_chunk=block)
    _assert_all_joined(pool_processes)

    monkeypatch.undo()
    resumed = run_streaming_campaign(config, ckpt, checkpoint_every=2, resume=True)
    assert resumed.complete and resumed.chunks == 3
    out = tmp_path / "resumed"
    finalize_streaming_campaign(ckpt, out, passive=False)
    assert_trees_identical(reference, out)

"""Round-incremental campaign execution with checkpoint/resume.

The campaign runs **in round ranges**: every ``checkpoint_every`` rounds
the :class:`~repro.core.pipeline.ShardRunner` advances each shard, the
new rows are merged out of the shard collectors, sealed into a columnar
chunk on disk (:mod:`repro.data.chunks`), and the crash-safe
``CHECKPOINT.json`` is atomically replaced.  Peak memory is bounded by
one chunk instead of the campaign, and a killed run resumes from the
last sealed chunk — producing a finalized dataset byte-identical to an
uninterrupted run's ``StudyResults.save`` (DESIGN.md §11).

Why resume is exact: every shard advances an
:class:`~repro.vantage.epoch_engine.EpochCampaignPlan`, which is
compiled from the seed alone, and ``emit_range`` is pure over the
restored collector aggregates — it advances no churn state and never
touches the distributor's freeze state — so no process state survives a
crash that the checkpoint does not carry.

Every shard advances the same round range over its disjoint VP subset,
and :meth:`CampaignCollector.merge` folds the shard collectors — whose
row tables hold only the current chunk, earlier rows having been drained
to disk — into the chunk's globally-ordered rows plus the cumulative
aggregate state.  Timestamps ascend strictly across chunks, so
concatenating per-chunk merges reproduces the whole-campaign merge.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import StudyConfig
from repro.core.pipeline import ShardRunner, build_platform, build_world
from repro.data.chunks import (
    CheckpointReader,
    ChunkData,
    ChunkedDatasetWriter,
    read_passive_aggregate,
    write_passive_aggregate,
)
from repro.data.schema import CheckpointError
from repro.vantage.collector import CampaignCollector


#: Called after every sealed chunk: (chunk_index, chunk_dir, lo, hi).
#: The crash-injection harness and the CLI progress line hook in here.
AfterChunk = Callable[[int, Path, int, int], None]


@dataclass
class StreamingRun:
    """What a streamed (possibly partial) campaign left behind."""

    config: StudyConfig
    checkpoint_dir: Path
    n_rounds: int
    rounds_done: int
    chunks: int
    #: Aggregate state over every sealed round (row tables empty — the
    #: rows live in the sealed chunks).
    collector: CampaignCollector

    @property
    def complete(self) -> bool:
        return self.rounds_done == self.n_rounds


def _config_fingerprint(config: StudyConfig) -> dict:
    """The config as it appears in a checkpoint (JSON round-tripped, so
    comparisons against a reloaded checkpoint are exact)."""
    return json.loads(json.dumps(asdict(config)))


# --- chunk delta extraction ----------------------------------------------------------


def _stability_delta(
    prev: Dict[Tuple[int, int], Tuple[int, int]],
    now: Dict[Tuple[int, int], Tuple[int, int]],
) -> Dict[str, np.ndarray]:
    """Per-pair (changes, rounds) accrued since the previous seal, as
    stability-schema columns sorted by (vp, addr)."""
    rows = []
    for pair in sorted(now):
        changes, rounds = now[pair]
        p_changes, p_rounds = prev.get(pair, (0, 0))
        if changes != p_changes or rounds != p_rounds:
            rows.append((pair[0], pair[1], changes - p_changes, rounds - p_rounds))
    return {
        "vp": np.array([r[0] for r in rows], dtype=np.int32),
        "addr": np.array([r[1] for r in rows], dtype=np.int16),
        "changes": np.array([r[2] for r in rows], dtype=np.int32),
        "rounds": np.array([r[3] for r in rows], dtype=np.int32),
    }


def _identity_delta(
    prev: Dict[str, Dict[str, int]], now: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-(letter, identity) observation counts accrued since the
    previous seal (insertion order follows the cumulative dict)."""
    delta: Dict[str, Dict[str, int]] = {}
    for letter, bucket in now.items():
        prev_bucket = prev.get(letter, {})
        for identity, count in bucket.items():
            d = count - prev_bucket.get(identity, 0)
            if d:
                delta.setdefault(letter, {})[identity] = d
    return delta


def _snapshot_identities(collector: CampaignCollector) -> Dict[str, Dict[str, int]]:
    return {letter: dict(bucket) for letter, bucket in collector.identities.items()}


# --- the streamed campaign -----------------------------------------------------------


def run_streaming_campaign(
    config: StudyConfig,
    checkpoint_dir: Union[str, Path],
    *,
    checkpoint_every: int = 8,
    resume: bool = False,
    after_chunk: Optional[AfterChunk] = None,
) -> StreamingRun:
    """Run (or resume) the campaign, sealing a chunk every N rounds.

    With ``resume=True`` the checkpoint in *checkpoint_dir* is loaded,
    any unsealed tail chunk is discarded, and execution continues from
    the last sealed round; the eventual
    :func:`finalize_streaming_campaign` output is byte-identical to an
    uninterrupted run's.  *after_chunk* fires after every seal — it may
    raise (or the process may die) without endangering sealed state.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1: {checkpoint_every}")

    world = build_world(config)
    platform = build_platform(config, world)
    n_rounds = platform.expected_rounds
    study = _config_fingerprint(config)

    writer = ChunkedDatasetWriter(checkpoint_dir)
    global_state = CampaignCollector()
    shard_states: Optional[List[Dict]] = None

    if resume:
        ckpt = writer.resume()
        if ckpt["study"] != study:
            raise CheckpointError(
                f"checkpoint at {writer.path} was started with a different "
                f"study configuration; refusing to resume into it"
            )
        if ckpt["n_rounds"] != n_rounds or ckpt["shards"] != config.shards:
            raise CheckpointError(
                f"checkpoint at {writer.path} disagrees with the config: "
                f"{ckpt['n_rounds']} rounds / {ckpt['shards']} shards vs "
                f"{n_rounds} / {config.shards}"
            )
        shard_states = ckpt["shard_states"]
        if len(shard_states) != config.shards:
            raise CheckpointError(
                f"checkpoint at {writer.path} carries "
                f"{len(shard_states)} shard states for "
                f"{config.shards} shards"
            )
        global_state.restore_state_dict(ckpt["state"])
    else:
        fresh = global_state.state_dict()
        writer.start(
            study=study,
            addresses=[sa.address for sa in global_state.addresses],
            shards=config.shards,
            n_rounds=n_rounds,
            state=fresh,
            shard_states=[fresh] * config.shards,
        )

    prev_counts = global_state.change_counts()
    prev_idents = _snapshot_identities(global_state)
    prev_queries = global_state.queries_simulated
    prev_total = global_state.transfer_total
    prev_clean = global_state.transfer_clean

    with ShardRunner(config, world, platform, shard_states) as runner:
        lo = writer.rounds_done
        while lo < n_rounds:
            hi = min(lo + checkpoint_every, n_rounds)
            chunk_collectors = runner.advance(lo, hi)
            merged = CampaignCollector.merge(chunk_collectors)
            probes, traceroutes, transfers = merged.drain_rows()
            chunk = ChunkData(
                round_lo=lo,
                round_hi=hi,
                probes=probes,
                traceroutes=traceroutes,
                stability=_stability_delta(prev_counts, merged.change_counts()),
                identities=_identity_delta(prev_idents, merged.identities),
                transfers=transfers,
                queries=merged.queries_simulated - prev_queries,
                transfer_total=merged.transfer_total - prev_total,
                transfer_clean=merged.transfer_clean - prev_clean,
            )
            for collector in chunk_collectors:
                collector.drain_rows()
            chunk_index = len(writer.checkpoint["chunks"])
            chunk_dir = writer.seal_chunk(
                chunk,
                state=merged.state_dict(),
                shard_states=[c.state_dict() for c in chunk_collectors],
            )

            global_state = merged
            prev_counts = global_state.change_counts()
            prev_idents = _snapshot_identities(global_state)
            prev_queries = global_state.queries_simulated
            prev_total = global_state.transfer_total
            prev_clean = global_state.transfer_clean
            lo = hi
            if after_chunk is not None:
                after_chunk(chunk_index, chunk_dir, chunk.round_lo, hi)

    return StreamingRun(
        config=config,
        checkpoint_dir=writer.path,
        n_rounds=n_rounds,
        rounds_done=writer.rounds_done,
        chunks=len(writer.checkpoint["chunks"]),
        collector=global_state,
    )


# --- finalize ------------------------------------------------------------------------


def finalize_streaming_campaign(
    checkpoint_dir: Union[str, Path],
    out_dir: Union[str, Path],
    *,
    passive: bool = True,
) -> Path:
    """Turn a fully-sealed checkpoint into a normal dataset directory.

    Byte-identical to ``StudyResults.save`` for the equivalent batch run.
    Passive captures are built one at a time and cached under the
    checkpoint directory (``passive/<name>.json``), so a crash during
    this phase resumes without recomputing finished captures.
    """
    writer = ChunkedDatasetWriter(checkpoint_dir)
    ckpt = writer.resume()

    state = CampaignCollector()
    state.restore_state_dict(ckpt["state"])

    passive_store = None
    if passive:
        if ckpt.get("study") is None:
            raise CheckpointError(
                "checkpoint carries no study fingerprint; passive captures "
                "need the seed — finalize with passive=False"
            )
        from repro.data.passive import PassiveStore
        from repro.passive.recipes import STANDARD_CAPTURES, build_capture

        study_config = StudyConfig.from_dict(ckpt["study"])
        traffic = study_config.traffic_spec()
        aggregates = {}
        for name in STANDARD_CAPTURES:
            if name in ckpt.get("passive_done", []):
                aggregates[name] = read_passive_aggregate(writer.path, name)
            else:
                aggregates[name] = build_capture(
                    name, study_config.seed, traffic=traffic
                )
                write_passive_aggregate(writer.path, name, aggregates[name])
                writer.note_passive_done(name)
        passive_store = PassiveStore.from_aggregates(aggregates)

    return writer.finalize(out_dir, state_collector=state, passive_store=passive_store)


def load_streaming_checkpoint(checkpoint_dir: Union[str, Path]):
    """The stitched partial dataset of a checkpoint's sealed chunks."""
    return CheckpointReader(checkpoint_dir).dataset()


def config_from_checkpoint(checkpoint_dir: Union[str, Path]) -> StudyConfig:
    """The :class:`StudyConfig` a checkpoint was started with.

    ``--resume`` uses this instead of re-deriving the config from CLI
    flags, so a resumed run can never silently diverge from the run it
    continues."""
    ckpt = CheckpointReader(checkpoint_dir).checkpoint()
    study = ckpt.get("study")
    if study is None:
        raise CheckpointError(
            f"checkpoint at {checkpoint_dir} carries no study fingerprint; "
            f"it cannot be resumed from the CLI"
        )
    try:
        # Strict: a checkpoint written by a different schema must fail
        # loudly rather than silently drop the unknown knobs.
        return StudyConfig.from_dict(study)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint at {checkpoint_dir} carries a study fingerprint "
            f"this version cannot reload: {exc}"
        ) from None

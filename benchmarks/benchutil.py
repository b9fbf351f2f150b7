"""Shared bench-runner helpers: the bench campaign configs, CPU
visibility and scaling curves.

The bench runners historically hard-coded their worker counts, which on
a many-core host silently records single-core numbers.  These helpers
make the worker axis explicit: :func:`scaling_worker_levels` is the
curve a runner should sweep (powers of two up to the affinity-visible
CPU count), and :func:`cpu_scaling_meta` is the machine-metadata block
that says — in the published JSON — whether a scaling curve was
*recorded* or *skipped* and why.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

__all__ = [
    "cpu_scaling_meta",
    "make_config",
    "scaling_worker_levels",
    "visible_cpus",
]


def make_config(scale: str):
    """The campaign config of a bench ``--scale`` (``bench`` or ``tiny``)."""
    from repro.core.config import StudyConfig
    from repro.util.timeutil import parse_ts

    if scale == "bench":
        # The BENCH_pipeline.json campaign: full timeline, ~89 VPs.
        return StudyConfig(
            seed=2024,
            ring_scale=0.1,
            ring_min_per_region=8,
            interval_scale=48.0,
            rtt_sample_every=1,
            traceroute_sample_every=2,
            axfr_sample_every=2,
            clean_transfer_keep_one_in=200,
        )
    # "tiny": a dozen VPs over a month around the ZONEMD switch —
    # CI-friendly, still exercising sampling, traceroutes, transfers and
    # the fault plan.
    return StudyConfig(
        seed=77,
        ring_scale=0.02,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-11-15"),
        campaign_end=parse_ts("2023-12-15"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware: a pinned
    container reports its quota, not the host's core count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def scaling_worker_levels(cpus: Optional[int] = None) -> List[int]:
    """The worker counts a scaling sweep should measure: serial, powers
    of two below the visible CPU count, and the count itself.

    ``1 cpu → [1]``, ``2 → [1, 2]``, ``6 → [1, 2, 4, 6]``.
    """
    if cpus is None:
        cpus = visible_cpus()
    levels = [1]
    step = 2
    while step < cpus:
        levels.append(step)
        step *= 2
    if cpus > 1:
        levels.append(cpus)
    return levels


def cpu_scaling_meta(levels: Optional[List[int]] = None) -> Dict[str, object]:
    """Machine-metadata fields recording the scaling-sweep decision."""
    cpus = visible_cpus()
    if levels is None:
        levels = scaling_worker_levels(cpus)
    swept = [level for level in levels if level > 1]
    if swept:
        note = (
            f"recorded: serial vs workers={swept} over "
            f"{cpus} visible cpus"
        )
    else:
        note = (
            "skipped (1 visible cpu): workers>1 rows measure "
            "multiprocess overhead, not parallel speedup"
        )
    return {"cpus": cpus, "cpu_scaling": note, "worker_levels": levels}

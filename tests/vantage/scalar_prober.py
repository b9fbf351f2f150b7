"""The scalar campaign loop: the test-side oracle for the epoch engine.

Walks every (round, VP, address) cell of the Appendix F suite one at a
time — route selection through the live churn state machine, per-cell
collector appends, a full AXFR for every sampled transfer, and stale
sites frozen and unfrozen on the shared distributor as their windows
open and close.  It is slow and stateful, which is why the product runs
only the epoch-compiled engine (:mod:`repro.vantage.epoch_engine`); it
is also a direct transcription of the measurement the paper describes,
which is why the engine's golden-equivalence tests compare against it at
toy scale
(tests/vantage/test_epoch_engine.py, tests/vantage/test_collector_merge.py).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import StudyConfig
from repro.core.pipeline import WorldArtifacts, build_platform, build_world
from repro.faults.bitflip import flip_bit_in_zone
from repro.netsim.latency import route_rtt_ms
from repro.netsim.mix import mix64, mix_float
from repro.rss.operators import ServiceAddress
from repro.util.timeutil import Timestamp
from repro.vantage.collector import CampaignCollector, TransferObservation
from repro.vantage.node import VantagePoint
from repro.vantage.probes import QUERIES_PER_ADDRESS, STLH_MISSING_PROB, Prober
from repro.vantage.scheduler import MeasurementSchedule


class ScalarProber:
    """Runs a campaign cell by cell through *prober*'s platform state."""

    def __init__(self, prober: Prober) -> None:
        self.prober = prober
        #: Mirrors the distributor's freeze state for the fault plan's
        #: stale sites, so each window edge is applied exactly once.
        self._stale_frozen: Dict[str, bool] = {}

    def run_campaign(
        self, vps: List[VantagePoint], schedule: MeasurementSchedule
    ) -> CampaignCollector:
        """Run the whole campaign; returns the prober's collector."""
        for round_no, ts in enumerate(schedule.instants()):
            self._apply_stale_events(ts)
            for vp in vps:
                self.run_round(vp, round_no, ts)
            self.prober.collector.rounds_processed += 1
        return self.prober.collector

    def _apply_stale_events(self, ts: Timestamp) -> None:
        """Freeze/unfreeze sites according to the fault plan's windows."""
        prober = self.prober
        for event in prober.fault_plan.stale_sites:
            frozen = self._stale_frozen.get(event.site_key, False)
            if event.active(ts) and not frozen:
                prober.deployments[event.letter].freeze_site(
                    event.site_key, event.freeze_from
                )
                self._stale_frozen[event.site_key] = True
            elif not event.active(ts) and frozen:
                prober.deployments[event.letter].unfreeze_site(event.site_key)
                self._stale_frozen[event.site_key] = False

    def run_round(self, vp: VantagePoint, round_no: int, ts: Timestamp) -> None:
        """One VP's measurement round across all service addresses."""
        prober = self.prober
        sampling = prober.sampling
        collector = prober.collector
        phase = vp.vp_id  # de-synchronise sampling across VPs
        do_rtt = (round_no + phase) % sampling.rtt_every == 0
        do_traceroute = (round_no + phase) % sampling.traceroute_every == 0
        do_axfr = (round_no + phase) % sampling.axfr_every == 0

        for addr_idx, sa in enumerate(collector.addresses):
            route = prober.selector.select(
                vp.attachment, vp.vp_id, sa.letter, sa.family, sa.address, round_no
            )
            collector.note_site(vp.vp_id, addr_idx, route.site.key)
            collector.note_identity(sa.letter, route.site.identity(), vp.vp_id, addr_idx)
            collector.queries_simulated += QUERIES_PER_ADDRESS

            if do_rtt:
                request_key = mix64(vp.vp_id, addr_idx, round_no)
                rtt = route_rtt_ms(route, vp.last_mile_ms, request_key)
                collector.add_probe_sample(
                    vp_id=vp.vp_id,
                    ts=ts,
                    addr_idx=addr_idx,
                    site_key=route.site.key,
                    rtt_ms=rtt,
                    direct_km=route.direct_km,
                    closest_global_km=prober._closest_global_km(
                        vp.attachment.city.iata, sa.letter
                    ),
                    via_peer=route.via != "transit",
                    transit_asn=0 if route.transit is None else route.transit.asn,
                )

            if do_traceroute:
                missing = (
                    mix_float(vp.vp_id, addr_idx, round_no, 13) < STLH_MISSING_PROB
                )
                collector.add_traceroute(
                    vp_id=vp.vp_id,
                    ts=ts,
                    addr_idx=addr_idx,
                    second_to_last_hop=None if missing else route.second_to_last_hop,
                )

            bitflip = prober.fault_plan.bitflip_for(vp.vp_id, ts, sa.address)
            if do_axfr or bitflip is not None:
                self._do_transfer(vp, ts, addr_idx, sa, route.site.key, bitflip)

    def _do_transfer(
        self,
        vp: VantagePoint,
        ts: Timestamp,
        addr_idx: int,
        sa: ServiceAddress,
        site_key: str,
        bitflip,
    ) -> None:
        prober = self.prober
        collector = prober.collector
        deployment = prober.deployments[sa.letter]
        result = deployment.serve_axfr(site_key, ts)
        zone = result.zone
        fault = ""
        fault_detail = ""
        if bitflip is not None:
            zone, report = flip_bit_in_zone(zone, bitflip, ts)
            fault = "bitflip"
            fault_detail = report.description
        stale = deployment.distributor.is_frozen(site_key)
        if stale and not fault:
            fault = "stale"
            fault_detail = f"site {site_key} frozen"
        clock_offset = prober.fault_plan.clocks.offset_for(vp.vp_id, ts)
        clean = not fault and clock_offset == 0
        collector.count_transfer(clean)

        interesting = bool(fault) or clock_offset != 0
        keep_clean_sample = (
            mix_float(vp.vp_id, addr_idx, ts, 29)
            < 1.0 / prober.sampling.clean_transfer_keep_one_in
        )
        if interesting or keep_clean_sample:
            collector.add_transfer_observation(
                TransferObservation(
                    vp_id=vp.vp_id,
                    true_ts=ts,
                    observed_ts=ts + clock_offset,
                    address=sa,
                    serial=zone.serial,
                    zone=zone,
                    fault=fault,
                    fault_detail=fault_detail,
                )
            )


def run_scalar_campaign(
    world: WorldArtifacts,
    prober: Prober,
    vps: List[VantagePoint],
    schedule: MeasurementSchedule,
) -> CampaignCollector:
    """Run the scalar loop, leaving the distributor unfrozen afterwards.

    The loop freezes stale sites on the world's shared (cached)
    distributor; clearing them on the way out keeps later users of the
    same world — the full-fidelity wire prober included — seeing
    campaign-start state."""
    world.distributor.reset_faults()
    try:
        return ScalarProber(prober).run_campaign(vps, schedule)
    finally:
        world.distributor.reset_faults()


def scalar_collector(config: StudyConfig) -> CampaignCollector:
    """The serial scalar campaign for *config* (sharding knobs ignored)."""
    world = build_world(config)
    platform = build_platform(config, world)
    return run_scalar_campaign(
        world, platform.prober, platform.vps, platform.schedule
    )

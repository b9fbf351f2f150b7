"""The bundle a finished study hands to the analysis layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import StudyConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.data import Dataset
from repro.faults.plan import FaultPlan
from repro.netsim.topology import NetworkFabric
from repro.rss.server import RootServerDeployment
from repro.rss.sites import SiteCatalog
from repro.vantage.collector import CampaignCollector
from repro.vantage.node import VantagePoint
from repro.vantage.scheduler import MeasurementSchedule
from repro.zone.distribution import ZoneDistributor


@dataclass
class StudyResults:
    """Everything the per-table/figure analyses need, in one place."""

    config: StudyConfig
    schedule: MeasurementSchedule
    vps: List[VantagePoint]
    catalog: SiteCatalog
    fabric: NetworkFabric
    deployments: Dict[str, RootServerDeployment]
    distributor: ZoneDistributor
    fault_plan: FaultPlan
    collector: CampaignCollector
    _dataset: Optional["Dataset"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dataset(self) -> "Dataset":
        """The campaign's measurement output as a typed dataset.

        Sealed lazily from the collector (column arrays are shared, not
        copied) and stamped with this study's config as the dataset's
        study fingerprint; memoised thereafter.
        """
        if self._dataset is None:
            from repro.data import Dataset

            self._dataset = Dataset.from_collector(self.collector, self.config)
        return self._dataset

    def save(self, directory: str, passive: bool = True) -> Path:
        """Persist the dataset to *directory* (``rootsim-study --save``);
        returns the dataset path.

        With *passive* (the default), the standard passive captures for
        this study's seed (:func:`repro.passive.recipes.standard_captures`)
        ride along as passive tables, so Figures 7–13 later replay from
        disk with zero re-simulation.  An already-attached passive store
        is kept as-is.
        """
        from repro.data import save_dataset

        dataset = self.dataset
        if passive and dataset.passive is None:
            from repro.data.passive import PassiveStore
            from repro.passive.recipes import standard_captures

            dataset.attach_passive(
                PassiveStore.from_aggregates(
                    standard_captures(
                        self.config.seed, traffic=self.config.traffic_spec()
                    )
                )
            )
        return save_dataset(dataset, directory)

    def vp_by_id(self, vp_id: int) -> VantagePoint:
        """Look up a VP (ids are dense, list-indexed)."""
        vp = self.vps[vp_id]
        if vp.vp_id != vp_id:  # defensive: ids must stay dense
            raise RuntimeError("vp ids are not dense")
        return vp

    def summary(self) -> Dict[str, object]:
        """Human-readable study fingerprint."""
        out: Dict[str, object] = dict(self.collector.summary())
        out["vps"] = len(self.vps)
        out["networks"] = len({vp.asn for vp in self.vps})
        out["countries"] = len({vp.country for vp in self.vps})
        out["sites"] = len(self.catalog)
        return out

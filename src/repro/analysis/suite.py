"""The supervised analysis suite: all nine stages, one boundary each.

The pipeline and CLI used to invoke the analysis modules ad hoc; this
module is the single place that knows the full stage roster, the call
shape of each stage, and the inter-stage dependency (indicators consume
the network report).  Every stage runs under a
:class:`~repro.contracts.supervisor.StageSupervisor`, so one stage
blowing up yields a :class:`~repro.contracts.supervisor.StageFailure`
and a ``None`` report — never a dead run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.account_setup import AccountSetupAnalysis
from repro.analysis.efficacy import EfficacyAnalysis
from repro.analysis.infrastructure import InfrastructureAnalysis
from repro.analysis.indicators import IndicatorEngine
from repro.analysis.marketplace_anatomy import MarketplaceAnatomy
from repro.analysis.network import NetworkAnalysis
from repro.analysis.scam_posts import ScamPipelineConfig, ScamPostAnalysis
from repro.analysis.sellers import SellerActivityAnalysis
from repro.analysis.underground_analysis import UndergroundAnalysis
from repro.contracts.supervisor import StageFailure, StageSupervisor
from repro.core.dataset import MeasurementDataset
from repro.obs.prof import NULL_PROFILER

#: The nine analysis stages, in canonical execution order.
STAGE_NAMES = (
    "anatomy",
    "account_setup",
    "scam_posts",
    "network",
    "efficacy",
    "underground",
    "sellers",
    "infrastructure",
    "indicators",
)


@dataclass
class AnalysisResults:
    """Per-stage reports (``None`` where the stage degraded) + failures."""

    reports: Dict[str, Optional[object]] = field(default_factory=dict)
    failures: List[StageFailure] = field(default_factory=list)

    def report(self, name: str) -> Optional[object]:
        return self.reports.get(name)

    def failed(self, name: str) -> bool:
        return any(f.stage == name for f in self.failures)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.reports.values() if r is not None)

    def coverage(self) -> float:
        """Share of stages that produced a report."""
        if not self.reports:
            return 1.0
        return self.succeeded / len(self.reports)


def run_analysis_suite(
    dataset: MeasurementDataset,
    supervisor: StageSupervisor,
    telemetry=None,
    scam_config: Optional[ScamPipelineConfig] = None,
) -> AnalysisResults:
    """Run all nine stages under ``supervisor``.

    Stage order is fixed and the stage callables are deterministic
    functions of the (seeded) dataset, so a resumed run replays the
    identical sequence of supervisor decisions.
    """
    results = AnalysisResults()
    profiler = getattr(telemetry, "profiler", NULL_PROFILER)

    # Per-stage record throughput: how many input records each stage
    # chews through (the profiler divides by sim time for records/s).
    sizes = {
        "anatomy": len(dataset.listings),
        "account_setup": len(dataset.profiles),
        "scam_posts": len(dataset.posts),
        "network": len(dataset.listings),
        "efficacy": len(dataset.profiles),
        "underground": len(dataset.underground),
        "sellers": len(dataset.listings),
        "infrastructure": len(dataset.posts),
        "indicators": len(dataset.listings),
    }

    def stage(name: str, fn, *args, **kwargs):
        with profiler.stage(name):
            results.reports[name] = supervisor.run(name, fn, *args, **kwargs)
        profiler.add_counts(
            profiler.stage_key(name), records=sizes.get(name, 0)
        )
        return results.reports[name]

    stage("anatomy", MarketplaceAnatomy().run, dataset)
    stage("account_setup", AccountSetupAnalysis().run, dataset)
    stage("scam_posts", ScamPostAnalysis(scam_config, telemetry).run, dataset)
    network = stage("network", NetworkAnalysis().run, dataset)
    stage("efficacy", EfficacyAnalysis().run, dataset)
    stage("underground", UndergroundAnalysis().run, dataset.underground)
    stage("sellers", SellerActivityAnalysis().run, dataset)
    stage("infrastructure", InfrastructureAnalysis().run, dataset.posts)
    # Indicators consume the network clustering when it exists; a failed
    # network stage degrades them to unclustered scoring, not to failure.
    stage("indicators", IndicatorEngine().score_dataset, dataset,
          network=network)

    results.failures = list(supervisor.failures)
    return results


__all__ = ["AnalysisResults", "STAGE_NAMES", "run_analysis_suite"]

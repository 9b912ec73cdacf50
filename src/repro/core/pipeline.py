"""The three-module study pipeline (Figure 1).

Module 1 — *collect marketplaces*: triage the Table-9 channel inventory
down to the monitorable markets and stand their sites up.

Module 2 — *data collection*: run the iteration crawl over all public
marketplaces, query platform APIs for every visible profile, and run the
manual-protocol collector over the underground forums.

Module 3 — *tracking and analysis* lives in :mod:`repro.analysis`; this
module hands it a complete :class:`~repro.core.dataset.MeasurementDataset`
plus the crawl artifacts (Figure-2 series, payment-method matrix), and
:meth:`Study.analyze` runs the supervised suite and the scorecard.

:class:`Study` is the one driver of these phases.  It crawls whatever
network it is handed: a :class:`LiveNetwork` (the synthetic Internet,
optionally behind the fault injector and captured into an archive) by
default, or an :class:`~repro.archive.replay.ArchiveNetwork` that serves
a sealed archive back — so ``repro replay`` runs exactly this code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.suite import AnalysisResults, STAGE_NAMES, run_analysis_suite
from repro.archive.writer import POST_COLLECTION_PHASE, ArchiveWriter
from repro.contracts.quarantine import QuarantineStore
from repro.contracts.schema import ValidationReport, validate_dataset
from repro.contracts.supervisor import StageFailure, StageSupervisor
from repro.core.dataset import MeasurementDataset
from repro.crawler.crawler import CrawlReport, IterationCrawl, MarketplaceCrawler
from repro.faults import DiskFaultInjector, FaultInjector, resolve_profile
from repro.crawler.profile_collector import ProfileCollector
from repro.crawler.underground_collector import UndergroundCollector
from repro.marketplaces.channels import monitored_channels, triage, websites
from repro.marketplaces.deploy import (
    deploy_public_marketplaces,
    deploy_underground,
    set_iteration,
)
from repro.marketplaces.registry import MARKETPLACES
from repro.marketplaces.underground import onion_host
from repro.obs.prof import StageProfiler
from repro.obs.quality import Scorecard, compute_scorecard
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.watchdog import CrawlWatchdog
from repro.platforms.deploy import deploy_platforms, enable_moderation
from repro.synthetic.model import World
from repro.synthetic.world import WorldBuilder, WorldConfig
from repro.util.rng import RngTree
from repro.web.captcha import HumanSolver
from repro.web.client import ClientConfig, HttpClient
from repro.web.server import Internet


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one full study run."""

    seed: int = 2024
    scale: float = 0.05
    iterations: int = 4
    include_underground: bool = True
    #: Politeness spacing between same-host requests (simulated seconds).
    per_host_delay_seconds: float = 0.0
    #: Record metrics/spans/events during the run.  Off by default so
    #: benchmark timings are unaffected; the CLI's ``--telemetry-out``
    #: switches it on.  An explicit ``Telemetry`` passed to
    #: :class:`Study` overrides this flag.
    telemetry_enabled: bool = False
    #: Run the crawl-health watchdogs (coverage, error rates, stalls).
    #: Cheap counter arithmetic; on by default, active only when
    #: telemetry is recording.
    watchdogs_enabled: bool = True
    #: Record a performance profile (per-phase/per-stage wall, sim,
    #: memory via tracemalloc, throughput) exported as ``profile.json``
    #: next to the telemetry files.  Off by default: tracemalloc roughly
    #: doubles allocation cost, so profiling must never leak into
    #: benchmark timings or the <5% telemetry-overhead budget.
    profile_enabled: bool = False
    #: Compute the fidelity scorecard at the end of the run.  This
    #: re-runs the analysis stages (including the NLP pipeline), so
    #: benchmarks that time the crawl alone should turn it off.
    scorecard_enabled: bool = True
    #: Chaos profile name (``off``/``light``/``moderate``/``heavy``):
    #: wraps the synthetic Internet in a seeded fault-injection layer.
    chaos_profile: str = "off"
    #: Directory for crawl checkpoints; with it set, the iteration crawl
    #: persists its tracker after every iteration.
    checkpoint_dir: Optional[str] = None
    #: Resume from an existing checkpoint in ``checkpoint_dir`` instead
    #: of starting fresh (the CLI's ``repro run --resume``).
    resume: bool = False
    #: Run every record through its contract after collection (repairs,
    #: degrades, quarantines — see :mod:`repro.contracts`).
    contracts_enabled: bool = True
    #: Turn the first quarantine or stage failure into a hard error
    #: (the CLI's ``--strict-contracts``).
    strict_contracts: bool = False
    #: Analysis stages to fail deliberately (``--fail-stage``) —
    #: degraded-run drills and supervisor tests.
    fail_stages: Tuple[str, ...] = ()
    #: Directory for the crawl archive (``--archive-dir``): every HTTP
    #: exchange is captured into a content-addressed store sealed at the
    #: end of the run, from which ``repro replay`` re-runs extraction
    #: and analysis offline.  Off (None) by default so benchmark
    #: timings are unaffected.
    archive_dir: Optional[str] = None

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            seed=self.seed,
            scale=self.scale,
            iterations=self.iterations,
            include_underground=self.include_underground,
        )


@dataclass
class StudyResult:
    """Everything a study run produced."""

    dataset: MeasurementDataset
    world: World  # ground truth, for validation only — analyses not using it
    config: Optional[StudyConfig] = None  # what the study ran with
    #: Figure-2 series.
    active_per_iteration: List[int] = field(default_factory=list)
    cumulative_per_iteration: List[int] = field(default_factory=list)
    #: Table-3 raw material: marketplace -> [(group, method)].
    payment_methods: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    crawl_reports: List[CrawlReport] = field(default_factory=list)
    simulated_seconds: float = 0.0
    #: The telemetry context the run recorded into (no-op when disabled).
    telemetry: Telemetry = field(default_factory=Telemetry.disabled)
    #: The crawl-health watchdog that ran (None when disabled).
    watchdog: Optional[CrawlWatchdog] = None
    #: End-of-run fidelity scorecard (None when disabled).
    scorecard: Optional[Scorecard] = None
    #: The fault injector the run crawled through (None when chaos off).
    fault_injector: Optional[FaultInjector] = None
    #: The storage-plane fault injector (None unless the chaos profile
    #: has disk rates).  The CLI reuses it for the post-run store save,
    #: so a byte budget spans checkpoints *and* the final dataset — one
    #: disk, one budget.
    disk_faults: Optional[DiskFaultInjector] = None
    #: Contract-validation tally (None when contracts disabled).
    contracts: Optional[ValidationReport] = None
    #: The dead-letter store for quarantined records (always present).
    quarantine: Optional[QuarantineStore] = None
    #: Supervised analysis reports (None unless the scorecard path ran).
    analyses: Optional[AnalysisResults] = None
    #: Stages that degraded instead of reporting.
    stage_failures: List[StageFailure] = field(default_factory=list)
    #: Sealed-archive summary (dir, counts, chain hash) when the run
    #: archived its crawl (None otherwise).
    archive: Optional[dict] = None


class LiveNetwork:
    """The synthetic Internet a live study crawls: the sites, the fault
    and disk injectors (``--chaos``) and the archive writer both clients
    capture into (``--archive-dir``).  Replay hands :class:`Study` an
    :class:`~repro.archive.replay.ArchiveNetwork` with the same surface."""

    def __init__(self, config: StudyConfig, telemetry: Telemetry) -> None:
        self._config = config
        self._telemetry = telemetry
        self._internet = Internet()
        self.clock = self._internet.clock
        self._internet.set_telemetry(telemetry)
        # Chaos: interpose the fault injector between client and sites.
        # Sites still register against the real Internet (the injector
        # delegates); only the crawling client sees injected weather.
        # Storage-plane chaos is independent of network chaos: the same
        # profile may carry either or both sets of rates.
        profile = resolve_profile(config.chaos_profile)
        self.fault_injector: Optional[FaultInjector] = None
        self.disk_faults: Optional[DiskFaultInjector] = None
        if profile.active:
            self.fault_injector = FaultInjector(
                self._internet, profile, seed=config.seed, telemetry=telemetry,
            )
        if profile.disk_active:
            self.disk_faults = DiskFaultInjector(
                profile, seed=config.seed, telemetry=telemetry,
            )
        self.archive: Optional[ArchiveWriter] = None
        self._platform_sites: dict = {}
        self._market_sites: dict = {}

    def deploy(self, world: World, rng: RngTree) -> None:
        # Collection runs against the pre-ban state of the platforms;
        # the Section-8 status sweep at the end sees enforcement.
        self._platform_sites = deploy_platforms(
            self._internet, world, enforce_moderation=False
        )
        self._market_sites = deploy_public_marketplaces(self._internet, world)
        if self._config.include_underground:
            deploy_underground(self._internet, world, rng.child("underground"))
        if self._config.archive_dir:
            self.archive = ArchiveWriter(
                self._config.archive_dir, self.clock,
                telemetry=self._telemetry, resume=self._config.resume,
            )

    def client(self, client_id: str, via_tor: bool = False) -> HttpClient:
        delay = 0.0 if via_tor else self._config.per_host_delay_seconds
        return HttpClient(
            self._internet if self.fault_injector is None
            else self.fault_injector,
            ClientConfig(via_tor=via_tor, per_host_delay_seconds=delay),
            client_id=client_id, telemetry=self._telemetry,
            capture=self.archive,
        )

    def begin_iteration(self, iteration: int) -> None:
        set_iteration(self._market_sites, iteration)
        if self.fault_injector is not None:
            self.fault_injector.begin_iteration(iteration)

    def begin_post_collection(self) -> None:
        if self.archive is not None:
            # Everything after the iteration crawl (payments, profiles,
            # sweep, underground) archives into one post-collection index.
            self.archive.begin_phase(POST_COLLECTION_PHASE)
        if self.fault_injector is not None:
            self.fault_injector.begin_iteration(self._config.iterations)

    def begin_sweep(self) -> None:
        enable_moderation(self._platform_sites)

    def expected_counts(self) -> Dict[str, int]:
        return {
            name: len(site.active_listings())
            for name, site in self._market_sites.items()
        }

    def finish(self) -> Optional[dict]:
        """Seal the archive (hash-chain the indexes, write archive.json)
        and return its summary."""
        if self.archive is None:
            return None
        with self._telemetry.tracer.span("archive_seal"), \
                self._telemetry.profiler.phase("archive_seal"):
            return self.archive.summary(self.archive.seal(self._config))


class Study:
    """Builds the world and runs modules 1 and 2 over a network: the live
    synthetic Internet by default, or a sealed archive for replay."""

    def __init__(self, config: Optional[StudyConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 network=None) -> None:
        self.config = config or StudyConfig()
        self._rng = RngTree(self.config.seed, name="study")
        #: What the clients crawl; None builds a :class:`LiveNetwork`
        #: when the run starts.
        self.network = network
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry_enabled:
            self.telemetry = Telemetry()
        else:
            self.telemetry = NULL_TELEMETRY
        # ``profile_enabled`` installs a profiler on the (enabled)
        # telemetry unless the caller already supplied one.
        if (self.config.profile_enabled and self.telemetry.enabled
                and not self.telemetry.profiler.enabled):
            self.telemetry.profiler = StageProfiler(
                stages_expected=STAGE_NAMES
            )

    # -- module 1: collect marketplaces ------------------------------------

    def marketplaces_to_monitor(self) -> List[str]:
        """Triage the channel inventory (Section 3.1 / Table 9)."""
        selected = triage(websites())
        return [c.name for c in selected]

    # -- modules 1+2: run -----------------------------------------------------

    def run(self) -> StudyResult:
        telemetry = self.telemetry
        telemetry.profiler.start()
        try:
            with telemetry.tracer.span(
                "study", seed=self.config.seed, scale=self.config.scale
            ):
                result = self._run_instrumented(telemetry)
        finally:
            telemetry.profiler.finish()
        return result

    def _run_instrumented(self, telemetry: Telemetry) -> StudyResult:
        tracer = telemetry.tracer
        profiler = telemetry.profiler
        network = self.network or LiveNetwork(self.config, telemetry)
        telemetry.set_clock(network.clock)

        with tracer.span("build_world"), profiler.phase("build_world"):
            world = WorldBuilder(self.config.world_config()).build()
        with tracer.span("deploy"), profiler.phase("deploy"):
            network.deploy(world, self._rng)
        # The forums deploy_underground stands up, for either network.
        markets = (
            sorted({p.market for p in world.underground_postings})
            if self.config.include_underground else []
        )

        client = network.client("crawler")
        checkpoint_path: Optional[str] = None
        if self.config.checkpoint_dir:
            checkpoint_path = os.path.join(
                self.config.checkpoint_dir, "crawl_checkpoint.json"
            )
            if not self.config.resume and os.path.exists(checkpoint_path):
                # A fresh (non-resume) run must not silently continue a
                # previous crawl's state.
                os.remove(checkpoint_path)
        # Reset per-host transport state (breakers, retry budget,
        # politeness) at every iteration boundary: iterations are days
        # apart in simulated time, and a resumed run must enter
        # iteration k with the same client state an uninterrupted run
        # would have.
        reset_epochs = network.fault_injector is not None or checkpoint_path

        def advance_iteration(iteration: int) -> None:
            network.begin_iteration(iteration)
            if reset_epochs:
                client.begin_epoch(iteration)

        watchdog: Optional[CrawlWatchdog] = None
        if (telemetry.enabled and self.config.watchdogs_enabled
                and network.expected_counts is not None):
            watchdog = CrawlWatchdog(
                telemetry=telemetry,
                clock=network.clock,
                expected_counts=network.expected_counts,
            )
        crawl = IterationCrawl(
            client=client,
            seed_urls={
                name: f"http://{spec.host}/listings"
                for name, spec in MARKETPLACES.items()
            },
            set_iteration=advance_iteration,
            iterations=self.config.iterations,
            checkpoint_path=checkpoint_path,
            telemetry=telemetry,
            watchdog=watchdog,
            archive=network.archive,
            disk_faults=network.disk_faults,
        )
        with tracer.span("iteration_crawl"), profiler.phase("iteration_crawl"):
            dataset = crawl.run()
        profiler.add_counts(
            "iteration_crawl",
            pages=sum(r.pages_fetched for r in crawl.reports),
            records=len(dataset.listings),
        )
        if watchdog is not None:
            watchdog.finish()

        # Post-crawl stages get their own fault epoch and fresh client
        # state.  Without this, a run resumed from an already-complete
        # checkpoint (which skips the crawl entirely) would enter the
        # payment/profile/underground stages with different RNG-stream
        # offsets than an uninterrupted run — and diverge.
        network.begin_post_collection()
        if reset_epochs:
            client.begin_epoch(self.config.iterations)

        # Payment pages, once per marketplace (Table 3).
        payments: Dict[str, List[Tuple[str, str]]] = {}
        with tracer.span("payment_pages"), profiler.phase("payment_pages"):
            for name, spec in MARKETPLACES.items():
                crawler = MarketplaceCrawler(
                    client, name, f"http://{spec.host}/listings",
                    telemetry=telemetry,
                )
                payments[name] = crawler.collect_payment_methods()
        profiler.add_counts(
            "payment_pages",
            records=sum(len(pairs) for pairs in payments.values()),
        )

        # Profile metadata + timelines for visible accounts, collected
        # while the accounts are still live.
        collector = ProfileCollector(client, telemetry=telemetry)
        with tracer.span("profile_collection"), profiler.phase("profile_collection"):
            profiles, posts = collector.collect(dataset.listings)
        dataset.profiles = profiles
        dataset.posts = posts
        profiler.add_counts(
            "profile_collection",
            records=len(profiles) + len(posts),
        )

        # End-of-study status sweep (Section 8): bans are now visible.
        with tracer.span("status_sweep"), profiler.phase("status_sweep"):
            network.begin_sweep()
            collector.sweep_status(dataset.profiles)
        profiler.add_counts("status_sweep", records=len(dataset.profiles))

        # Underground manual-protocol collection.
        if markets:
            tor_client = network.client("manual-analyst", via_tor=True)
            manual = UndergroundCollector(
                client=tor_client,
                solver=HumanSolver(self._rng.child("solver")),
                telemetry=telemetry,
            )
            with tracer.span("underground_collection"), \
                    profiler.phase("underground_collection"):
                for market in markets:
                    dataset.underground.extend(
                        manual.collect_market(market, onion_host(market))
                    )
            profiler.add_counts(
                "underground_collection", records=len(dataset.underground)
            )
            profiler.add_client("manual-analyst", tor_client.stats)

        # Collection is over (a live run seals its archive here).
        archive_summary = network.finish()

        # Contract boundary: validate everything collection produced
        # before any analysis sees it.  Quarantined records leave the
        # dataset for the dead-letter store.
        quarantine = QuarantineStore(
            telemetry if telemetry.enabled else None,
            strict=self.config.strict_contracts,
        )
        contracts: Optional[ValidationReport] = None
        if self.config.contracts_enabled:
            with tracer.span("contracts"), profiler.phase("contracts"):
                contracts = validate_dataset(
                    dataset, quarantine,
                    telemetry if telemetry.enabled else None,
                )
            if contracts is not None:
                profiler.add_counts(
                    "contracts", records=contracts.checked_total
                )

        profiler.add_client("crawler", client.stats)
        result = StudyResult(
            dataset=dataset,
            world=world,
            config=self.config,
            active_per_iteration=crawl.active_per_iteration,
            cumulative_per_iteration=crawl.cumulative_per_iteration,
            payment_methods=payments,
            crawl_reports=crawl.reports,
            simulated_seconds=network.clock.now(),
            telemetry=telemetry,
            watchdog=watchdog,
            fault_injector=network.fault_injector,
            disk_faults=network.disk_faults,
            contracts=contracts,
            quarantine=quarantine,
            archive=archive_summary,
        )
        if telemetry.enabled and self.config.scorecard_enabled:
            self.analyze(result)
        return result

    def analyze(self, result: StudyResult) -> StudyResult:
        """Fidelity scorecard: run the supervised analysis suite, then
        score the collected dataset against the world's ground truth and
        the paper-shape targets (§quality).  A failed stage degrades its
        scorecard sections instead of killing the run."""
        telemetry = self.telemetry
        tracer = telemetry.tracer
        profiler = telemetry.profiler
        supervisor = StageSupervisor(
            telemetry,
            strict=self.config.strict_contracts,
            fail_stages=self.config.fail_stages,
        )
        with tracer.span("analysis_suite"), profiler.phase("analysis_suite"):
            result.analyses = run_analysis_suite(
                result.dataset, supervisor, telemetry=telemetry,
            )
        result.stage_failures = list(supervisor.failures)
        with tracer.span("scorecard"), profiler.phase("scorecard"):
            result.scorecard = compute_scorecard(
                result, analyses=result.analyses,
            )
        result.scorecard.register_gauges(telemetry.metrics)
        return result


__all__ = ["LiveNetwork", "Study", "StudyConfig", "StudyResult"]

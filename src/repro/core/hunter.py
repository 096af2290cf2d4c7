"""URHunter: the end-to-end measurement pipeline.

Wires the three stages together exactly as §4 describes:

1. :class:`~repro.core.collector.ResponseCollector` gathers URs, correct
   records (open resolvers + passive DNS) and protective fingerprints —
   every collection as isolated per-server groups
   (:mod:`repro.plan.shards`), each on a fresh
   :class:`~repro.engine.batched.BatchedEngine`;
2. :class:`~repro.core.suspicion.SuspicionFilter` excludes correct and
   protective records;
3. :class:`~repro.core.analysis.MaliciousBehaviorAnalyzer` fuses threat
   intel and sandbox IDS evidence into final verdicts.

Run :meth:`URHunter.run` to get a :class:`~repro.core.report.MeasurementReport`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..dns.message import Message, Rcode
from ..dns.name import Name
from ..dns.rdata import A, TXT, RRType
from ..engine import BatchedEngine, EnginePolicy
from ..intel.aggregator import ThreatIntelAggregator
from ..intel.ipinfo import IpInfoDatabase
from ..intel.pdns import PassiveDnsStore
from ..net.network import NetworkError, SimulatedInternet
from ..obs.events import (
    STAGE1 as OBS_STAGE1,
    STAGE2 as OBS_STAGE2,
    STAGE3 as OBS_STAGE3,
    RunTrace,
    run_end_fields,
)
from ..pipeline.checkpoint import config_fingerprint
from ..pipeline.errors import SourceError
from ..pipeline.resilience import SourceHealth, merge_health
from ..plan.scanplan import ScanPlan, build_plan
from ..plan.shards import (
    GroupResult,
    end_group,
    isolated_phase,
    pin_group,
    run_shard_scan,
)
from ..resilience import AimdController, DeadlineBudget
from ..sandbox.ids import Severity
from ..sandbox.sandbox import SandboxReport
from .analysis import MaliciousAnalysisResult, MaliciousBehaviorAnalyzer
from .collector import (
    DEFAULT_QUERY_TYPES,
    CollectionResult,
    DomainTarget,
    NameserverTarget,
    ResponseCollector,
)
from .correctness import (
    ALL_CONDITIONS,
    CorrectRecordDatabase,
    UniformityChecker,
)
from .parallel import Stage2Metrics
from .records import (
    ReportEntries,
    UndelegatedRecord,
    is_unverifiable,
    reasons_of,
)
from .report import DegradedSources, MeasurementReport
from .suspicion import SuspicionFilter, SuspicionOutcome


@dataclass
class Stage1Result:
    """Everything stage 1 (collection) handed to stage 2."""

    collection: CollectionResult
    #: the scan start (the collection's classification epoch) — stage
    #: 2's pdns window and classification clock
    now: float
    #: virtual time when collection finished, ``now`` plus the longer of
    #: the correct collection and the UR scan — where stage 2's §4.2
    #: sample starts
    end: float
    #: degradation notes accumulated during collection
    notes: Tuple[str, ...] = ()


@dataclass
class Stage2Result:
    """Everything stage 2 (exclusion) handed to stage 3."""

    outcome: SuspicionOutcome
    fn_rate: Optional[float] = None
    #: pdns/ipinfo health ledgers from the uniformity checker
    source_health: Dict[str, SourceHealth] = None  # type: ignore[assignment]
    #: Appendix-B conditions skipped per record count
    skipped_conditions: Dict[str, int] = None  # type: ignore[assignment]
    #: performance counters of the main classification pass
    metrics: Optional[Stage2Metrics] = None

    def __post_init__(self) -> None:
        if self.source_health is None:
            self.source_health = {}
        if self.skipped_conditions is None:
            self.skipped_conditions = {}


@dataclass
class Stage3Result:
    """Everything stage 3 (malicious-behaviour analysis) produced."""

    analysis: MaliciousAnalysisResult
    #: per-vendor health ledgers from the intel aggregator
    source_health: Dict[str, SourceHealth] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.source_health is None:
            self.source_health = {}


@runtime_checkable
class WorldLike(Protocol):
    """What :meth:`URHunter.from_world` needs from a scenario world.

    A typed replacement for the old ``world: "object"`` duck typing:
    :mod:`repro.core` still never imports :mod:`repro.scenario`, but the
    contract is now explicit and checkable.
    """

    network: SimulatedInternet
    nameserver_targets: Sequence[NameserverTarget]
    domain_targets: Sequence[DomainTarget]
    delegated_to: Dict[Name, Set[str]]
    open_resolver_ips: Sequence[str]
    ipinfo: IpInfoDatabase
    intel: ThreatIntelAggregator
    pdns: Optional[PassiveDnsStore]
    sandbox_reports: Sequence[SandboxReport]


@dataclass
class HunterConfig:
    """Tunables of the pipeline (defaults follow the paper).

    Values are validated at construction time; a bad knob raises
    :class:`ValueError` immediately instead of failing mid-measurement.
    """

    #: Appendix-B conditions in force (ablation hook)
    enabled_conditions: FrozenSet[str] = ALL_CONDITIONS
    #: minimum IDS severity accepted as evidence (ablation hook)
    min_severity: Severity = Severity.MEDIUM
    #: evidence-source switches (ablation hooks)
    use_intel: bool = True
    use_ids: bool = True
    #: the §4.3 A/TXT co-hosting join (ablation hook)
    use_cohost_join: bool = True
    #: probe domain owned by the measurer, hosted nowhere
    probe_domain: str = "urhunter-probe-owned.net"
    #: source address of the scanner
    scanner_ip: str = "203.0.113.53"
    #: virtual-time spacing between queries to one server (ethics)
    per_server_interval: float = 0.0
    #: RNG seed for query-order randomization
    seed: int = 1
    #: record types to measure (add RRType.MX for the future-work sweep)
    query_types: Tuple[int, ...] = DEFAULT_QUERY_TYPES
    #: expand the target set with subdomains recovered from passive DNS
    #: (the paper's §6 future-work direction)
    expand_pdns_subdomains: bool = False
    #: per-query retry budget after a timeout
    retries: int = 2
    #: virtual seconds a lost query costs before giving up
    timeout: float = 5.0
    #: virtual-seconds budget for the whole run; once exhausted the
    #: engine sheds not-yet-sent queries (0 = unlimited)
    run_deadline: float = 0.0
    #: virtual-seconds budget per pipeline phase (0 = unlimited)
    stage_deadline: float = 0.0
    #: hedging: retry on the server's measured round trip (SRTT + 4
    #: RTTVAR, doubled per expiry, at most ``timeout``) instead of
    #: timeout + backoff; the value is the hedge timer of a server that
    #: has not answered yet and its ceiling afterwards (0 = off)
    hedge_delay: float = 0.0
    #: AIMD adaptive per-server send credit (no-op until the first
    #: failure)
    aimd: bool = False
    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    execution: InitVar[str] = "batch"

    #: every stage-1 group runs in this process, one after another;
    #: ``benchmarks/e2e`` still reads these two for its metrics
    #: document.  Not fields: the constructor rejects them and no
    #: fingerprint sees them
    shards: ClassVar[int] = 1
    shard_workers: ClassVar[int] = 1
    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    stage2_workers: ClassVar[int] = 1
    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    channel_depth: ClassVar[int] = 64

    def __post_init__(self, execution: str) -> None:
        if execution not in ("batch", "stream"):
            raise ValueError(
                f"unknown execution mode {execution!r} "
                "(known: batch, stream)"
            )
        unknown = frozenset(self.enabled_conditions) - ALL_CONDITIONS
        if unknown:
            raise ValueError(
                "unknown Appendix-B condition(s): "
                f"{', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(ALL_CONDITIONS))})"
            )
        if self.per_server_interval < 0:
            raise ValueError(
                "per_server_interval must be >= 0, got "
                f"{self.per_server_interval}"
            )
        if not self.query_types:
            raise ValueError("query_types must name at least one RR type")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.run_deadline < 0:
            raise ValueError(
                f"run_deadline must be >= 0, got {self.run_deadline}"
            )
        if self.stage_deadline < 0:
            raise ValueError(
                f"stage_deadline must be >= 0, got {self.stage_deadline}"
            )
        if self.hedge_delay < 0:
            raise ValueError(
                f"hedge_delay must be >= 0, got {self.hedge_delay}"
            )
        if self.hedge_delay > 0 and self.hedge_delay >= self.timeout:
            raise ValueError(
                f"hedge_delay ({self.hedge_delay}) must be below the "
                f"engine timeout ({self.timeout}) — a hedge that fires "
                "after the timeout is a plain retry"
            )

    def engine_policy(self) -> EnginePolicy:
        """The engine policy implied by this configuration."""
        return EnginePolicy(
            retries=self.retries,
            timeout=self.timeout,
            per_server_interval=self.per_server_interval,
        )


def _stage1_end(collection: CollectionResult) -> Dict[str, object]:
    """stage.end fields for stage 1."""
    return {
        "records": len(collection.undelegated),
        "queries": collection.queries_sent,
        "responses": collection.responses_seen,
        "timeouts": collection.timeouts,
    }


def _stage2_end(
    outcome: SuspicionOutcome,
    metrics: Optional[Stage2Metrics],
    fn_rate: Optional[float],
) -> Dict[str, object]:
    """stage.end fields for stage 2 (deterministic counters only)."""
    fields: Dict[str, object] = {
        "records": len(outcome.classified),
        "suspicious": len(outcome.suspicious),
    }
    if metrics is not None:
        fields["protective"] = metrics.protective_matches
    if fn_rate is not None:
        fields["fn_rate"] = fn_rate
    return fields


def _stage3_end(analysis: MaliciousAnalysisResult) -> Dict[str, object]:
    """stage.end fields for stage 3."""
    return {
        "refined": len(analysis.classified),
        "malicious": len(analysis.malicious),
        "ip_verdicts": len(analysis.ip_verdicts),
        "txt_without_ip": analysis.txt_without_ip,
    }


class URHunter:
    """The measurement framework (paper §4)."""

    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    last_flow_stats = None

    def __init__(
        self,
        network: SimulatedInternet,
        nameservers: Sequence[NameserverTarget],
        domains: Sequence[DomainTarget],
        delegated_to: Dict[Name, Set[str]],
        open_resolver_ips: Sequence[str],
        ipinfo: IpInfoDatabase,
        intel: ThreatIntelAggregator,
        pdns: Optional[PassiveDnsStore] = None,
        sandbox_reports: Sequence[SandboxReport] = (),
        config: Optional[HunterConfig] = None,
    ):
        self.network = network
        self.nameservers = list(nameservers)
        self.domains = list(domains)
        self.delegated_to = delegated_to
        self.open_resolver_ips = list(open_resolver_ips)
        self.ipinfo = ipinfo
        self.intel = intel
        self.pdns = pdns
        self.sandbox_reports = list(sandbox_reports)
        self.config = config or HunterConfig()
        self.engine = BatchedEngine(
            network,
            self.config.scanner_ip,
            policy=self.config.engine_policy(),
        )
        # Every resilience mechanism is a deterministic no-op on a
        # healthy world (clean runs are byte-identical to a config with
        # all of these off).
        if self.config.run_deadline > 0 or self.config.stage_deadline > 0:
            self.engine.budget = DeadlineBudget(
                run_deadline=self.config.run_deadline,
                stage_deadline=self.config.stage_deadline,
            )
        self.engine.hedge_delay = self.config.hedge_delay
        if self.config.aimd:
            self.engine.aimd = AimdController()
        #: the engine's resilience counters
        self.resilience = self.engine.resilience
        self.collector = ResponseCollector(
            self.engine, query_types=self.config.query_types
        )
        #: the stage-1 scan plan of the *configured* targets; a pure
        #: value of (world, config), built before any packet moves —
        #: its hash is the identity checkpoints and traces stamp.
        #: (pdns expansion may grow the executed plan at run time; see
        #: :meth:`_executed_plan`)
        self.plan: ScanPlan = build_plan(
            self.nameservers,
            self.domains,
            self.delegated_to,
            self.open_resolver_ips,
            self.config,
        )
        #: group result store (set by the CLI's ``--result-store``, a
        #: longitudinal study, or — under ``<checkpoint-dir>/groups`` —
        #: by a checkpointing pipeline runner); every executed group is
        #: stored as it folds, and a group whose inputs are unchanged
        #: replays from it instead of re-querying — see
        #: :mod:`repro.incremental`
        self.result_store = None
        # Populated by run(); kept for inspection and tests.
        self.correct_db: Optional[CorrectRecordDatabase] = None
        self.last_filter: Optional[SuspicionFilter] = None
        self.last_checker: Optional[UniformityChecker] = None
        self.last_analyzer: Optional[MaliciousBehaviorAnalyzer] = None
        #: optional IP-metadata source override for stage 2 (fault
        #: injection hook); stage 1 keeps using ``self.ipinfo`` so the
        #: correct-record profiles stay intact
        self.stage2_ipinfo: Optional[IpInfoDatabase] = None
        #: the run-scoped event bus (see repro.obs); stage spans,
        #: collection progress, and degradation transitions are emitted
        #: through it when attached (:meth:`attach_trace`)
        self.trace: Optional[RunTrace] = None

    def attach_trace(self, trace: Optional[RunTrace]) -> None:
        """Wire one event bus through the hunter, engine, and collector."""
        self.trace = trace
        self.engine.trace = trace
        self.collector.trace = trace
        if trace is not None:
            trace.bind_plan(self.plan.plan_hash)
            trace.origin = self.network.now

    def _emit(self, name: str, stage: Optional[str] = None, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(name, stage=stage, **fields)

    def _config_fingerprint(self) -> str:
        return config_fingerprint(
            self.config, extra={"plan": self.plan.plan_hash}
        )

    @classmethod
    def from_world(
        cls, world: WorldLike, config: Optional[HunterConfig] = None
    ) -> "URHunter":
        """Build a hunter from anything satisfying :class:`WorldLike`
        (e.g. :class:`repro.scenario.world.World`)."""
        return cls(
            network=world.network,
            nameservers=world.nameserver_targets,
            domains=world.domain_targets,
            delegated_to=world.delegated_to,
            open_resolver_ips=world.open_resolver_ips,
            ipinfo=world.ipinfo,
            intel=world.intel,
            pdns=world.pdns,
            sandbox_reports=world.sandbox_reports,
            config=config,
        )

    # -- pipeline --------------------------------------------------------

    def _expanded_domains(self, notes: List[str]) -> List[DomainTarget]:
        """The target domains, optionally expanded from passive DNS.

        Expansion is best-effort: a dead pdns source degrades the run to
        the configured targets (noted) instead of aborting.
        """
        domains = list(self.domains)
        if self.config.expand_pdns_subdomains and self.pdns is not None:
            try:
                domains.extend(
                    recover_pdns_subdomains(
                        self.pdns, domains, self.network.now
                    )
                )
            except SourceError as error:
                notes.append(f"pdns-expansion-skipped:{error.source}")
        return domains

    def _executed_plan(self, domains: Sequence[DomainTarget]) -> ScanPlan:
        """The plan stage 1 actually executes.

        Identical to :attr:`plan` unless pdns expansion grew the target
        list at run time — in which case the plan is rebuilt over the
        expanded targets (still a pure function of the expanded world).
        """
        if list(domains) == self.domains:
            return self.plan
        return build_plan(
            self.nameservers,
            domains,
            self.delegated_to,
            self.open_resolver_ips,
            self.config,
        )

    def _plan_built(self, plan: ScanPlan) -> None:
        """Emit the deterministic ``plan.built`` event."""
        counts = plan.unit_counts()
        self._emit(
            "plan.built",
            stage=OBS_STAGE1,
            hash=plan.plan_hash,
            groups=len(plan.groups),
            protective=counts["protective"],
            correct=counts["correct"],
            ur=counts["ur"],
        )

    def stage1_collect(self) -> Stage1Result:
        """Stage 1: the protective probes, then the correct collection
        and the UR scan side by side — each through the plan's group
        runner (:mod:`repro.plan.shards`), one isolated group per server.

        The protective and correct collections are whole-corpus inputs
        to classification, so they run once, eagerly; the UR scan is
        :func:`repro.plan.shards.run_shard_scan`.

        ``now`` is the collection's *classification epoch*, the scan
        start: the run origin plus the protective makespan, where every
        correct and UR group's clock is pinned.  Stage 1 ends at
        ``now + max(makespan(correct), makespan(ur))``, ``end``.  A
        resumed run executes this same method, its stored UR groups
        replaying, so it reaches the same ``now`` and ``end``.
        """
        self._emit(
            "stage.start",
            stage=OBS_STAGE1,
            nameservers=len(self.nameservers),
            domains=len(self.domains),
        )
        notes: List[str] = []
        plan = self._executed_plan(self._expanded_domains(notes))
        self._plan_built(plan)
        correct_db = CorrectRecordDatabase(self.ipinfo)
        preamble = self.collector.collect_preamble(plan, correct_db)
        collection = self.collector.collect_urs(
            lambda: run_shard_scan(
                self, plan, preamble.classification_epoch
            ),
            preamble,
        )
        self.correct_db = correct_db
        self._emit("stage.end", stage=OBS_STAGE1, **_stage1_end(collection))
        return Stage1Result(
            collection=collection,
            now=collection.classification_epoch,
            end=self.network.now,
            notes=tuple(notes),
        )

    def stage2_exclude(
        self, stage1: Stage1Result, validate: bool = True
    ) -> Stage2Result:
        """Stage 2: exclusion of correct and protective records.

        Both classification and the §4.2 false-negative validation use
        ``stage1.now``, the collection's classification epoch, as the
        clock.
        """
        self._emit(
            "stage.start",
            stage=OBS_STAGE2,
            records=len(stage1.collection.undelegated),
        )
        suspicion = self._stage2_filter(stage1.collection.protective)
        outcome = suspicion.classify(
            stage1.collection.undelegated, now=stage1.now
        )
        # snapshot before the FN validation below reruns classify()
        metrics = suspicion.last_metrics
        fn_rate: Optional[float] = None
        if validate:
            fn_rate = suspicion.false_negative_rate(
                self._delegated_records_sample(), now=stage1.now
            )
        self._emit(
            "stage.end",
            stage=OBS_STAGE2,
            **_stage2_end(outcome, metrics, fn_rate),
        )
        return Stage2Result(
            outcome=outcome,
            fn_rate=fn_rate,
            source_health=suspicion.checker.source_health(),
            skipped_conditions=dict(suspicion.checker.skipped_conditions),
            metrics=metrics,
        )

    def _stage2_filter(self, protective) -> SuspicionFilter:
        """Build the stage-2 checker + filter."""
        if self.correct_db is None:
            raise RuntimeError(
                "stage 2 requires correct_db; run stage1_collect first"
            )
        checker = UniformityChecker(
            self.correct_db,
            pdns=self.pdns,
            enabled_conditions=self.config.enabled_conditions,
            ipinfo=self.stage2_ipinfo,
        )
        self.last_checker = checker
        suspicion = SuspicionFilter(checker, protective)
        self.last_filter = suspicion
        if self.trace is not None:
            checker.guard.bind_trace(self.trace, OBS_STAGE2)
        return suspicion

    def stage3_analyze(self, stage2: Stage2Result) -> Stage3Result:
        """Stage 3: malicious behaviour analysis on the suspicious set."""
        self._emit(
            "stage.start",
            stage=OBS_STAGE3,
            suspicious=len(stage2.outcome.suspicious),
        )
        analyzer = MaliciousBehaviorAnalyzer(
            self.intel,
            self.sandbox_reports,
            min_severity=self.config.min_severity,
            use_intel=self.config.use_intel,
            use_ids=self.config.use_ids,
            use_cohost_join=self.config.use_cohost_join,
        )
        self.last_analyzer = analyzer
        if self.trace is not None:
            self.intel.guard.bind_trace(self.trace, OBS_STAGE3)
        analysis = analyzer.analyze(stage2.outcome.suspicious)
        self._emit("stage.end", stage=OBS_STAGE3, **_stage3_end(analysis))
        return Stage3Result(
            analysis=analysis,
            source_health=self.intel.source_health(),
        )

    def build_report(
        self,
        stage1: Stage1Result,
        stage2: Stage2Result,
        stage3: Stage3Result,
    ) -> MeasurementReport:
        """Assemble the final report, including degradation provenance.

        Entry order: the clean (correct and protective) stage-2 entries,
        then the refined stage-3 entries, each in record order — a
        :class:`~repro.core.records.ReportEntries` view over stage 2's
        verdict columns and stage 3's entries.
        """
        classified = ReportEntries(
            stage2.outcome.classified, stage3.analysis.classified
        )
        unverifiable = sum(map(is_unverifiable, reasons_of(classified)))
        # The resilience snapshot only joins the report once a mechanism
        # actually fired — a healthy run renders byte-identically to a
        # run without resilience configured.
        resilience = self.resilience if self.resilience.active else None
        notes = stage1.notes
        if resilience is not None and resilience.shed_total:
            # shed queries degrade coverage: surface them next to the
            # other degradation provenance (drives the degraded-mode
            # exit contract)
            notes = notes + (f"shed-queries:{resilience.shed_total}",)
        degraded = DegradedSources(
            sources=merge_health(
                stage2.source_health, stage3.source_health
            ),
            skipped_conditions=dict(stage2.skipped_conditions),
            unverifiable_urs=unverifiable,
            partial_ip_verdicts=stage3.analysis.partial_ip_verdicts,
            notes=notes,
        )
        collection = stage1.collection
        return MeasurementReport(
            classified=classified,
            ip_verdicts=stage3.analysis.ip_verdicts,
            queries_sent=collection.queries_sent,
            responses_seen=collection.responses_seen,
            timeouts=collection.timeouts,
            txt_without_ip=stage3.analysis.txt_without_ip,
            false_negative_rate=stage2.fn_rate,
            scan_metrics=collection.metrics,
            stage2_metrics=stage2.metrics,
            resilience_metrics=resilience,
            degraded=degraded if degraded.is_degraded else None,
        )

    def run(self, validate: bool = True) -> MeasurementReport:
        """Execute all three stages and build the report.

        With ``validate`` the §4.2 zero-false-negative check also runs
        (delegated records of the target domains through the exclusion
        stage).  For checkpointed, resumable execution wrap the hunter
        in :class:`repro.pipeline.PipelineRunner` instead.
        """
        self._emit("run.start", fingerprint=self._config_fingerprint())
        stage1 = self.stage1_collect()
        stage2 = self.stage2_exclude(stage1, validate=validate)
        stage3 = self.stage3_analyze(stage2)
        report = self.build_report(stage1, stage2, stage3)
        self._emit("run.end", **run_end_fields(report))
        return report

    #: benchmarks/e2e reads this; ROADMAP item 2 deletes it
    run_flow = run

    # -- validation helper --------------------------------------------------

    def _delegated_records_sample(self) -> List[UndelegatedRecord]:
        """§4.2 validation input: the *delegated* records of the targets,
        packaged in UR form so they can ride the same exclusion stage.

        Ad-hoc exchanges, no engine and no retry — but under stage 1's
        isolation rule: the queries aimed at one nameserver form a
        group pinned to the sample's start that ends like any other
        (:func:`~repro.plan.shards.end_group`), and the clock ends at
        ``start + makespan``.  The sample keeps the targets' order.
        """
        network = self.network
        scanner_ip = self.config.scanner_ip
        nameserver_by_ip = {
            target.address: target for target in self.nameservers
        }
        queries = [
            (target.domain, address, qtype)
            for target in self.domains
            for address in self.delegated_to.get(target.domain, ())
            for qtype in (RRType.A, RRType.TXT)
        ]
        by_server: Dict[str, List[int]] = {}
        for position, (_, address, _) in enumerate(queries):
            by_server.setdefault(address, []).append(position)
        answered: Dict[int, List[UndelegatedRecord]] = {}
        start = network.now
        with isolated_phase(self, "sample", start) as finished:
            for group, (address, positions) in enumerate(by_server.items()):
                pin_group(network, start, "sample", address)
                info = nameserver_by_ip.get(address)
                provider = info.provider if info is not None else "unknown"
                for position in positions:
                    domain, _, qtype = queries[position]
                    query = Message.make_query(
                        domain, qtype, recursion_desired=False
                    )
                    try:
                        response = network.query_dns_auto(
                            scanner_ip, address, query
                        )
                    except NetworkError:
                        continue
                    if response.header.rcode != Rcode.NOERROR:
                        continue
                    answered[position] = [
                        UndelegatedRecord(
                            domain=domain,
                            nameserver_ip=address,
                            provider=provider,
                            rrtype=answer.rrtype,
                            rdata_text=(
                                answer.rdata.address
                                if isinstance(answer.rdata, A)
                                else answer.rdata.value
                            ),
                        )
                        for answer in response.answers
                        if isinstance(answer.rdata, (A, TXT))
                    ]
                end_group(network, address)
                # no engine, so no ledger: only the elapsed time merges
                finished.append(
                    GroupResult(group, address, network.now - start)
                )
        return [
            record
            for position in sorted(answered)
            for record in answered[position]
        ]


def recover_pdns_subdomains(
    pdns: PassiveDnsStore,
    targets: Sequence[DomainTarget],
    now: float,
) -> List[DomainTarget]:
    """Recover legitimate subdomains of the targets from passive DNS.

    The paper's future work: "we can recover legitimate subdomains from
    PDNS data and measure whether they appear in URs."  Any historically
    observed name strictly under a target domain joins the sweep with its
    parent's rank.
    """
    known = {target.domain for target in targets}
    rank_of = {target.domain: target.rank for target in targets}
    recovered: List[DomainTarget] = []
    for observed in pdns.domains():
        if observed in known:
            continue
        parent = next(
            (
                target.domain
                for target in targets
                if observed.is_proper_subdomain_of(target.domain)
            ),
            None,
        )
        if parent is None:
            continue
        recovered.append(
            DomainTarget(domain=observed, rank=rank_of[parent])
        )
        known.add(observed)
    recovered.sort(key=lambda target: (target.rank, target.domain))
    return recovered

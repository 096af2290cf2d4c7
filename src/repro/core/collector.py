"""Stage 1 — response collection (§4.1).

Three collections feed the pipeline:

1. **Undelegated records** — every (target nameserver × target domain)
   pair is queried for A and TXT, skipping domains *exactly delegated* to
   that nameserver; NOERROR answers become candidate URs.
2. **Correct records** — the same domains resolved through worldwide open
   resolvers, plus six years of passive DNS, build the per-domain
   correct-record profiles.
3. **Protective records** — a probe domain owned by the measurer (hosted
   nowhere) is queried at every target nameserver; whatever comes back is
   that server's protective-record fingerprint.

The collector only *interprets* responses.  The query matrix — which
queries, in which randomized (ethics, Appendix A) order — is a
:class:`~repro.plan.scanplan.ScanPlan` every collection takes as input;
per-server pacing, retries, and failure accounting belong to the
:class:`~repro.engine.batched.BatchedEngine` (see :mod:`repro.engine`); and
every collection is executed by the plan's group runner
(:mod:`repro.plan.shards`) as isolated per-server groups — the
protective and correct collections through
:func:`~repro.plan.shards.run_collection_groups`, the UR scan through
:func:`~repro.plan.shards.run_shard_scan`, which the hunter hands to
:meth:`ResponseCollector.collect_urs`.  The collector's own engine
sends nothing: it is the ledger the groups merge into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dns.message import Message, Rcode
from ..dns.name import Name
from ..dns.rdata import A, MX, TXT, RRType
from ..engine import BatchedEngine, EnginePolicy, QueryOutcome, ScanMetrics
from ..net.network import SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from ..pipeline.errors import StageFailed
from ..plan.scanplan import ScanPlan
from ..plan.shards import ScanFold, run_collection_groups
from .correctness import CorrectRecordDatabase
from .records import UndelegatedRecord, URTable


class CollectionFailure(StageFailed):
    """Stage-1 collection died mid-flight.

    The engine's partial :class:`~repro.engine.metrics.ScanMetrics` ride
    along so a checkpointing caller can preserve the retry/timeout
    accounting of the attempts that *did* happen before the crash —
    without this, a failed collection silently discarded everything the
    scan had already measured.
    """

    def __init__(
        self,
        collection: str,
        cause: BaseException,
        metrics: Optional[ScanMetrics],
    ):
        super().__init__(f"stage1-collect/{collection}", cause)
        #: which of the three collections broke ("protective"/"correct"/"ur")
        self.collection = collection
        #: partial engine accounting up to the failure (may be None)
        self.metrics = metrics


@dataclass(frozen=True)
class NameserverTarget:
    """One nameserver to be measured."""

    address: str
    provider: str
    hostname: Optional[Name] = None


@dataclass(frozen=True)
class DomainTarget:
    """One domain to be measured, with its top-list rank."""

    domain: Name
    rank: int


@dataclass(slots=True)
class ProtectiveFingerprint:
    """The protective records a nameserver serves for unhosted domains.

    Keyed per nameserver; matching is on (rrtype, rdata) because providers
    synthesize the same data for every unhosted name.
    """

    nameserver_ip: str
    records: Set[Tuple[int, str]] = field(default_factory=set)

    def matches(self, rrtype: int, rdata_text: str) -> bool:
        return (rrtype, rdata_text) in self.records


@dataclass
class CollectionResult:
    """Everything stage 1 produced.

    Returned by :meth:`ResponseCollector.collect_urs`: the unique URs
    (a :class:`~repro.core.records.URTable`) and wire counters of the
    scan, with the preamble's protective fingerprints and
    correct-record database and the engine's scan metrics folded in.
    """

    undelegated: Sequence[UndelegatedRecord] = field(default_factory=URTable)
    correct_db: Optional[CorrectRecordDatabase] = None
    protective: Dict[str, ProtectiveFingerprint] = field(
        default_factory=dict
    )
    responses_seen: int = 0
    queries_sent: int = 0
    timeouts: int = 0
    #: successful responses folded into ``correct_db`` by the preamble
    correct_successes: int = 0
    #: engine observability for the whole collection run
    metrics: Optional[ScanMetrics] = None
    #: the scan start — virtual time after the protective probes, where
    #: the correct collection and the UR scan are both pinned — and
    #: stage 2's classification clock (the clock cannot depend on when
    #: the scan *ends*)
    classification_epoch: float = 0.0


@dataclass
class CollectionPreamble:
    """Stage 1's eager prefix: everything the UR scan does not produce.

    Protective fingerprints and correct-record profiles are whole-corpus
    inputs to classification, so they are collected up front; the UR
    scan then completes the :class:`CollectionResult` via
    :meth:`fold_into`.
    """

    protective: Dict[str, ProtectiveFingerprint]
    correct_db: CorrectRecordDatabase
    correct_successes: int
    #: the scan start (after the protective probes) — the classification
    #: clock
    classification_epoch: float

    def fold_into(self, result: CollectionResult) -> CollectionResult:
        result.protective = self.protective
        result.correct_db = self.correct_db
        result.correct_successes = self.correct_successes
        result.classification_epoch = self.classification_epoch
        return result


#: the record types the paper measures; MX is the §6 future-work
#: extension ("our methodology is also adaptive for ... other types of
#: records (e.g., MX records)") and can be enabled via ``query_types``.
DEFAULT_QUERY_TYPES = (RRType.A, RRType.TXT)


class ResponseCollector:
    """Drives a scan plan's collections and interprets the responses."""

    def __init__(
        self,
        network: SimulatedInternet,
        scanner_ip: str = "203.0.113.53",
        per_server_interval: float = 0.0,
        query_types: Sequence[int] = DEFAULT_QUERY_TYPES,
        engine: Optional[BatchedEngine] = None,
    ):
        self.network = network
        self.scanner_ip = scanner_ip
        #: seconds of virtual time between queries to the same server
        #: (the paper averaged one query per server per 130 s)
        self.per_server_interval = per_server_interval
        self.query_types = tuple(query_types)
        if engine is None:
            engine = BatchedEngine(
                network,
                scanner_ip,
                policy=EnginePolicy(per_server_interval=per_server_interval),
            )
        self.engine = engine
        network.register_stub(scanner_ip)
        #: optional repro.obs.RunTrace — each completed collection phase
        #: is emitted as a deterministic ``collect.phase`` event
        self.trace = None

    def emit_phase(self, phase: str) -> None:
        """Emit the completion event of one collection phase.

        Emitted *here* (not by the hunter after the fact) so breaker
        trips raised mid-phase land before their phase marker.  The
        counters come from the engine's per-phase ledger, once the
        phase's groups have been merged into it.
        """
        if self.trace is None:
            return
        fields = {}
        counters = self.engine.metrics.stages.get(phase)
        if counters is not None:
            fields = {
                "queries": counters.queries,
                "responses": counters.responses,
                "timeouts": counters.timeouts,
                "retries": counters.retries,
                "giveups": counters.giveups,
                "skipped": counters.skipped,
            }
        self.trace.emit(
            "collect.phase", stage=OBS_STAGE1, phase=phase, **fields
        )

    # -- the eager prefix ---------------------------------------------------

    def collect_preamble(
        self, plan: ScanPlan, correct_db: CorrectRecordDatabase
    ) -> "CollectionPreamble":
        """The prefix of stage 1: protective + correct collections, in
        the paper's §4.1 order.

        Protective fingerprints and correct-record profiles must be
        complete before the first UR can be classified.  Resets the
        engine metrics, so the UR scan that follows accumulates into
        the same ledger.  The protective probes end at the *scan start*
        ``origin + makespan(protective)`` — the classification epoch —
        and the correct collection starts there; the UR scan is pinned
        to it too, side by side with the correct collection (open
        resolvers and target nameservers are disjoint servers).
        """
        self.engine.metrics = ScanMetrics()
        protective = self._guarded(
            "protective", self.collect_protective_records, plan
        )
        self.emit_phase("protective")
        scan_start = self.network.now
        successes = self._guarded(
            "correct", self.collect_correct_records, plan, correct_db
        )
        self.emit_phase("correct")
        return CollectionPreamble(
            protective=protective,
            correct_db=correct_db,
            correct_successes=successes,
            classification_epoch=scan_start,
        )

    def _guarded(self, collection: str, fn, *args):
        """Run one collection; on failure, attach the partial metrics.

        Retry/timeout counts accumulated before the crash would
        otherwise vanish with the exception; :class:`CollectionFailure`
        carries them so checkpoints preserve the accounting.
        """
        try:
            return fn(*args)
        except CollectionFailure:
            raise
        except Exception as error:
            raise CollectionFailure(
                collection, error, self.engine.metrics
            ) from error

    # -- undelegated records ----------------------------------------------

    def collect_urs(
        self, scan: Callable[[], ScanFold], preamble: CollectionPreamble
    ) -> CollectionResult:
        """The UR phase: every nameserver queried for every domain not
        exactly delegated to it, completing the stage-1 result.

        ``scan`` is the plan's group runner bound to its run
        (:func:`repro.plan.shards.run_shard_scan`); it merges the
        groups' accounting into this collector's engine ledger, so a
        scan that dies mid-group raises :class:`CollectionFailure`
        carrying the ledger up to the last completed group.
        """
        fold = self._guarded("ur", scan)
        self.emit_phase("ur")
        result = CollectionResult(
            undelegated=fold.records(),
            queries_sent=fold.attempts,
            responses_seen=fold.responses,
            # every sent attempt either produced the answer or timed out
            timeouts=fold.attempts - fold.responses,
            metrics=self.engine.metrics,
        )
        return preamble.fold_into(result)

    def urs_from_outcome(
        self, outcome: QueryOutcome
    ) -> List[UndelegatedRecord]:
        """Candidate URs of one outcome (empty unless NOERROR answered)."""
        response = outcome.response
        if response is None:
            return []
        if response.header.rcode != Rcode.NOERROR:
            return []
        nameserver = outcome.task.tag
        assert isinstance(nameserver, NameserverTarget)
        return self._extract_urs(nameserver, outcome.task.qname, response)

    def _extract_urs(
        self,
        nameserver: NameserverTarget,
        domain: Name,
        response: Message,
    ) -> List[UndelegatedRecord]:
        records: List[UndelegatedRecord] = []
        for answer in response.answers:
            if answer.rrtype not in self.query_types:
                continue
            records.append(
                UndelegatedRecord(
                    domain=domain,
                    nameserver_ip=nameserver.address,
                    provider=nameserver.provider,
                    rrtype=answer.rrtype,
                    rdata_text=(
                        answer.rdata.address
                        if isinstance(answer.rdata, A)
                        else answer.rdata.value
                        if isinstance(answer.rdata, TXT)
                        else answer.rdata.to_text()
                    ),
                    nameserver_name=nameserver.hostname,
                    ttl=answer.ttl,
                )
            )
        return records

    # -- correct records -----------------------------------------------------

    def collect_correct_records(
        self, plan: ScanPlan, correct_db: CorrectRecordDatabase
    ) -> int:
        """Resolve each domain's A and TXT through every open resolver.

        Returns the number of successful responses folded into the
        database.  Manipulated resolvers contribute noise — exactly the
        imperfection the paper's vantage-point selection tolerates.
        """
        successes = 0

        # folded as each outcome completes: the profile is a union of
        # sets, so completion order cannot show
        def fold(outcome: QueryOutcome) -> None:
            nonlocal successes
            response = outcome.response
            if response is None:
                return
            if response.header.rcode != Rcode.NOERROR:
                return
            successes += 1
            domain = outcome.task.qname
            for answer in response.answers:
                if isinstance(answer.rdata, A):
                    correct_db.observe_a(domain, answer.rdata.address)
                elif isinstance(answer.rdata, TXT):
                    correct_db.observe_txt(domain, answer.rdata.value)
                elif isinstance(answer.rdata, MX):
                    correct_db.observe_mx(domain, answer.rdata.to_text())

        run_collection_groups(self, plan, "correct", fold)
        return successes

    # -- protective records ------------------------------------------------------

    def collect_protective_records(
        self, plan: ScanPlan
    ) -> Dict[str, ProtectiveFingerprint]:
        """Learn each nameserver's protective-record fingerprint.

        The plan's probe domain is ours and hosted nowhere, so any
        answer a server gives for it is synthesized protective data.
        """
        fingerprints: Dict[str, ProtectiveFingerprint] = {
            address: ProtectiveFingerprint(nameserver_ip=address)
            for address in plan.protective_units.servers
        }

        def fold(outcome: QueryOutcome) -> None:
            response = outcome.response
            if response is None:
                return
            if response.header.rcode != Rcode.NOERROR:
                return
            fingerprint = fingerprints[outcome.task.server_ip]
            for answer in response.answers:
                if isinstance(answer.rdata, A):
                    fingerprint.records.add(
                        (RRType.A, answer.rdata.address)
                    )
                elif isinstance(answer.rdata, TXT):
                    fingerprint.records.add(
                        (RRType.TXT, answer.rdata.value)
                    )

        run_collection_groups(self, plan, "protective", fold)
        return fingerprints


def select_target_nameservers(
    hosting_counts: Dict[str, int],
    nameserver_info: Dict[str, Tuple[str, Optional[Name]]],
    min_hosted: int = 50,
) -> List[NameserverTarget]:
    """§4.1's nameserver selection: servers hosting > ``min_hosted`` of the
    top list.

    ``hosting_counts`` maps nameserver address → number of top-list
    domains delegated to it; ``nameserver_info`` maps address →
    (provider, hostname).
    """
    selected = []
    for address, count in sorted(hosting_counts.items()):
        if count < min_hosted:
            continue
        provider, hostname = nameserver_info.get(address, ("unknown", None))
        selected.append(
            NameserverTarget(
                address=address, provider=provider, hostname=hostname
            )
        )
    return selected

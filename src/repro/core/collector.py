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

The collector *interprets* responses and keeps stage 1's ledger.  The
query matrix — which queries, in which randomized (ethics, Appendix A)
order — is a :class:`~repro.plan.scanplan.ScanPlan` every collection
takes as input; per-server pacing, retries, and failure accounting
belong to the :class:`~repro.engine.batched.BatchedEngine` (see
:mod:`repro.engine`); and every collection is executed as isolated
per-server groups by :func:`~repro.plan.shards.run_group`, each on a
fresh one-lane engine built from the run's
:class:`~repro.core.hunter.HunterConfig` — the protective and correct
collections through :meth:`ResponseCollector.run_phase`, the UR scan
through :func:`~repro.plan.shards.run_shard_scan`, which the hunter
hands to :meth:`ResponseCollector.collect_urs`.  The collector itself
sends nothing: its ``metrics`` are the one ledger the groups merge
into, wire and resilience counters alike, and its ``origin`` is where
the run deadline is measured from.  A fold reads what it needs of a
unit — its qname, its server — from the plan by its unit
index; the UR reduce reads the unit's :class:`NameserverTarget` off
the targets the hunter binds with its plan (``ur_targets``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..dns.message import Message, Rcode
from ..dns.name import Name
from ..dns.rdata import A, MX, TXT, RRType
from ..engine import QueryOutcome, ScanMetrics
from ..net.network import SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from ..pipeline.errors import StageFailed
from ..plan.scanplan import NameserverGroup, ScanPlan, UnitColumns
from ..plan.shards import (
    GroupResult,
    ReducedOutcome,
    ScanFold,
    isolated_phase,
    run_group,
)
from .correctness import CorrectRecordDatabase
from .records import UndelegatedRecord, URTable


class CollectionFailure(StageFailed):
    """Stage-1 collection died mid-flight.

    Its stage names the collection that broke
    (``stage1-collect/<collection>``), the name a checkpoint's failure
    record keeps; the collector's ledger holds the accounting of the
    groups that completed before the crash.
    """

    def __init__(self, collection: str, cause: BaseException):
        super().__init__(f"stage1-collect/{collection}", cause)
        #: which of the three collections broke ("protective"/"correct"/"ur")
        self.collection = collection


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


#: the record types the paper measures; MX is the §6 future-work
#: extension ("our methodology is also adaptive for ... other types of
#: records (e.g., MX records)") and can be enabled via ``query_types``.
DEFAULT_QUERY_TYPES = (RRType.A, RRType.TXT)


class ResponseCollector:
    """Drives a scan plan's collections, interprets the responses and
    keeps stage 1's ledger."""

    def __init__(self, network: SimulatedInternet, config):
        self.network = network
        #: the run's HunterConfig: every group engine's policy and
        #: controllers, and the record types to measure
        self.config = config
        self.query_types = tuple(config.query_types)
        network.register_stub(config.scanner_ip)
        #: the ledger every group merges into; each run starts a new one
        self.metrics = ScanMetrics()
        #: the clock where the current run's stage 1 began: every
        #: group budget measures the run deadline from it
        self.origin = network.now
        #: optional repro.obs.RunTrace — each completed collection phase
        #: is emitted as a deterministic ``collect.phase`` event
        self.trace = None
        #: the plan's UR units and the target of each of their server
        #: rows (``build_plan`` keeps the targets' order), bound by the
        #: hunter with its plan: :meth:`reduce_ur` reads them
        self.ur_units: Optional[UnitColumns] = None
        self.ur_targets: Tuple[NameserverTarget, ...] = ()

    def emit_phase(self, phase: str) -> None:
        """Emit the completion event of one collection phase.

        Emitted *here* (not by the hunter after the fact) so breaker
        trips raised mid-phase land before their phase marker.  The
        counters come from the per-phase ledger, once the phase's
        groups have been merged into it.
        """
        if self.trace is None:
            return
        fields = {}
        counters = self.metrics.stages.get(phase)
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
        self,
        plan: ScanPlan,
        correct_db: CorrectRecordDatabase,
        origin: float,
    ) -> Tuple[Dict[str, ProtectiveFingerprint], float]:
        """The prefix of stage 1: protective + correct collections, in
        the paper's §4.1 order; returns the protective fingerprints and
        the *scan start*, and fills ``correct_db``.

        Protective fingerprints and correct-record profiles must be
        complete before the first UR can be classified.  Starts the
        run's ledger — a new one, so the UR scan that follows
        accumulates into it and an earlier run's report keeps its
        own — and fixes the run ``origin``, the clock where this run's
        stage 1 began.  The protective probes end at the scan start
        ``origin + makespan(protective)`` — stage 2's classification
        clock — and the correct collection starts there; the UR scan is
        pinned to it too, side by side with the correct collection
        (open resolvers and target nameservers are disjoint servers).
        """
        self.metrics = ScanMetrics()
        self.origin = origin
        protective = self._guarded(
            "protective", self.collect_protective_records, plan
        )
        self.emit_phase("protective")
        scan_start = self.network.now
        self._guarded(
            "correct", self.collect_correct_records, plan, correct_db
        )
        self.emit_phase("correct")
        return protective, scan_start

    def _guarded(self, collection: str, fn, *args):
        """Run one collection; a failure is raised as a
        :class:`CollectionFailure` naming it."""
        try:
            return fn(*args)
        except CollectionFailure:
            raise
        except Exception as error:
            raise CollectionFailure(collection, error) from error

    def run_phase(
        self,
        plan: ScanPlan,
        collection: str,
        fold: Callable[[int, QueryOutcome], None],
    ) -> List[GroupResult]:
        """Execute a preamble collection (``"protective"``/``"correct"``)
        as one isolated group per server, in server-table order; returns
        the groups' results, merged into the ledger.

        The groups are the lanes of the collection's servers (unit
        indices only, :meth:`~repro.plan.scanplan.UnitColumns.lanes`).
        ``fold`` takes each outcome, with its unit index, as it
        completes.  The phase starts at the clock and ends
        at ``start + makespan`` (:func:`~repro.plan.shards.isolated_phase`):
        the correct collection starts where the protective probes ended,
        the scan start the UR scan is pinned to as well.
        """
        start = self.network.now
        origin = self.origin
        lanes = plan.units(collection).lanes().items()
        with isolated_phase(self, collection, start) as finished:
            for index, (server_ip, lane) in enumerate(lanes):
                group = NameserverGroup(index, server_ip, lane)
                finished.append(
                    run_group(
                        self, plan, collection, group, start, origin, fold
                    )
                )
        return finished

    # -- undelegated records ----------------------------------------------

    def collect_urs(self, scan: Callable[[], ScanFold]) -> URTable:
        """The UR phase: every nameserver queried for every domain not
        exactly delegated to it; returns the unique URs in scan order.

        ``scan`` is the plan's group runner bound to its run
        (:func:`repro.plan.shards.run_shard_scan`); it merges the
        groups' accounting into this collector's ledger — the only
        count of the scan's queries, responses and timeouts — so a
        scan that dies mid-group raises :class:`CollectionFailure` with
        the ledger holding every completed group.
        """
        fold = self._guarded("ur", scan)
        self.emit_phase("ur")
        return fold.records()

    def reduce_ur(
        self, index: int, outcome: QueryOutcome
    ) -> Optional[ReducedOutcome]:
        """One UR outcome reduced to its unit index and candidate URs,
        so its response message can be dropped — or ``None`` when it
        carried no UR (no NOERROR answer in a measured type): the
        group's ledger already counted what it did on the wire.  The
        unit's qname and nameserver are read off ``ur_units`` and
        ``ur_targets``."""
        response = outcome.response
        if response is None or response.header.rcode != Rcode.NOERROR:
            return None
        units = self.ur_units
        server, qname, _ = units.row(index)
        urs = self.extract_urs(
            self.ur_targets[server], units.qnames[qname], response
        )
        return ReducedOutcome(index, tuple(urs)) if urs else None

    def extract_urs(
        self,
        nameserver: NameserverTarget,
        domain: Name,
        response: Message,
    ) -> List[UndelegatedRecord]:
        """The answers of ``response`` in the measured record types, as
        records ``nameserver`` served for ``domain``."""
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
    ) -> None:
        """Resolve each domain's A and TXT through every open resolver,
        folding the answers into ``correct_db``.

        Manipulated resolvers contribute noise — exactly the
        imperfection the paper's vantage-point selection tolerates.
        """

        units = plan.correct_units

        # folded as each outcome completes: the profile is a union of
        # sets, so completion order cannot show
        def fold(index: int, outcome: QueryOutcome) -> None:
            response = outcome.response
            if response is None:
                return
            if response.header.rcode != Rcode.NOERROR:
                return
            domain = units.qname(index)
            for answer in response.answers:
                if isinstance(answer.rdata, A):
                    correct_db.observe_a(domain, answer.rdata.address)
                elif isinstance(answer.rdata, TXT):
                    correct_db.observe_txt(domain, answer.rdata.value)
                elif isinstance(answer.rdata, MX):
                    correct_db.observe_mx(domain, answer.rdata.to_text())

        self.run_phase(plan, "correct", fold)

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

        units = plan.protective_units
        servers = units.servers

        def fold(index: int, outcome: QueryOutcome) -> None:
            response = outcome.response
            if response is None:
                return
            if response.header.rcode != Rcode.NOERROR:
                return
            records = fingerprints[servers[units.row(index)[0]]].records
            for answer in response.answers:
                if isinstance(answer.rdata, A):
                    records.add((RRType.A, answer.rdata.address))
                elif isinstance(answer.rdata, TXT):
                    records.add((RRType.TXT, answer.rdata.value))

        self.run_phase(plan, "protective", fold)
        return fingerprints

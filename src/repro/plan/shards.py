"""The stage-1 executor: every collection as per-server groups, in isolation.

Every stage-1 query — the protective and correct collections, the UR
scan (:func:`run_shard_scan`) and the §4.2 delegated sample — runs in a
*group*: the queries aimed at one server, which never wait on any other
server's.  One function executes a group of any phase,
:func:`run_group`: pin, build the group's engine, drive the server's
lane, end the group; the caller passes the fold (the preamble's
fingerprint and profile folds, the UR scan's reduction).  All groups
run in this process, one after another; the virtual clock models them
as parallel.  The guarantees rest on one invariant: **a group's
outcome is a pure function of the static world, the run origin, the
phase start, and the config** — never of what ran before it
(:func:`isolated_phase`, :func:`pin_group`):

* **one clock rule** — the virtual clock is pinned to the phase start
  before each group, and the parent clock ends the phase at
  ``start + makespan`` (the longest group: a perfectly parallel
  phase), or where it already stood if that is later — a phase never
  moves time backwards.  The protective probes run first; the correct
  collection and the UR scan query disjoint servers (open resolvers,
  target nameservers) and both start at the *scan start*
  ``S = origin + makespan(protective)``, the classification epoch, so
  stage 1 ends at ``S + max(makespan(correct), makespan(ur))``;
* **one fault-RNG rule** — the network fault RNG is reseeded per group
  from a stable hash of ``(fault seed, phase, server address)``, so a
  server's groups in different phases draw independent faults (the
  parent RNG state is saved and restored around the phase);
* **one cache-lifetime rule** — no resolver cache entry (answer or
  zone cut) survives a clock pin: ``set_clock`` bumps the network's
  clock generation and every resolver — the open resolvers and the
  recursive nameservers' shared fallback — drops its caches on its
  next lookup.  And every executed group — protective, correct, UR or
  §4.2 sample — ends with :func:`end_group`: the server it queried
  drops its caches at once (a resolver's answers and cuts, an
  authoritative server's compiled answers), since its next question
  may never come.  Every group of every phase starts cold, so the
  groups behind one shared resolver all pay the same, in any order;
* every group gets a fresh one-lane engine — pacing bucket, breaker,
  round-trip estimator and AIMD credit — and a deadline budget whose
  run deadline is measured from the *run origin*, the clock where the
  run's stage 1 began (the protective probes count against it; no
  group is granted the whole budget again) — stage deadlines anchor at
  the group's first query, as in any phase.

The ledger is the hunter's collector: the one
:class:`~repro.engine.metrics.ScanMetrics` the groups merge into (wire
and resilience counters alike) and the run origin.  A group's engine
is handed its query messages one planned row at a time
(:func:`lane_queries`), each from the network's one memo.  A group is
folded the moment it is in hand (the UR scan's :class:`ScanFold`: the
URs appended to one UR table, deduped per group; the preamble's folds,
outcome by outcome); its small ledger
— one ``ScanMetrics``, the engine's deterministic events, elapsed time
— waits for the merge in group order.  The merged ledger is the only
count of what stage 1 sent and heard: a UR outcome is kept only if it
carried URs, and then only as its index and its URs.  Only UR groups
are stored; their results are JSON-encoded only
at the persistence boundary (a result-store slot), and a stored slot
is read and decoded into the same fold only when its group's turn
comes.  The invariant is also the result store's key: :func:`repro.incremental.store.group_state`
spells out each input, so a stored group — from an earlier run, or
from the run a ``--resume`` continues — replays whenever they all
match.
"""

from __future__ import annotations

import os
import random
import signal
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..digest import sha256
from ..dns.message import Message
from ..dns.name import name
from ..engine import (
    BatchedEngine,
    LatencyHistogram,
    ScanMetrics,
    StageCounters,
)
from ..obs.events import _json_safe
from ..resilience import AimdController, DeadlineBudget
from .scanplan import NameserverGroup, ScanPlan, UnitColumns

__all__ = [
    "CRASH_GROUP_ENV",
    "ReducedOutcome",
    "ScanFold",
    "GroupResult",
    "pin_group",
    "end_group",
    "isolated_phase",
    "lane_queries",
    "run_group",
    "encode_record",
    "decode_record",
    "encode_metrics",
    "decode_metrics",
    "encode_group_result",
    "decode_group_result",
    "run_shard_scan",
]

#: set to a UR group index to SIGTERM the run right after that group is
#: folded and stored (kill-and-resume tests)
CRASH_GROUP_ENV = "URHUNTER_CRASH_GROUP"


@dataclass(frozen=True, slots=True)
class ReducedOutcome:
    """One UR query outcome that carried URs, reduced to them.

    ``index`` is the unit's position in :attr:`ScanPlan.ur_units` (the
    global scan order), so sorting reduced outcomes by it restores the
    planned record order whatever order the groups ran in.  An outcome
    without a UR is not kept: what it did on the wire is in the group's
    ledger.
    """

    index: int
    urs: Tuple[Any, ...]


class ScanFold:
    """The UR scan's running fold over completed groups, in any order:
    each group's unique URs are appended to one
    :class:`~repro.core.records.URTable` as they are folded, with the
    planned index of the outcome that carried them."""

    __slots__ = ("_table", "_indices")

    def __init__(self) -> None:
        # inside: repro.core imports this module
        from ..core.records import URTable

        self._table = URTable()
        self._indices = array("I")

    def add(self, outcomes: Iterable[ReducedOutcome]) -> None:
        """Fold one group's outcomes, which arrive in ``index`` order.

        A record whose unique-UR key the group already produced is
        dropped.  The key carries the server address, and a group is
        one server's, so no key spans two groups: the group's first
        occurrences are the scan's.
        """
        seen = set()
        table = self._table
        indices = self._indices
        for outcome in outcomes:
            for record in outcome.urs:
                key = record.key
                if key not in seen:
                    seen.add(key)
                    table.append(record)
                    indices.append(outcome.index)

    def records(self) -> Any:
        """Every unique UR in planned scan order, as a sealed
        :class:`~repro.core.records.URTable` (the sort is stable: one
        outcome's records keep their answer order)."""
        indices = self._indices
        return self._table.take(
            sorted(range(len(indices)), key=indices.__getitem__)
        )


@dataclass
class GroupResult:
    """Everything one isolated server-group execution produced: how
    long it took, and — for a group driven by an engine — its UR
    outcomes that carried URs, the engine's ledger and its events
    (empty by default)."""

    group: int
    server_ip: str
    elapsed: float
    outcomes: List[ReducedOutcome] = field(default_factory=list)
    metrics: Any = field(default_factory=ScanMetrics)
    #: the engine's deterministic events as (name, stage, fields)
    events: List[Tuple[str, Optional[str], Dict[str, Any]]] = field(
        default_factory=list
    )


def group_fault_seed(
    base_seed: int, server_ip: str, phase: str = "ur"
) -> int:
    """Stable per-group fault-RNG seed — independent of run order.

    The phase is part of the seed, so a server's groups in different
    phases draw independent faults; the UR seed keeps its pre-phase
    spelling, salt included (stored UR groups replay under it).
    """
    salt = "" if phase == "ur" else f"{phase}:"
    digest = sha256(
        f"urhunter-shard-group:{base_seed}:{salt}{server_ip}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def pin_group(network, start: float, phase: str, server_ip: str) -> None:
    """Start one group: the clock at the phase start (which empties
    every resolver cache on the network), the fault RNG reseeded from
    ``(fault seed, phase, server address)``."""
    network.set_clock(start)
    network._fault_rng = random.Random(
        group_fault_seed(network.fault_seed, server_ip, phase)
    )


@contextmanager
def isolated_phase(
    ledger, phase: str, start: float
) -> Iterator[List[GroupResult]]:
    """One stage-1 phase of isolated groups, from ``start``.

    ``ledger`` is the stage-1 ledger — the hunter's collector — and
    owns the ``network``, the ``metrics`` the groups merge into, and
    the ``trace``.  The body pins each group
    (:func:`pin_group`) and appends every group it has in hand to the
    yielded list.  On the way out — also when a group raised, so a
    failure report carries the phase up to that point — the parent
    fault RNG is restored (whatever runs next sees an RNG the groups
    did not draw from), the ledger and trace absorb the groups in
    ``group`` order, the parent clock ends at ``start + makespan`` or
    at the clock found on entry, whichever is later (a phase that
    started side by side with an earlier, longer one leaves that one's
    end in place), and one ``phase.makespan`` timing event places the
    phase on the run's clock — its ``start`` from the trace's run
    origin — and says which server set its length.
    """
    network = ledger.network
    entered = network.now
    rng_state = network._fault_rng.getstate()
    finished: List[GroupResult] = []
    try:
        yield finished
    finally:
        restored = random.Random()
        restored.setstate(rng_state)
        network._fault_rng = restored
        trace = ledger.trace
        makespan, critical = 0.0, None
        finished.sort(key=attrgetter("group"))
        for result in finished:
            if trace is not None:
                for event, stage, fields in result.events:
                    trace.emit(event, stage=stage, **fields)
            ledger.metrics.merge(result.metrics)
            if critical is None or result.elapsed > makespan:
                makespan, critical = result.elapsed, result.server_ip
        network.set_clock(max(start + makespan, entered))
        if trace is not None:
            trace.emit_timing(
                "phase.makespan",
                phase=phase,
                start=start - trace.origin,
                groups=len(finished),
                makespan=makespan,
                critical_server=critical,
            )


def end_group(network, server_ip: str) -> None:
    """End one group: the server it queried drops its caches — a
    resolver's answers and zone cuts, an authoritative server's
    compiled answers.  Its next question may never come, so nothing
    compiled for one group is held for a later one."""
    flush = getattr(network.dns_hosts().get(server_ip), "flush_cache", None)
    if flush is not None:
        flush()


def _group_engine(ledger, server_ip: str, phase: str, origin: float):
    """A fresh engine for one group: the run's configured policy and
    controllers (``ledger.config``, a
    :class:`~repro.core.hunter.HunterConfig`), no state of any other
    group.

    The deadline budget measures the run deadline from ``origin`` —
    where the run's stage 1 began — not from the phase start the
    group's clock is pinned to.
    """
    config = ledger.config
    engine = BatchedEngine(
        ledger.network,
        config.scanner_ip,
        server_ip,
        phase,
        config.engine_policy(),
    )
    if config.run_deadline > 0 or config.stage_deadline > 0:
        engine.budget = DeadlineBudget(
            origin, config.run_deadline, config.stage_deadline
        )
    engine.hedge_delay = config.hedge_delay
    if config.aimd:
        engine.aimd = AimdController()
    return engine


def lane_queries(
    network, units: UnitColumns, indices: Sequence[int]
) -> Iterator[Message]:
    """The query message of each unit in ``indices``, in order,
    decoded from its row only when the engine asks for the next one —
    the network's one message per question
    (:meth:`~repro.net.network.SimulatedInternet.query_message`)."""
    query = network.query_message
    qnames, query_types = units.qnames, units.query_types
    recursion_desired = units.recursion_desired
    for _, qname, qtype in units.rows(indices):
        yield query(qnames[qname], query_types[qtype], recursion_desired)


def run_group(
    ledger,
    plan: ScanPlan,
    phase: str,
    group: NameserverGroup,
    start: float,
    origin: float,
    fold: Callable[[int, Any], Any],
) -> GroupResult:
    """Execute one group of any phase in isolation: pin the clock and
    fault RNG (:func:`pin_group`), drive the server's lane on a fresh
    engine, end the group (:func:`end_group`).

    ``group.unit_indices`` index ``plan.units(phase)``; the engine
    reads their query messages one at a time (:func:`lane_queries`).
    ``fold`` takes each outcome with its unit index the moment it
    completes — the engine yields in query order — and whatever it
    returns other than ``None`` (the UR scan's :class:`ReducedOutcome`
    of an outcome that carried URs) is kept, in that order, as the
    group's outcomes; a preamble fold keeps nothing.
    """
    network = ledger.network
    server_ip = group.server_ip
    indices = group.unit_indices
    pin_group(network, start, phase, server_ip)
    engine = _group_engine(ledger, server_ip, phase, origin)
    kept = []
    queries = lane_queries(network, plan.units(phase), indices)
    for position, outcome in engine.execute_iter(queries):
        reduced = fold(indices[position], outcome)
        if reduced is not None:
            kept.append(reduced)
    end_group(network, server_ip)
    return GroupResult(
        group=group.index,
        server_ip=server_ip,
        elapsed=network.now - start,
        outcomes=kept,
        metrics=engine.metrics,
        events=engine.events,
    )


# -- serialization ---------------------------------------------------------


def encode_record(record) -> Dict[str, Any]:
    """JSON-safe form of one :class:`~repro.core.records.UndelegatedRecord`."""
    return {
        "domain": record.domain.to_text(),
        "nameserver_ip": record.nameserver_ip,
        "provider": record.provider,
        "rrtype": record.rrtype,
        "rdata_text": record.rdata_text,
        "nameserver_name": (
            record.nameserver_name.to_text()
            if record.nameserver_name is not None
            else None
        ),
        "ttl": record.ttl,
    }


def decode_record(payload: Dict[str, Any]):
    # inside: repro.core imports this module
    from ..core.records import UndelegatedRecord

    return UndelegatedRecord(
        domain=name(payload["domain"]),
        nameserver_ip=payload["nameserver_ip"],
        provider=payload["provider"],
        rrtype=payload["rrtype"],
        rdata_text=payload["rdata_text"],
        nameserver_name=(
            name(payload["nameserver_name"])
            if payload["nameserver_name"] is not None
            else None
        ),
        ttl=payload["ttl"],
    )


#: the scalar run-level counters of a :class:`ScanMetrics`
_RUN_COUNTERS = (
    "hedges_fired",
    "hedges_won",
    "hedges_wasted",
    "aimd_cuts",
    "aimd_wait",
    "spurious_retransmits",
)


def encode_metrics(metrics: ScanMetrics) -> Dict[str, Any]:
    return {
        "stages": {
            stage: {
                "queries": counters.queries,
                "responses": counters.responses,
                "timeouts": counters.timeouts,
                "retries": counters.retries,
                "giveups": counters.giveups,
                "skipped": counters.skipped,
                "shed": counters.shed,
                "rate_limit_wait": counters.rate_limit_wait,
            }
            for stage, counters in sorted(metrics.stages.items())
        },
        "latency": {
            "bounds": list(metrics.latency.bounds),
            "counts": list(metrics.latency.counts),
            "total": metrics.latency.total,
            "sum": metrics.latency.sum,
        },
        **{counter: getattr(metrics, counter) for counter in _RUN_COUNTERS},
        "shed_by_reason": dict(metrics.shed_by_reason),
    }


def decode_metrics(payload: Dict[str, Any]) -> ScanMetrics:
    metrics = ScanMetrics()
    for stage, counters in payload["stages"].items():
        metrics.stages[stage] = StageCounters(**counters)
    latency = LatencyHistogram(tuple(payload["latency"]["bounds"]))
    latency.counts = list(payload["latency"]["counts"])
    latency.total = payload["latency"]["total"]
    latency.sum = payload["latency"]["sum"]
    metrics.latency = latency
    for counter in _RUN_COUNTERS:
        setattr(metrics, counter, payload[counter])
    metrics.shed_by_reason = dict(payload["shed_by_reason"])
    return metrics


def encode_group_result(result: GroupResult) -> Dict[str, Any]:
    """JSON-safe payload of one group, as a result-store slot holds it."""
    return {
        "group": result.group,
        "server": result.server_ip,
        "elapsed": result.elapsed,
        "outcomes": [
            [outcome.index, [encode_record(record) for record in outcome.urs]]
            for outcome in result.outcomes
        ],
        "metrics": encode_metrics(result.metrics),
        "events": [
            [event, stage, _json_safe(fields)]
            for event, stage, fields in result.events
        ],
    }


def decode_group_result(payload: Dict[str, Any]) -> GroupResult:
    return GroupResult(
        group=payload["group"],
        server_ip=payload["server"],
        elapsed=payload["elapsed"],
        outcomes=[
            ReducedOutcome(index, tuple(map(decode_record, urs)))
            for index, urs in payload["outcomes"]
        ],
        metrics=decode_metrics(payload["metrics"]),
        events=[
            (event, stage, dict(fields))
            for event, stage, fields in payload["events"]
        ],
    )


# -- orchestration ---------------------------------------------------------


def _maybe_crash_group(index: int) -> None:
    target = os.environ.get(CRASH_GROUP_ENV)
    if target is not None and int(target) == index:
        os.kill(os.getpid(), signal.SIGTERM)


def _emit_timing(trace, name: str, **fields) -> None:
    if trace is not None:
        trace.emit_timing(name, **fields)


def _stored_groups(
    hunter, plan: ScanPlan, epoch: float, origin: float
) -> Iterator[Tuple[NameserverGroup, Any, Optional[Dict[str, Any]]]]:
    """Every UR group of ``plan`` in index order, with its result-store
    decision and, for a hit, the stored payload — read from its slot
    only when the group's turn comes (``None, None`` without a store).

    One timing event per decision; once the last group is out, one
    ``incremental.plan`` event counts the hits.
    """
    result_store = hunter.result_store
    if result_store is None:
        for group in plan.groups:
            yield group, None, None
        return
    from ..incremental import PlanDiffer

    trace = hunter.trace
    providers = {
        target.address: target.provider for target in hunter.nameservers
    }
    decisions = PlanDiffer(result_store).partition(
        plan, hunter.network, hunter.config, providers, epoch, origin
    )
    hits = 0
    for group, (decision, payload) in zip(plan.groups, decisions):
        if payload is not None:
            hits += 1
            event, why = "incremental.hit", {}
        elif decision.reason == "stale":
            event, why = "incremental.invalidate", {}
        else:
            event, why = "incremental.miss", {"reason": decision.reason}
        _emit_timing(
            trace, event, group=group.index, server=group.server_ip, **why
        )
        yield group, decision, payload
    _emit_timing(
        trace,
        "incremental.plan",
        groups=len(plan.groups),
        hits=hits,
        dirty=len(plan.groups) - hits,
    )


def run_shard_scan(hunter, plan: ScanPlan, epoch: float) -> ScanFold:
    """Execute the plan's UR scan group by group and fold the results.

    The groups run in index order, the order the plan fixed.  Each one
    comes from exactly one source — a result-store hit, decoded from
    its slot just before it folds, or an isolated execution
    (:func:`run_group`, each outcome reduced by the collector's
    ``reduce_ur`` the moment it completes: its response message is
    dropped before the next query is sent) —
    and is folded, and stored if a result store is attached, as soon as
    it is in hand: a killed run resumes from its stored groups, and no
    more than one group's payload is held at a time.  The phase
    (:func:`isolated_phase`) then merges the groups' ledgers into the
    collector's and ends the parent clock at ``epoch + makespan`` or
    where the correct collection, which ran side by side from the same
    epoch, left it, also when a group raises: the ledger then holds the
    scan up to that point.
    """
    ledger = hunter.collector
    origin = ledger.origin
    fold = ScanFold()
    with isolated_phase(ledger, "ur", epoch) as finished:
        for group, decision, payload in _stored_groups(
            hunter, plan, epoch, origin
        ):
            if payload is not None:
                result = decode_group_result(payload)
            else:
                result = run_group(
                    ledger, plan, "ur", group, epoch, origin, ledger.reduce_ur
                )
                if decision is not None and decision.identity is not None:
                    hunter.result_store.put(
                        decision.identity,
                        decision.digest,
                        encode_group_result(result),
                    )
            fold.add(result.outcomes)
            # folded: only the small ledgers wait for the ordered merge
            result.outcomes = []
            finished.append(result)
            _maybe_crash_group(group.index)
    return fold

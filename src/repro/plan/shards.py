"""The stage-1 executor: every collection as per-server groups, in isolation.

Every stage-1 query — the protective and correct collections
(:func:`run_collection_groups`), the UR scan (:func:`run_shard_scan`)
and the §4.2 delegated sample — runs in a *group*:
the queries aimed at one server, which never wait on any other
server's.  All groups run in this process, one after another; the
virtual clock models them as parallel.  The guarantees rest on one
invariant: **a group's outcome is a pure function of the static world,
the run origin, the phase start, and the config** — never of what ran
before it (:func:`isolated_phase`, :func:`pin_group`):

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
* every group gets a fresh engine, pacing/breaker state, round-trip
  estimator and AIMD controller, and a deadline budget whose run
  deadline is measured from the *run origin* the parent budget pinned
  (the protective probes count against it; no group is granted the
  whole budget again) — stage deadlines anchor at the group's first
  task, as in any phase.

The parent engine sends nothing: it is the ledger the groups merge
into, the origin of the run deadline, and the shared query-message
cache.  A group is folded the moment it is in hand (the UR scan's
:class:`ScanFold`: wire counters summed, the URs appended to one UR
table, deduped per group; the preamble's fingerprint and profile
folds, outcome by outcome); its small ledgers —
``ScanMetrics``, resilience counters, buffered engine trace events,
elapsed time — wait for the merge into
the parent objects in group order.  Only UR groups are stored; their
results are JSON-encoded only at the persistence boundary (a
result-store slot), and a stored slot is read and decoded into the
same fold only when its group's turn comes.  The invariant is also
the result store's key: :func:`repro.incremental.store.group_state`
spells out each input, so a stored group — from an earlier run, or
from the run a ``--resume`` continues — replays whenever they all
match.
"""

from __future__ import annotations

import hashlib
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
    Tuple,
)

from ..dns.name import name
from ..engine import (
    BatchedEngine,
    LatencyHistogram,
    ScanMetrics,
    StageCounters,
)
from ..obs.events import RunTrace, _json_safe
from ..resilience import AimdController, DeadlineBudget
from .scanplan import NameserverGroup, ScanPlan

__all__ = [
    "CRASH_GROUP_ENV",
    "ReducedOutcome",
    "ScanFold",
    "GroupResult",
    "pin_group",
    "end_group",
    "isolated_phase",
    "run_collection_groups",
    "run_group_isolated",
    "encode_record",
    "decode_record",
    "encode_metrics",
    "decode_metrics",
    "encode_group_result",
    "decode_group_result",
    "fold_resilience",
    "run_shard_scan",
]

#: set to a UR group index to SIGTERM the run right after that group is
#: folded and stored (kill-and-resume tests)
CRASH_GROUP_ENV = "URHUNTER_CRASH_GROUP"


@dataclass(frozen=True, slots=True)
class ReducedOutcome:
    """One UR query outcome, reduced to what the pipeline consumes.

    ``index`` is the unit's position in :attr:`ScanPlan.ur_units` (the
    global scan order), so sorting reduced outcomes by it restores the
    planned record order whatever order the groups ran in.
    """

    index: int
    attempts: int
    answered: bool
    urs: Tuple[Any, ...]


class ScanFold:
    """The UR scan's running fold over completed groups, in any order:
    wire counters are summed and each group's unique URs are appended
    to one :class:`~repro.core.records.URTable` as they are folded,
    with the planned index of the outcome that carried them."""

    __slots__ = ("attempts", "responses", "_table", "_indices")

    def __init__(self) -> None:
        # inside: repro.core imports this module
        from ..core.records import URTable

        self.attempts = 0
        self.responses = 0
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
            self.attempts += outcome.attempts
            if outcome.answered:
                self.responses += 1
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
    outcomes and the engine's ledger (empty by default)."""

    group: int
    server_ip: str
    elapsed: float
    outcomes: List[ReducedOutcome] = field(default_factory=list)
    metrics: Any = field(default_factory=ScanMetrics)
    resilience: Optional[Dict[str, Any]] = None
    #: buffered deterministic engine events as (name, stage, fields)
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
    digest = hashlib.sha256(
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
    scan, phase: str, start: float
) -> Iterator[List[GroupResult]]:
    """One stage-1 phase of isolated groups, from ``start``.

    ``scan`` is whoever owns the parent ``network``, ``engine`` and
    ``trace`` (the hunter, or its collector).  The body pins each group
    (:func:`pin_group`) and appends every group it has in hand to the
    yielded list.  On the way out — also when a group raised, so a
    failure report carries the phase up to that point — the parent
    fault RNG is restored (whatever runs next sees an RNG the groups
    did not draw from), the parent engine ledger, resilience
    counters and trace absorb the groups in ``group`` order, the parent
    clock ends at ``start + makespan`` or at the clock found on entry,
    whichever is later (a phase that started side by side with an
    earlier, longer one leaves that one's end in place), and one
    ``phase.makespan`` timing event places the phase on the run's
    clock — its ``start`` from the trace's run origin — and says which
    server set its length.
    """
    network = scan.network
    entered = network.now
    rng_state = network._fault_rng.getstate()
    finished: List[GroupResult] = []
    try:
        yield finished
    finally:
        restored = random.Random()
        restored.setstate(rng_state)
        network._fault_rng = restored
        engine, trace = scan.engine, scan.trace
        makespan, critical = 0.0, None
        finished.sort(key=attrgetter("group"))
        for result in finished:
            if trace is not None:
                for event, stage, fields in result.events:
                    trace.emit(event, stage=stage, **fields)
            engine.metrics.merge(result.metrics)
            if result.resilience:
                fold_resilience(engine.resilience, result.resilience)
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


def _group_engine(scan, origin: float):
    """A fresh engine + resilience controllers for one group: the
    parent engine's policy and controller settings, none of its state.

    The deadline budget is anchored at ``origin`` — where the parent
    budget began the run — not at the phase start the group's clock is
    pinned to.  Only the query messages are shared with the parent
    engine: every group asks the same (qname, qtype) questions, and a
    re-sent message keeps the servers' compiled answers on their
    cheapest path.
    """
    parent = scan.engine
    engine = BatchedEngine(
        scan.network, parent.scanner_ip, policy=parent.policy
    )
    engine.query_cache = parent.query_cache
    engine.trace = RunTrace()
    if parent.budget is not None:
        engine.budget = DeadlineBudget(
            run_deadline=parent.budget.run_deadline,
            stage_deadline=parent.budget.stage_deadline,
        )
        engine.budget.begin(origin)
    engine.hedge_delay = parent.hedge_delay
    if parent.aimd is not None:
        engine.aimd = AimdController()
    return engine


def _run_origin(engine, start: float) -> float:
    """Where group budgets measure the run deadline from: where the
    run began, not the phase start every group's clock is pinned to."""
    return start if engine.budget is None else engine.budget.begin(start)


def _group_result(
    engine, group: int, server_ip: str, elapsed: float, outcomes
) -> GroupResult:
    return GroupResult(
        group=group,
        server_ip=server_ip,
        elapsed=elapsed,
        outcomes=outcomes,
        metrics=engine.metrics,
        resilience=_encode_resilience(engine.resilience),
        events=engine.trace.raw_events(),
    )


def run_collection_groups(
    scan, plan: ScanPlan, collection: str, fold: Callable[[Any], None]
) -> None:
    """Execute a preamble collection (``"protective"``/``"correct"``)
    as one isolated group per server, in server-table order.

    The groups are the lanes of the collection's server column (unit
    indices only — a task exists while its outcome is being folded).
    ``fold`` takes each :class:`~repro.engine.api.QueryOutcome` as it
    completes.  The phase starts at the parent clock and ends at
    ``start + makespan`` (:func:`isolated_phase`): the correct
    collection starts where the protective probes ended, the scan
    start the UR scan is pinned to as well.
    """
    network = scan.network
    start = network.now
    origin = _run_origin(scan.engine, start)
    with isolated_phase(scan, collection, start) as finished:
        for index, (server_ip, lane) in enumerate(
            plan.units(collection).lanes().items()
        ):
            pin_group(network, start, collection, server_ip)
            engine = _group_engine(scan, origin)
            for _, outcome in engine.execute_iter(
                plan.tasks(collection, lane)
            ):
                fold(outcome)
            end_group(network, server_ip)
            finished.append(
                _group_result(
                    engine, index, server_ip, network.now - start, []
                )
            )


def run_group_isolated(
    hunter, plan: ScanPlan, group: NameserverGroup, epoch: float, origin: float
) -> GroupResult:
    """Pin the clock and fault RNG for one UR group, then execute it.

    Each outcome is reduced the moment it completes (its response
    message is dropped before the next task is driven); the engine
    yields in task order, so the reduced outcomes are in ``index`` order.
    """
    network = hunter.network
    pin_group(network, epoch, "ur", group.server_ip)
    engine = _group_engine(hunter, origin)
    extract_urs = hunter.collector.urs_from_outcome
    indices = group.unit_indices
    reduced = [
        ReducedOutcome(
            index=indices[position],
            attempts=outcome.attempts,
            answered=outcome.answered,
            urs=tuple(extract_urs(outcome)),
        )
        for position, outcome in engine.execute_iter(
            plan.tasks("ur", indices)
        )
    ]
    end_group(network, group.server_ip)
    return _group_result(
        engine, group.index, group.server_ip, network.now - epoch, reduced
    )


# -- serialization ---------------------------------------------------------


def _encode_resilience(resilience) -> Dict[str, Any]:
    """Raw (unrounded) resilience counters for lossless folding."""
    return {
        "hedges_fired": resilience.hedges_fired,
        "hedges_won": resilience.hedges_won,
        "hedges_wasted": resilience.hedges_wasted,
        "shed": dict(resilience.shed),
        "aimd_cuts": resilience.aimd_cuts,
        "aimd_wait": resilience.aimd_wait,
        "spurious_retransmits": resilience.spurious_retransmits,
    }


def fold_resilience(target, data: Dict[str, Any]) -> None:
    """Fold encoded group counters into the parent's metrics in place.

    In place because the hunter and its engine alias one
    :class:`~repro.resilience.metrics.ResilienceMetrics` instance; a
    fold into a new object would silently break that aliasing.
    """
    target.hedges_fired += data.get("hedges_fired", 0)
    target.hedges_won += data.get("hedges_won", 0)
    target.hedges_wasted += data.get("hedges_wasted", 0)
    target.aimd_cuts += data.get("aimd_cuts", 0)
    target.aimd_wait += data.get("aimd_wait", 0.0)
    target.spurious_retransmits += data.get("spurious_retransmits", 0)
    for key, count in data.get("shed", {}).items():
        target.shed[key] = target.shed.get(key, 0) + count


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
    return metrics


def encode_group_result(result: GroupResult) -> Dict[str, Any]:
    """JSON-safe payload of one group, as a result-store slot holds it."""
    return {
        "group": result.group,
        "server": result.server_ip,
        "elapsed": result.elapsed,
        "outcomes": [
            {
                "index": outcome.index,
                "attempts": outcome.attempts,
                "answered": outcome.answered,
                "urs": [encode_record(record) for record in outcome.urs],
            }
            for outcome in result.outcomes
        ],
        "metrics": encode_metrics(result.metrics),
        "resilience": result.resilience,
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
            ReducedOutcome(
                index=outcome["index"],
                attempts=outcome["attempts"],
                answered=outcome["answered"],
                urs=tuple(
                    decode_record(record) for record in outcome["urs"]
                ),
            )
            for outcome in payload["outcomes"]
        ],
        metrics=decode_metrics(payload["metrics"]),
        resilience=payload.get("resilience"),
        events=[
            (event, stage, dict(fields))
            for event, stage, fields in payload.get("events", [])
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
    its slot just before it folds, or an isolated execution — and is
    folded, and stored if a result store is attached, as soon as it is
    in hand: a killed run resumes from its stored groups, and no more
    than one group's payload is held at a time.  The phase
    (:func:`isolated_phase`) then merges the groups' ledgers into the
    hunter's and ends the parent clock at ``epoch + makespan`` or where
    the correct collection, which ran side by side from the same epoch,
    left it, also when a group raises: the parent ledger a failure
    report carries is the scan up to that point.
    """
    origin = _run_origin(hunter.engine, epoch)
    fold = ScanFold()
    with isolated_phase(hunter, "ur", epoch) as finished:
        for group, decision, payload in _stored_groups(
            hunter, plan, epoch, origin
        ):
            if payload is not None:
                result = decode_group_result(payload)
            else:
                result = run_group_isolated(hunter, plan, group, epoch, origin)
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

"""The stage-1 UR executor: a scan plan's nameserver groups, in isolation.

Every UR scan — batch or streamed, one shard or many, in this process or
a worker pool — is :func:`run_shard_scan`.  Its guarantees rest on one
invariant: **a group's outcome is a pure function of the static world,
the run origin, the classification epoch, and the config** — never of
which shard or worker ran it, or what ran before it:

* **one clock rule** — the virtual clock is pinned to the
  classification epoch before each group, and the parent clock ends at
  ``epoch + makespan`` (the longest group: a perfectly parallel scan);
* **one fault-RNG rule** — the network fault RNG is reseeded per group
  from a stable hash of ``(fault seed, nameserver address)`` (the
  parent RNG state is saved and restored around the scan);
* every group gets a fresh engine, pacing/breaker state, hedge and AIMD
  controllers, and a deadline budget whose run deadline is measured
  from the *run origin* the parent budget pinned (the preamble counts
  against it; no group is granted the whole budget again) — stage
  deadlines anchor at the group's first task, as in any phase.

A group is folded the moment it is in hand (:class:`ScanFold`: wire
counters summed, only UR-carrying outcomes kept); its small ledgers —
``ScanMetrics``, resilience counters, buffered engine trace events,
elapsed time — wait for the merge into the parent objects in
group-index order.  Results are JSON-encoded only at a persistence
boundary (a result-store slot, a shard partial, the process-pool
wire), and payloads read back from one decode into the same fold.

Checkpoint codec imports stay inside functions:
``repro.pipeline.checkpoint`` imports ``repro.core.hunter``, which
imports this package, so a module-level import would be a cycle.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..engine import create_engine
from ..obs.events import RunTrace, _json_safe
from ..resilience import AimdController, DeadlineBudget, HedgeController
from .scanplan import NameserverGroup, ScanPlan

__all__ = [
    "CRASH_SHARD_ENV",
    "ReducedOutcome",
    "ScanFold",
    "GroupResult",
    "run_group_isolated",
    "encode_group_result",
    "decode_group_result",
    "fold_resilience",
    "run_shard_scan",
]

#: set to a shard index to SIGTERM the run right after that shard's
#: partial checkpoint is saved (kill-and-resume tests)
CRASH_SHARD_ENV = "URHUNTER_CRASH_SHARD"


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
    wire counters are summed and only the outcomes that carry URs are
    held on to until the end."""

    __slots__ = ("attempts", "responses", "_carrying")

    def __init__(self) -> None:
        self.attempts = 0
        self.responses = 0
        self._carrying: List[ReducedOutcome] = []

    def add(self, outcomes: Iterable[ReducedOutcome]) -> None:
        for outcome in outcomes:
            self.attempts += outcome.attempts
            if outcome.answered:
                self.responses += 1
            if outcome.urs:
                self._carrying.append(outcome)

    def records(self) -> List[Any]:
        """Every collected UR (duplicates included) in planned scan order."""
        self._carrying.sort(key=attrgetter("index"))
        return [
            record for outcome in self._carrying for record in outcome.urs
        ]


@dataclass
class GroupResult:
    """Everything one isolated nameserver-group execution produced."""

    group: int
    server_ip: str
    elapsed: float
    outcomes: List[ReducedOutcome]
    metrics: Any
    resilience: Optional[Dict[str, Any]]
    #: buffered deterministic engine events as (name, stage, fields)
    events: List[Tuple[str, Optional[str], Dict[str, Any]]]


def group_fault_seed(base_seed: int, server_ip: str) -> int:
    """Stable per-group fault-RNG seed — partition-independent."""
    digest = hashlib.sha256(
        f"urhunter-shard-group:{base_seed}:{server_ip}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _group_engine(hunter, origin: float):
    """A fresh engine + resilience controllers for one group.

    Mirrors the controller wiring of ``URHunter.__init__``; the deadline
    budget is anchored at ``origin`` — where the parent budget began the
    run — not at the epoch the group's clock is pinned to.  Only the
    query messages are shared with the parent engine: every group asks
    the same (qname, qtype) questions, and a re-sent message keeps the
    servers' compiled answers on their cheapest path.
    """
    config = hunter.config
    engine = create_engine(
        config.engine,
        hunter.network,
        config.scanner_ip,
        policy=config.engine_policy(),
    )
    engine.query_cache = hunter.engine.query_cache
    engine.trace = RunTrace()
    if config.run_deadline > 0 or config.stage_deadline > 0:
        engine.budget = DeadlineBudget(
            run_deadline=config.run_deadline,
            stage_deadline=config.stage_deadline,
        )
        engine.budget.begin(origin)
    if config.hedge_delay > 0:
        engine.hedge = HedgeController(
            base_delay=config.hedge_delay, timeout=config.timeout
        )
    if config.aimd:
        engine.aimd = AimdController(timeout=config.timeout)
    return engine


def run_group_isolated(
    hunter, plan: ScanPlan, group: NameserverGroup, epoch: float, origin: float
) -> GroupResult:
    """Pin the clock and fault RNG for one group, then execute it.

    Each outcome is reduced the moment it completes (its response
    message is dropped before the next task is driven); sorting by
    ``index`` restores task order from the engine's completion order.
    """
    network = hunter.network
    network.set_clock(epoch)
    network._fault_rng = random.Random(
        group_fault_seed(network.fault_seed, group.server_ip)
    )
    engine = _group_engine(hunter, origin)
    extract_urs = hunter.collector.urs_from_outcome
    indices = group.unit_indices
    reduced = sorted(
        (
            ReducedOutcome(
                index=indices[position],
                attempts=outcome.attempts,
                answered=outcome.answered,
                urs=tuple(extract_urs(outcome)),
            )
            for position, outcome in engine.execute_iter(
                plan.tasks("ur", indices)
            )
        ),
        key=attrgetter("index"),
    )
    resilience = getattr(engine, "resilience", None)
    return GroupResult(
        group=group.index,
        server_ip=group.server_ip,
        elapsed=network.now - epoch,
        outcomes=reduced,
        metrics=engine.metrics,
        resilience=(
            _encode_resilience(resilience)
            if resilience is not None
            else None
        ),
        events=engine.trace.raw_events(),
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
    }


def fold_resilience(target, data: Dict[str, Any]) -> None:
    """Fold encoded group counters into the parent's metrics in place.

    In place because the hunter and its engine alias one
    :class:`~repro.resilience.metrics.ResilienceMetrics` instance —
    the protocol ``merge`` returns a new object and would silently
    break that aliasing.
    """
    target.hedges_fired += data.get("hedges_fired", 0)
    target.hedges_won += data.get("hedges_won", 0)
    target.hedges_wasted += data.get("hedges_wasted", 0)
    target.aimd_cuts += data.get("aimd_cuts", 0)
    target.aimd_wait += data.get("aimd_wait", 0.0)
    for key, count in data.get("shed", {}).items():
        target.shed[key] = target.shed.get(key, 0) + count


def encode_group_result(result: GroupResult) -> Dict[str, Any]:
    """JSON-safe payload of one group (result-store slots, shard
    partial checkpoints and the process-pool wire share this encoding)."""
    from ..pipeline.checkpoint import encode_metrics, encode_record

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
            [name, stage, _json_safe(fields)]
            for name, stage, fields in result.events
        ],
    }


def decode_group_result(payload: Dict[str, Any]) -> GroupResult:
    from ..pipeline.checkpoint import decode_metrics, decode_record

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
            (name, stage, dict(fields))
            for name, stage, fields in payload.get("events", [])
        ],
    )


# -- orchestration ---------------------------------------------------------


def _maybe_crash_shard(index: int) -> None:
    target = os.environ.get(CRASH_SHARD_ENV)
    if target is not None and int(target) == index:
        os.kill(os.getpid(), signal.SIGTERM)


def _emit_timing(trace, name: str, **fields) -> None:
    if trace is not None:
        trace.emit_timing(name, **fields)


def _incremental_partition(
    hunter, plan: ScanPlan, trace
) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, Any], Optional[Any]]:
    """Consult the group result store, if one is attached and safe.

    Returns ``(replayed payloads by group, decisions by group, store)``
    — all empty/None when no store is attached or the run is not
    cacheable (network faults installed or non-deterministic sources
    wired in), in which case the store is bypassed entirely: never
    read, never written.
    """
    result_store = hunter.result_store
    if result_store is None:
        return {}, {}, None
    from ..incremental import PlanDiffer, run_cacheable

    cacheable, reason = run_cacheable(hunter)
    if not cacheable:
        result_store.stats["bypassed_runs"] += 1
        _emit_timing(trace, "incremental.bypass", reason=reason)
        return {}, {}, None
    providers = {
        target.address: target.provider for target in hunter.nameservers
    }
    diff = PlanDiffer(result_store).partition(
        plan, hunter.network, hunter.config, providers
    )
    decisions: Dict[int, Any] = {}
    for decision in diff.decisions:
        decisions[decision.group] = decision
        if decision.action == "hit":
            name, why = "incremental.hit", {}
        elif decision.reason == "stale":
            name, why = "incremental.invalidate", {}
        else:
            name, why = "incremental.miss", {"reason": decision.reason}
        _emit_timing(
            trace,
            name,
            group=decision.group,
            server=decision.server_ip,
            **why,
        )
    _emit_timing(
        trace,
        "incremental.plan",
        groups=len(diff.decisions),
        hits=diff.hits,
        dirty=diff.dirty,
    )
    return diff.replayed, decisions, result_store


def run_shard_scan(hunter, plan: ScanPlan, epoch: float) -> ScanFold:
    """Execute the plan's UR scan group by group and fold the results.

    Every group comes from exactly one source — a shard partial left by
    a crashed run, a result-store hit, a pool worker, or an isolated
    execution in this process — and is folded as soon as it is in hand.
    The hunter's parent ledgers (engine metrics, resilience counters,
    trace) then absorb the groups in group-index order — the order the
    plan fixed, independent of shard membership — and the parent clock
    ends at ``epoch + makespan``.  If a group raises, the groups that
    did complete are still merged before the error propagates, so the
    parent ledger a failure report carries is the scan up to that point.
    """
    network = hunter.network
    config = hunter.config
    trace = hunter.trace
    shard_count = config.shards
    store = hunter.shard_store

    replayed, decisions, result_store = _incremental_partition(
        hunter, plan, trace
    )
    cached: Dict[int, List[Dict[str, Any]]] = {}
    if store is not None:
        cached = store.load_shard_partials(plan.plan_hash, shard_count)
    shards = plan.shard(shard_count)
    pending = [
        shard
        for shard in shards
        if shard.index not in cached
        and any(group.index not in replayed for group in shard.groups)
    ]

    # group budgets measure the run deadline from where the run began,
    # not from the epoch every group's clock is pinned to
    budget = hunter.engine.budget
    origin = epoch if budget is None else budget.begin(epoch)

    pooled: Dict[int, List[Dict[str, Any]]] = {}
    if pending and hunter.world_spec is not None and config.shard_workers > 1:
        from .pool import execute_shards_pooled

        pooled = execute_shards_pooled(
            hunter.world_spec,
            config,
            plan.plan_hash,
            epoch,
            origin,
            {
                shard.index: tuple(
                    group.index
                    for group in shard.groups
                    if group.index not in replayed
                )
                for shard in pending
            },
        )

    # The per-group reseeding below clobbers the network fault RNG;
    # save the parent state so the post-scan pipeline (notably the
    # §4.2 delegated-sample queries) sees a partition-independent RNG.
    rng_state = network._fault_rng.getstate()
    fold = ScanFold()
    finished: Dict[int, GroupResult] = {}

    def absorb(result: GroupResult) -> None:
        fold.add(result.outcomes)
        # folded: only the small ledgers wait for the ordered merge
        result.outcomes = []
        finished[result.group] = result

    try:
        for shard in shards:
            if shard.index in cached:
                payloads = cached.pop(shard.index)
                _emit_timing(
                    trace,
                    "shard.loaded",
                    shard=shard.index,
                    groups=len(payloads),
                )
                for payload in payloads:
                    absorb(decode_group_result(payload))
                continue
            _emit_timing(
                trace,
                "shard.start",
                shard=shard.index,
                groups=len(shard.groups),
                units=shard.unit_count,
            )
            from_pool = {
                payload["group"]: payload
                for payload in pooled.pop(shard.index, ())
            }
            partial: List[Dict[str, Any]] = []
            for group in shard.groups:
                fresh = group.index not in replayed
                payload = (
                    from_pool.get(group.index)
                    if fresh
                    else replayed.pop(group.index)
                )
                if payload is not None:
                    result = decode_group_result(payload)
                else:
                    result = run_group_isolated(
                        hunter, plan, group, epoch, origin
                    )
                decision = decisions.get(group.index)
                refresh = (
                    fresh
                    and decision is not None
                    and decision.identity is not None
                )
                if payload is None and (refresh or store is not None):
                    payload = encode_group_result(result)
                if refresh:
                    result_store.put(
                        decision.identity, decision.digest, payload
                    )
                if store is not None:
                    partial.append(payload)
                absorb(result)
            if store is not None:
                store.save_shard_partial(
                    shard.index, shard_count, plan.plan_hash, partial
                )
            _emit_timing(
                trace,
                "shard.merged",
                shard=shard.index,
                groups=len(shard.groups),
            )
            _maybe_crash_shard(shard.index)
    finally:
        restored = random.Random()
        restored.setstate(rng_state)
        network._fault_rng = restored
        makespan = 0.0
        for group_index in sorted(finished):
            result = finished[group_index]
            if trace is not None:
                for name, stage, fields in result.events:
                    trace.emit(name, stage=stage, **fields)
            hunter.engine.metrics.merge(result.metrics)
            if result.resilience and hunter.resilience is not None:
                fold_resilience(hunter.resilience, result.resilience)
            makespan = max(makespan, result.elapsed)
        network.set_clock(epoch + makespan)
    return fold

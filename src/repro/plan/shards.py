"""Shard execution: run a scan plan's nameserver groups in isolation.

The byte-identity guarantee of ``--shards`` rests on one invariant:
**a nameserver group's outcome is a pure function of the static world,
the classification epoch, and the config** — never of which shard or
worker ran it, or what ran before it.  :func:`execute_group` enforces
that by construction:

* the virtual clock is pinned to the classification epoch before each
  group starts, and the parent clock is advanced afterwards by the
  *maximum* group elapsed time (the makespan of a perfectly parallel
  scan) — a partition-independent value;
* the network fault RNG is reseeded per group from a stable hash of
  ``(fault seed, nameserver address)``, so a faulted group draws the
  same sequence no matter how groups are ordered or distributed (the
  parent RNG state is saved and restored around the scan);
* every group gets a fresh engine, pacing/breaker state, and — when
  configured — fresh deadline budget, hedge, and AIMD controllers, all
  anchored at the epoch (this is how deadline budgets are apportioned:
  each group measures its run deadline from the epoch).

Group results are reduced to :class:`ReducedOutcome` (wire counters
plus extracted URs), serialized through the checkpoint codecs into
per-shard partial files, and merged back in global plan order:
``ScanMetrics`` via its in-place ``merge``, resilience counters via
:func:`fold_resilience`, and the buffered engine trace events by
replay into the parent trace in group-index order.

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
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..engine import create_engine
from ..obs.events import RunTrace, _json_safe
from ..resilience import AimdController, DeadlineBudget, HedgeController
from .scanplan import NameserverGroup, ScanPlan, Shard

__all__ = [
    "CRASH_SHARD_ENV",
    "ReducedOutcome",
    "reduce_outcomes",
    "GroupResult",
    "execute_group",
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
    global scan order), so merging sorted reduced outcomes reproduces
    the unsharded outcome sequence exactly.
    """

    index: int
    attempts: int
    answered: bool
    urs: Tuple[Any, ...]


def reduce_outcomes(
    engine, tasks, indices, extract_urs
) -> Iterator[ReducedOutcome]:
    """Drive ``tasks`` and reduce each outcome the moment it completes.

    Yields in the engine's *completion* order; ``indices[i]`` is the
    scan-order index of ``tasks[i]``, so sorting by ``index`` restores
    task order.  Each outcome and its response message are dropped
    before the next task is driven: the in-line collector, the streaming
    node and the group runner all fold this stream, never a list.
    """
    for position, outcome in engine.execute_iter(tasks):
        yield ReducedOutcome(
            index=indices[position],
            attempts=outcome.attempts,
            answered=outcome.answered,
            urs=tuple(extract_urs(outcome)),
        )


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


def _group_engine(network, config):
    """A fresh engine + resilience controllers for one group.

    Mirrors the controller wiring of ``URHunter.__init__`` so a group
    sheds, hedges, and adapts exactly as a dedicated single-group run
    would.
    """
    engine = create_engine(
        config.engine,
        network,
        config.scanner_ip,
        policy=config.engine_policy(),
    )
    engine.trace = RunTrace()
    if config.run_deadline > 0 or config.stage_deadline > 0:
        engine.budget = DeadlineBudget(
            run_deadline=config.run_deadline,
            stage_deadline=config.stage_deadline,
        )
        engine.budget.begin(network.now)
    if config.hedge_delay > 0:
        engine.hedge = HedgeController(
            base_delay=config.hedge_delay, timeout=config.timeout
        )
    if config.aimd:
        engine.aimd = AimdController(timeout=config.timeout)
    return engine


def execute_group(
    network,
    config,
    plan: ScanPlan,
    group: NameserverGroup,
    extract_urs,
) -> GroupResult:
    """Run one nameserver group against an already-pinned network.

    The caller is responsible for clock/RNG isolation (see
    :func:`run_shard_scan` and the pool worker); this function only
    executes and reduces.  ``extract_urs`` is the collector's
    ``urs_from_outcome`` bound method.
    """
    engine = _group_engine(network, config)
    start = network.now
    reduced = sorted(
        reduce_outcomes(
            engine,
            plan.tasks("ur", group.unit_indices),
            group.unit_indices,
            extract_urs,
        ),
        key=attrgetter("index"),
    )
    resilience = getattr(engine, "resilience", None)
    return GroupResult(
        group=group.index,
        server_ip=group.server_ip,
        elapsed=network.now - start,
        outcomes=reduced,
        metrics=engine.metrics,
        resilience=(
            _encode_resilience(resilience)
            if resilience is not None
            else None
        ),
        events=engine.trace.raw_events(),
    )


def run_group_isolated(
    network,
    config,
    plan: ScanPlan,
    group: NameserverGroup,
    extract_urs,
    epoch: float,
    base_seed: int,
) -> GroupResult:
    """Pin the clock and fault RNG for one group, then execute it."""
    network.set_clock(epoch)
    network._fault_rng = random.Random(
        group_fault_seed(base_seed, group.server_ip)
    )
    return execute_group(network, config, plan, group, extract_urs)


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
    """JSON-safe payload of one group (shard partial checkpoints and
    the process-pool wire format share this encoding)."""
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
    """Consult the group result store, if one is active and safe.

    Returns ``(replayed payloads by group, decisions by group, store)``
    — all empty/None when no store is attached, ``--no-incremental`` is
    set, or the run is not cacheable (network faults installed or
    non-deterministic sources wired in), in which case the store is
    bypassed entirely: never read, never written.
    """
    result_store = getattr(hunter, "result_store", None)
    config = hunter.config
    if result_store is None or not getattr(config, "incremental", True):
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
        plan, hunter.network, config, providers
    )
    decisions: Dict[int, Any] = {}
    for decision in diff.decisions:
        decisions[decision.group] = decision
        if decision.action == "hit":
            _emit_timing(
                trace,
                "incremental.hit",
                group=decision.group,
                server=decision.server_ip,
            )
        elif decision.reason == "stale":
            _emit_timing(
                trace,
                "incremental.invalidate",
                group=decision.group,
                server=decision.server_ip,
            )
        else:
            _emit_timing(
                trace,
                "incremental.miss",
                group=decision.group,
                server=decision.server_ip,
                reason=decision.reason,
            )
    _emit_timing(
        trace,
        "incremental.plan",
        groups=len(diff.decisions),
        hits=diff.hits,
        dirty=diff.dirty,
    )
    return diff.replayed, decisions, result_store


def run_shard_scan(hunter, plan: ScanPlan, epoch: float) -> List[ReducedOutcome]:
    """Execute the plan's UR scan shard by shard and merge the results.

    Runs every shard (loading previously checkpointed partials where
    available, replaying store hits where an incremental result store
    is active), then folds metrics/resilience/trace events into the
    hunter's parent objects and advances the parent clock by the
    makespan.  Returns the reduced outcomes in global plan order.
    """
    network = hunter.network
    config = hunter.config
    trace = hunter.trace
    # incremental runs take this path at --shards 0 too: one shard,
    # which existing equivalence tests prove byte-identical to the
    # legacy in-line scan
    shard_count = config.shards if config.shards > 0 else 1
    shards = plan.shard(shard_count)
    store = getattr(hunter, "shard_store", None)

    replayed, decisions, result_store = _incremental_partition(
        hunter, plan, trace
    )

    cached: Dict[int, List[Dict[str, Any]]] = {}
    if store is not None:
        cached = store.load_shard_partials(plan.plan_hash, shard_count)
    pending = [
        shard
        for shard in shards
        if shard.index not in cached
        and any(group.index not in replayed for group in shard.groups)
    ]

    pool_results: Optional[Dict[int, List[Dict[str, Any]]]] = None
    if (
        pending
        and getattr(hunter, "world_spec", None) is not None
        and config.shard_workers > 1
    ):
        from .pool import execute_shards_pooled

        only_groups = None
        if replayed:
            only_groups = {
                shard.index: tuple(
                    group.index
                    for group in shard.groups
                    if group.index not in replayed
                )
                for shard in pending
            }
        pool_results = execute_shards_pooled(
            hunter.world_spec,
            config,
            plan.plan_hash,
            epoch,
            [shard.index for shard in pending],
            shard_count=shard_count,
            only_groups=only_groups,
        )

    # The per-group reseeding below clobbers the network fault RNG;
    # save the parent state so the post-scan pipeline (notably the
    # §4.2 delegated-sample queries) sees a partition-independent RNG.
    rng_state = network._fault_rng.getstate()
    base_seed = getattr(network, "fault_seed", 0)

    shard_payloads: Dict[int, List[Dict[str, Any]]] = {}
    for shard in shards:
        if shard.index in cached:
            shard_payloads[shard.index] = cached[shard.index]
            _emit_timing(
                trace,
                "shard.loaded",
                shard=shard.index,
                groups=len(cached[shard.index]),
            )
            continue
        _emit_timing(
            trace,
            "shard.start",
            shard=shard.index,
            groups=len(shard.groups),
            units=shard.unit_count,
        )
        if pool_results is not None and shard.index in pool_results:
            executed = pool_results[shard.index]
        else:
            executed = [
                encode_group_result(
                    run_group_isolated(
                        network,
                        config,
                        plan,
                        group,
                        hunter.collector.urs_from_outcome,
                        epoch,
                        base_seed,
                    )
                )
                for group in shard.groups
                if group.index not in replayed
            ]
        # merge replayed and freshly executed groups in shard order —
        # the byte-identity invariant makes the interleave seamless
        executed_by_group = {
            payload["group"]: payload for payload in executed
        }
        payloads = [
            replayed[group.index]
            if group.index in replayed
            else executed_by_group[group.index]
            for group in shard.groups
        ]
        shard_payloads[shard.index] = payloads
        if result_store is not None:
            for payload in executed:
                decision = decisions.get(payload["group"])
                if decision is not None and decision.identity is not None:
                    result_store.put(
                        decision.identity, decision.digest, payload
                    )
        if store is not None:
            store.save_shard_partial(
                shard.index, shard_count, plan.plan_hash, payloads
            )
        _emit_timing(
            trace, "shard.merged", shard=shard.index, groups=len(payloads)
        )
        _maybe_crash_shard(shard.index)

    restored = random.Random()
    restored.setstate(rng_state)
    network._fault_rng = restored

    # Merge in group-index order — the deterministic order the plan
    # fixed, independent of shard membership or completion order.
    by_group: Dict[int, Dict[str, Any]] = {}
    for payloads in shard_payloads.values():
        for payload in payloads:
            by_group[payload["group"]] = payload
    outcomes: List[ReducedOutcome] = []
    makespan = 0.0
    parent_resilience = getattr(hunter, "resilience", None)
    for group_index in sorted(by_group):
        result = decode_group_result(by_group[group_index])
        if trace is not None:
            for name, stage, fields in result.events:
                trace.emit(name, stage=stage, **fields)
        hunter.engine.metrics.merge(result.metrics)
        if result.resilience and parent_resilience is not None:
            fold_resilience(parent_resilience, result.resilience)
        outcomes.extend(result.outcomes)
        makespan = max(makespan, result.elapsed)

    network.set_clock(epoch + makespan)
    outcomes.sort(key=attrgetter("index"))
    return outcomes

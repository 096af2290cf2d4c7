"""Process-pool shard execution against per-worker world replicas.

The simulated internet is an in-process object graph, so worker
processes cannot share the parent's world — instead each worker
*rebuilds* it from a :class:`WorldSpec`: the scenario config, the
injected loss faults, and the chaos script, replayed in exactly the
order the CLI applied them.  World construction is a pure function of
the scenario seed and fault application is a pure function of the
spec, so every replica is byte-equivalent to the parent's world; the
worker then recomputes the scan plan and refuses to run if its hash
differs from the parent's (a cheap end-to-end proof that parent and
worker agree on every planned query).

Workers execute whole shards and return the same JSON-safe group
payloads the local path produces
(:func:`repro.plan.shards.encode_group_result`), so pooled, local
and store-replayed groups merge through one code path.  A
per-process cache keeps the rebuilt world across shards handed to the
same worker.

Imports of :mod:`repro.scenario` and :mod:`repro.core.hunter` stay
inside functions — this module is imported by the shard orchestrator,
which the hunter imports.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["WorldSpec", "execute_shards_pooled"]


@dataclass(frozen=True)
class WorldSpec:
    """Everything a worker needs to rebuild the measurement world."""

    #: the scenario configuration (picklable plain dataclass)
    scenario: Any
    #: packet-loss fault injection, replayed as ``inject_faults``
    loss_rate: float = 0.0
    loss_seed: int = 0
    #: chaos-script name or path, replayed as ``apply_scenario``
    chaos_script: Optional[str] = None


#: per-process replica cache: (spec repr, config repr) -> (hunter, plan)
_REPLICAS: Dict[Tuple[str, str], Any] = {}


def _replica(spec: WorldSpec, config) -> Any:
    """The worker's hunter over a rebuilt world (cached per process)."""
    key = (repr(spec), repr(config))
    hunter = _REPLICAS.get(key)
    if hunter is None:
        from ..core.hunter import URHunter
        from ..scenario import build_world

        world = build_world(spec.scenario)
        if spec.loss_rate > 0:
            world.network.inject_faults(
                loss_rate=spec.loss_rate, seed=spec.loss_seed
            )
        hunter = URHunter.from_world(world, config)
        if spec.chaos_script:
            from ..resilience.scenario import apply_scenario, load_scenario

            apply_scenario(load_scenario(spec.chaos_script), world, hunter)
        _REPLICAS[key] = hunter
    return hunter


def _run_shard(
    spec: WorldSpec,
    config,
    plan_hash: str,
    epoch: float,
    origin: float,
    shard_index: int,
    groups: Tuple[int, ...],
) -> Tuple[int, List[Dict[str, Any]]]:
    """Worker entry point: execute the named groups of one shard (the
    ones no result store replays — group isolation makes skipping the
    siblings side-effect free) and return them encoded."""
    from .shards import encode_group_result, run_group_isolated

    hunter = _replica(spec, config)
    # the plan stage 1 executes (pdns expansion included)
    plan = hunter._executed_plan(hunter._expanded_domains([]))
    if plan.plan_hash != plan_hash:
        raise RuntimeError(
            "shard worker world diverged from the parent: plan hash "
            f"{plan.plan_hash} != {plan_hash}"
        )
    payloads = [
        encode_group_result(
            run_group_isolated(hunter, plan, group, epoch, origin)
        )
        for group in plan.shard(config.shards)[shard_index].groups
        if group.index in groups
    ]
    return shard_index, payloads


def execute_shards_pooled(
    spec: WorldSpec,
    config,
    plan_hash: str,
    epoch: float,
    origin: float,
    groups_by_shard: Dict[int, Tuple[int, ...]],
) -> Dict[int, List[Dict[str, Any]]]:
    """Run the given shards' groups across ``config.shard_workers``
    processes; ``origin`` anchors the group deadline budgets exactly as
    the in-process runner does."""
    workers = max(1, min(config.shard_workers, len(groups_by_shard)))
    results: Dict[int, List[Dict[str, Any]]] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _run_shard, spec, config, plan_hash, epoch, origin, index, groups
            )
            for index, groups in groups_by_shard.items()
        ]
        for future in futures:
            index, payloads = future.result()
            results[index] = payloads
    return results

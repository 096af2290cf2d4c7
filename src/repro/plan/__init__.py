"""Scan-plan IR: stage 1 as an explicit, shardable, hashable plan.

``build_plan`` turns ``(world targets, HunterConfig)`` into a pure
:class:`ScanPlan` — every stage-1 query enumerated as a row of a
:class:`UnitColumns` (read back as a typed :class:`QueryUnit`, or as an
engine task through the lazy :class:`PlannedTasks`), UR units grouped
per nameserver, the whole plan content-hashed so checkpoints and traces
can prove which scan they belong to.  :mod:`repro.plan.shards` executes
the plan's groups in isolation (locally or replayed from a result
store) and :mod:`repro.plan.pool` distributes shards across worker
processes.
"""

from .scanplan import (
    PLAN_FORMAT_VERSION,
    NameserverGroup,
    PlannedTasks,
    QueryUnit,
    ScanPlan,
    Shard,
    UnitColumns,
    build_plan,
)
from .shards import (
    CRASH_SHARD_ENV,
    GroupResult,
    ReducedOutcome,
    decode_group_result,
    encode_group_result,
    fold_resilience,
    run_group_isolated,
    run_shard_scan,
)

__all__ = [
    "PLAN_FORMAT_VERSION",
    "NameserverGroup",
    "PlannedTasks",
    "QueryUnit",
    "ScanPlan",
    "Shard",
    "UnitColumns",
    "build_plan",
    "CRASH_SHARD_ENV",
    "GroupResult",
    "ReducedOutcome",
    "decode_group_result",
    "encode_group_result",
    "fold_resilience",
    "run_group_isolated",
    "run_shard_scan",
]

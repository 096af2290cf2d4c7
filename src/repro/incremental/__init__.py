"""Incremental re-scans: reuse unchanged group results across runs.

The longitudinal workload the paper cares about re-runs the same scan
plan over a slowly changing world.  This package adds the reuse layer
on top of the scan-plan IR (:mod:`repro.plan`): a content-addressed
:class:`GroupResultStore` persisting each nameserver group's merged
outcome, and a :class:`PlanDiffer` deciding, group by group in plan
order, ``hit`` (replay from store) vs ``execute`` (run through the group
runner).  The group runner's clock/RNG pinning guarantees replayed and
re-executed groups compose into byte-identical reports, traces, and
deterministic metrics versus a cold full scan — see DESIGN §15.
"""

from .differ import (
    PLAN_SUMMARY_VERSION,
    GroupDecision,
    PlanDiffer,
    PlanSummaryError,
    diff_plan_summaries,
    load_plan_summary,
    plan_summary_json,
    render_plan_diff,
)
from .store import (
    STORE_FORMAT_VERSION,
    GroupResultStore,
    StoreFormatError,
    group_identity,
    group_state,
    scan_config_fingerprint,
    server_fingerprint,
    state_digest,
)

__all__ = [
    "PLAN_SUMMARY_VERSION",
    "STORE_FORMAT_VERSION",
    "GroupDecision",
    "GroupResultStore",
    "PlanDiffer",
    "PlanSummaryError",
    "StoreFormatError",
    "diff_plan_summaries",
    "group_identity",
    "group_state",
    "load_plan_summary",
    "plan_summary_json",
    "render_plan_diff",
    "scan_config_fingerprint",
    "server_fingerprint",
    "state_digest",
]

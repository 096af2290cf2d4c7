"""Plan diffing: decide which nameserver groups may replay from store.

Two consumers share this module:

* the **incremental scan path** — :class:`PlanDiffer` partitions the
  current :class:`~repro.plan.scanplan.ScanPlan` against a
  :class:`~repro.incremental.store.GroupResultStore` into groups that
  replay (``hit``) and groups that execute through the shard runner
  (``execute``), with a reason per decision;
* the **``repro plan --diff`` command** — :func:`plan_summary_json`
  dumps a plan's deterministic summary (per-group identities included)
  as JSON, :func:`load_plan_summary` validates one from disk, and
  :func:`diff_plan_summaries` reports added/removed/changed groups
  between two dumps.

Cache-safety rules (the byte-identity argument's load-bearing wall):

* a run with **network faults** installed — a global loss profile,
  per-server profiles, or chaos fault windows — bypasses the store
  entirely: the fault profile is not part of the state digest, so a
  slot written under one profile could replay under another (see
  :func:`run_cacheable`);
* a run whose **stage-2/3 sources** may fault (Flaky wrappers with a
  plan that can fire) bypasses the store too — conservative, since a
  degraded run's provenance must reflect the calls it actually made;
* a **group** is only cacheable when its server address resolves to an
  authoritative server whose answer-relevant state is observable (see
  :func:`~repro.incremental.store.server_fingerprint`); recursive-
  fallback servers never cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .store import (
    GroupResultStore,
    group_identity,
    scan_config_fingerprint,
    server_fingerprint,
    state_digest,
)

__all__ = [
    "PLAN_SUMMARY_VERSION",
    "GroupDecision",
    "PlanDiff",
    "PlanDiffer",
    "PlanSummaryError",
    "run_cacheable",
    "plan_summary_json",
    "load_plan_summary",
    "diff_plan_summaries",
    "render_plan_diff",
]

#: bumped whenever the ``repro plan --json`` layout changes
PLAN_SUMMARY_VERSION = 1


# -- cache safety -----------------------------------------------------------


def _network_is_clean(network: Any) -> bool:
    """No installed fault state that could touch a scan query."""
    if getattr(network, "_global_faults", None) is not None:
        return False
    if getattr(network, "_server_faults", None):
        return False
    if getattr(network, "_fault_windows", None):
        return False
    return True


def _source_deterministic(source: Any) -> bool:
    """True unless the source declares (or implies) fault potential."""
    if source is None:
        return True
    flag = getattr(source, "deterministic", None)
    if flag is not None:
        return bool(flag)
    plan = getattr(source, "plan", None)
    if plan is not None and hasattr(plan, "never_faults"):
        return bool(plan.never_faults)
    return True


def run_cacheable(hunter: Any) -> Tuple[bool, Optional[str]]:
    """Whether this run may populate or hit the result store.

    Returns ``(cacheable, reason)`` — the reason names the first
    violated rule (for the bypass note and ``repro plan`` output).
    """
    if not _network_is_clean(hunter.network):
        return False, "network-faults"
    if not _source_deterministic(getattr(hunter, "pdns", None)):
        return False, "nondeterministic-source:pdns"
    if not _source_deterministic(getattr(hunter, "stage2_ipinfo", None)):
        return False, "nondeterministic-source:ipinfo"
    intel = getattr(hunter, "intel", None)
    for vendor in getattr(intel, "vendors", ()):
        if not _source_deterministic(vendor):
            return False, f"nondeterministic-source:{vendor.name}"
    return True, None


# -- per-group partitioning -------------------------------------------------


@dataclass(frozen=True)
class GroupDecision:
    """One group's replay-vs-execute verdict, with provenance."""

    group: int
    server_ip: str
    #: content address of the group (None when uncacheable)
    identity: Optional[str]
    #: full state digest (None when uncacheable)
    digest: Optional[str]
    #: ``hit`` (replay from store) or ``execute`` (shard runner)
    action: str
    #: ``stored`` | ``miss`` | ``stale`` | ``uncacheable``
    reason: str


@dataclass
class PlanDiff:
    """The partition of a plan against a store."""

    decisions: List[GroupDecision]
    #: decoded-payload map for the ``hit`` groups, by group index
    replayed: Dict[int, Dict[str, Any]]

    @property
    def hits(self) -> int:
        return len(self.replayed)

    @property
    def dirty(self) -> int:
        return len(self.decisions) - len(self.replayed)


class PlanDiffer:
    """Partition a plan's groups into store hits and dirty executions."""

    def __init__(self, store: GroupResultStore):
        self.store = store

    def decide(
        self, plan: Any, group: Any, network: Any, config_fp: str, provider: str
    ) -> Tuple[GroupDecision, Optional[Dict[str, Any]]]:
        """One group's decision plus its stored payload on a hit."""
        server = server_fingerprint(network, group.server_ip)
        if server is None:
            self.store.stats["uncacheable"] += 1
            return (
                GroupDecision(
                    group=group.index,
                    server_ip=group.server_ip,
                    identity=None,
                    digest=None,
                    action="execute",
                    reason="uncacheable",
                ),
                None,
            )
        identity = group_identity(plan, group)
        digest = state_digest(identity, server, provider, config_fp)
        payload = self.store.get(identity, digest)
        if payload is not None:
            reason = "stored"
            action = "hit"
        else:
            # the store already counted miss vs invalidate; re-derive
            # the reason from the slot's existence for the decision
            reason = (
                "stale"
                if self.store._group_file(identity).exists()
                else "miss"
            )
            action = "execute"
        return (
            GroupDecision(
                group=group.index,
                server_ip=group.server_ip,
                identity=identity,
                digest=digest,
                action=action,
                reason=reason,
            ),
            payload,
        )

    def partition(
        self,
        plan: Any,
        network: Any,
        config: Any,
        providers: Optional[Dict[str, str]] = None,
    ) -> PlanDiff:
        """Decide every group of ``plan`` against the store.

        ``providers`` maps server address to provider name (the policy
        fingerprint component); missing entries key as ``"unknown"``.
        """
        config_fp = scan_config_fingerprint(config)
        providers = providers or {}
        decisions: List[GroupDecision] = []
        replayed: Dict[int, Dict[str, Any]] = {}
        for group in plan.groups:
            decision, payload = self.decide(
                plan,
                group,
                network,
                config_fp,
                providers.get(group.server_ip, "unknown"),
            )
            decisions.append(decision)
            if payload is not None:
                replayed[group.index] = payload
        return PlanDiff(decisions=decisions, replayed=replayed)


# -- plan summary JSON (repro plan --json / --diff) -------------------------


class PlanSummaryError(ValueError):
    """A plan-summary JSON file is unreadable or malformed."""


def plan_summary_json(plan: Any) -> Dict[str, Any]:
    """The deterministic plan summary as a JSON document.

    Covers exactly what :meth:`ScanPlan.summary` prints plus the
    per-group content identities, so two dumps of the same plan are
    byte-identical and two different plans diff structurally.
    """
    counts = plan.unit_counts()
    return {
        "format": PLAN_SUMMARY_VERSION,
        "plan": plan.plan_hash,
        "seed": plan.seed,
        "probe_domain": plan.probe_domain.to_text(),
        "scanner_ip": plan.scanner_ip,
        "query_types": [int(qt) for qt in plan.query_types],
        "counts": counts,
        "groups": [
            {
                "index": group.index,
                "server": group.server_ip,
                "units": len(group.unit_indices),
                "identity": group_identity(plan, group),
            }
            for group in plan.groups
        ],
    }


def load_plan_summary(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a ``repro plan --json`` dump."""
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise PlanSummaryError(f"cannot read plan summary: {error}")
    except json.JSONDecodeError as error:
        raise PlanSummaryError(f"malformed plan summary JSON: {error}")
    if not isinstance(payload, dict):
        raise PlanSummaryError("malformed plan summary: not an object")
    if payload.get("format") != PLAN_SUMMARY_VERSION:
        raise PlanSummaryError(
            f"unsupported plan summary format {payload.get('format')!r} "
            f"(expected {PLAN_SUMMARY_VERSION})"
        )
    groups = payload.get("groups")
    if not isinstance(groups, list):
        raise PlanSummaryError("malformed plan summary: missing groups")
    for group in groups:
        if not isinstance(group, dict) or not {
            "server",
            "identity",
            "units",
        } <= group.keys():
            raise PlanSummaryError(
                "malformed plan summary: bad group entry"
            )
    return payload


def diff_plan_summaries(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Dict[str, Any]:
    """Structural diff of two plan summaries, keyed by server address.

    ``changed`` lists servers present in both whose group identity
    moved (different query units aimed at the same nameserver).
    """
    old_groups = {group["server"]: group for group in old["groups"]}
    new_groups = {group["server"]: group for group in new["groups"]}
    added = sorted(set(new_groups) - set(old_groups))
    removed = sorted(set(old_groups) - set(new_groups))
    changed = sorted(
        server
        for server in set(old_groups) & set(new_groups)
        if old_groups[server]["identity"] != new_groups[server]["identity"]
    )
    unchanged = len(set(old_groups) & set(new_groups)) - len(changed)
    return {
        "plans": {"old": old.get("plan"), "new": new.get("plan")},
        "identical": old.get("plan") == new.get("plan"),
        "added": added,
        "removed": removed,
        "changed": changed,
        "unchanged": unchanged,
    }


def render_plan_diff(diff: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_plan_summaries`."""
    lines = [
        f"plan diff: old {diff['plans']['old']}",
        f"           new {diff['plans']['new']}",
    ]
    if diff["identical"]:
        lines.append("  plans are identical")
        return "\n".join(lines)
    lines.append(
        f"  +{len(diff['added'])} groups added, "
        f"-{len(diff['removed'])} removed, "
        f"{len(diff['changed'])} changed, "
        f"{diff['unchanged']} unchanged"
    )
    for label in ("added", "removed", "changed"):
        for server in diff[label]:
            lines.append(f"    {label}: {server}")
    return "\n".join(lines)

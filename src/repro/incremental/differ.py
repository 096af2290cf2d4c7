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

Cache safety rests on one key: a group replays only when its state
digest — its identity plus :func:`~repro.incremental.store.group_state`,
everything its outcome is a function of — equals the stored one.  A run
under injected loss, a chaos window or a run deadline therefore keys
(and replays) its own slots, and never reads another profile's; a group
is left out of the store only when its server's answer-relevant state
is not observable (recursive-fallback servers, see
:func:`~repro.incremental.store.server_fingerprint`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .store import GroupResultStore, group_identity, group_state, state_digest

__all__ = [
    "PLAN_SUMMARY_VERSION",
    "GroupDecision",
    "PlanDiff",
    "PlanDiffer",
    "PlanSummaryError",
    "plan_summary_json",
    "load_plan_summary",
    "diff_plan_summaries",
    "render_plan_diff",
]

#: bumped whenever the ``repro plan --json`` layout changes
PLAN_SUMMARY_VERSION = 1


# -- per-group partitioning -------------------------------------------------


@dataclass(frozen=True)
class GroupDecision:
    """One group's replay-vs-execute verdict, with provenance."""

    group: int
    server_ip: str
    #: content address of the group (None when it has no digest)
    identity: Optional[str]
    #: full state digest (None for ``uncacheable`` / ``time-anchored``)
    digest: Optional[str]
    #: ``hit`` (replay from store) or ``execute`` (shard runner)
    action: str
    #: ``stored`` | ``miss`` | ``stale`` | ``uncacheable`` |
    #: ``time-anchored`` (the key needs an epoch and none was given)
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

    def partition(
        self,
        plan: Any,
        network: Any,
        config: Any,
        providers: Optional[Dict[str, str]] = None,
        epoch: Optional[float] = None,
        origin: Optional[float] = None,
    ) -> PlanDiff:
        """Decide every group of ``plan`` against the store.

        ``providers`` maps server address to provider name (missing
        entries key as ``"unknown"``).  ``epoch`` / ``origin`` are the
        classification epoch and the run origin of the scan about to
        execute (:func:`~repro.incremental.store.group_state`); without
        an epoch — a plan inspected before its scan has run — the
        groups whose key reads the clock are ``time-anchored`` and
        execute.
        """
        providers = providers or {}
        decisions: List[GroupDecision] = []
        replayed: Dict[int, Dict[str, Any]] = {}
        for group in plan.groups:
            state, reason = group_state(
                network,
                config,
                group.server_ip,
                providers.get(group.server_ip, "unknown"),
                epoch,
                origin,
            )
            identity = digest = None
            if reason == "uncacheable":
                self.store.stats["uncacheable"] += 1
            elif state is not None:
                identity = group_identity(plan, group)
                digest = state_digest(identity, state)
                payload, reason = self.store.get(identity, digest)
                if payload is not None:
                    replayed[group.index] = payload
            decisions.append(
                GroupDecision(
                    group=group.index,
                    server_ip=group.server_ip,
                    identity=identity,
                    digest=digest,
                    action="hit" if group.index in replayed else "execute",
                    reason=reason,
                )
            )
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

"""The object-per-unit scan plan, kept as a test-only oracle.

Before the columnar plan, ``build_plan`` enumerated every stage-1 query
as a frozen :class:`QueryUnit` (dict-backed, ~165 B and ~2.8 objects
each), shuffled the *lists of units*, hashed the whole plan through one
``json.dumps`` of every unit's identity list, and ``group_identity``
digested a group the same way.  Everything below is that code, verbatim
(imports aside — the format versions are unchanged and come from
``src`` — and less the shard partition, deleted from both), so the
columnar plan can be compared with it unit for unit, group for group,
and digest for digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dns.name import Name, name
from repro.engine.api import QueryTask
from repro.incremental.store import STORE_FORMAT_VERSION
from repro.plan.scanplan import PLAN_FORMAT_VERSION


@dataclass(frozen=True)
class QueryUnit:
    """One planned stage-1 query.

    ``collection`` names which of the three collections the unit
    belongs to and doubles as the engine stage label.  ``tag`` carries
    the interpretation context the collector's response handlers expect
    (the :class:`~repro.core.collector.NameserverTarget` for UR units,
    the :class:`~repro.core.collector.DomainTarget` for correct units);
    it is derived from the world and therefore excluded from the hash.
    """

    collection: str
    server_ip: str
    qname: Name
    qtype: int
    recursion_desired: bool = False
    tag: Any = None

    def to_task(self) -> QueryTask:
        """Materialize the engine task this unit stands for."""
        return QueryTask(
            server_ip=self.server_ip,
            qname=self.qname,
            qtype=self.qtype,
            stage=self.collection,
            recursion_desired=self.recursion_desired,
            tag=self.tag,
        )

    def identity(self) -> List[Any]:
        """The hashed structural identity (no tags, no world objects)."""
        return [
            self.server_ip,
            self.qname.to_text(),
            int(self.qtype),
            self.recursion_desired,
        ]


@dataclass(frozen=True)
class NameserverGroup:
    """All UR units aimed at one nameserver — the unit of execution.

    ``unit_indices`` index into :attr:`ScanPlan.ur_units` (the global,
    shuffled scan order), so merging group results back into one
    sequence is a sort by index, not a re-shuffle.  Groups are keyed by
    nameserver because per-server pacing, circuit breaking, and fault
    profiles are all server-scoped: a group is the largest slice that
    can run in isolation without changing any engine decision.
    """

    index: int
    server_ip: str
    unit_indices: Tuple[int, ...]


@dataclass(frozen=True)
class ScanPlan:
    """The full stage-1 query plan plus its content hash."""

    protective_units: Tuple[QueryUnit, ...]
    correct_units: Tuple[QueryUnit, ...]
    ur_units: Tuple[QueryUnit, ...]
    groups: Tuple[NameserverGroup, ...]
    plan_hash: str
    seed: int
    probe_domain: Name
    scanner_ip: str
    query_types: Tuple[int, ...]

    def units(self, collection: str) -> Tuple[QueryUnit, ...]:
        if collection == "protective":
            return self.protective_units
        if collection == "correct":
            return self.correct_units
        if collection == "ur":
            return self.ur_units
        raise KeyError(f"unknown collection {collection!r}")

    def tasks(self, collection: str) -> List[QueryTask]:
        """Engine tasks for one collection, in planned scan order."""
        return [unit.to_task() for unit in self.units(collection)]

    def unit_counts(self) -> Dict[str, int]:
        return {
            "protective": len(self.protective_units),
            "correct": len(self.correct_units),
            "ur": len(self.ur_units),
        }

    def summary(self) -> str:
        """Deterministic human-readable plan summary (``repro plan``)."""
        counts = self.unit_counts()
        lines = [
            f"scan plan {self.plan_hash}",
            f"  seed: {self.seed}",
            f"  probe domain: {self.probe_domain.to_text()}",
            f"  query types: "
            + ",".join(str(int(qt)) for qt in self.query_types),
            f"  protective units: {counts['protective']}",
            f"  correct units: {counts['correct']}",
            f"  ur units: {counts['ur']}",
            f"  nameserver groups: {len(self.groups)}",
        ]
        return "\n".join(lines)


def _hash_plan(
    protective: Sequence[QueryUnit],
    correct: Sequence[QueryUnit],
    ur: Sequence[QueryUnit],
    seed: int,
    probe_domain: Name,
    scanner_ip: str,
    query_types: Sequence[int],
) -> str:
    payload = {
        "version": PLAN_FORMAT_VERSION,
        "seed": seed,
        "probe_domain": probe_domain.to_text(),
        "scanner_ip": scanner_ip,
        "query_types": [int(qt) for qt in query_types],
        "units": {
            "protective": [unit.identity() for unit in protective],
            "correct": [unit.identity() for unit in correct],
            "ur": [unit.identity() for unit in ur],
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_plan(
    nameservers: Sequence[Any],
    domains: Sequence[Any],
    delegated_to: Dict[Name, Set[str]],
    open_resolver_ips: Sequence[str],
    config: Any,
) -> ScanPlan:
    """Enumerate stage 1 as a :class:`ScanPlan`.

    ``config`` is duck-typed over :class:`~repro.core.hunter.HunterConfig`
    (``seed``, ``query_types``, ``probe_domain``, ``scanner_ip``); the
    world inputs are the hunter's target lists.  The enumeration and
    the two shuffles reproduce the collector's legacy draw sequence
    exactly — protective units are never shuffled, the correct matrix
    consumes the first shuffle, the UR matrix the second.
    """
    rng = random.Random(config.seed)
    query_types = tuple(config.query_types)
    probe = name(config.probe_domain)

    protective = tuple(
        QueryUnit(
            collection="protective",
            server_ip=nameserver.address,
            qname=probe,
            qtype=qtype,
        )
        for nameserver in nameservers
        for qtype in query_types
    )

    correct: List[QueryUnit] = []
    for resolver_ip in open_resolver_ips:
        for target in domains:
            for qtype in query_types:
                correct.append(
                    QueryUnit(
                        collection="correct",
                        server_ip=resolver_ip,
                        qname=target.domain,
                        qtype=qtype,
                        recursion_desired=True,
                        tag=target,
                    )
                )
    rng.shuffle(correct)

    ur: List[QueryUnit] = []
    for nameserver in nameservers:
        for target in domains:
            if nameserver.address in delegated_to.get(
                target.domain, set()
            ):
                continue
            for qtype in query_types:
                ur.append(
                    QueryUnit(
                        collection="ur",
                        server_ip=nameserver.address,
                        qname=target.domain,
                        qtype=qtype,
                        tag=nameserver,
                    )
                )
    rng.shuffle(ur)  # ethics: randomized query order

    # group UR units per nameserver, keyed in first-appearance order of
    # the shuffled scan so grouping is as deterministic as the shuffle
    order: Dict[str, List[int]] = {}
    for index, unit in enumerate(ur):
        order.setdefault(unit.server_ip, []).append(index)
    groups = tuple(
        NameserverGroup(
            index=group_index,
            server_ip=server_ip,
            unit_indices=tuple(indices),
        )
        for group_index, (server_ip, indices) in enumerate(order.items())
    )

    plan_hash = _hash_plan(
        protective,
        correct,
        ur,
        seed=config.seed,
        probe_domain=probe,
        scanner_ip=config.scanner_ip,
        query_types=query_types,
    )
    return ScanPlan(
        protective_units=protective,
        correct_units=tuple(correct),
        ur_units=tuple(ur),
        groups=groups,
        plan_hash=plan_hash,
        seed=config.seed,
        probe_domain=probe,
        scanner_ip=config.scanner_ip,
        query_types=query_types,
    )


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def group_identity(plan: Any, group: Any) -> str:
    """``repro.incremental.store.group_identity`` as it was."""
    return _digest(
        {
            "version": STORE_FORMAT_VERSION,
            "server": group.server_ip,
            "units": [
                plan.ur_units[index].identity()
                for index in group.unit_indices
            ],
        }
    )

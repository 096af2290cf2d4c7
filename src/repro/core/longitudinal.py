"""Longitudinal measurement: repeated URHunter snapshots and their diffs.

The paper measured twice (April 2022 for A records, December 2022 for
TXT) and its case studies hinge on change over time (Dark.IoT's EmerDNS
abandonment, records still resolvable "at the time of writing").  This
module runs URHunter repeatedly against an evolving world and diffs the
classified record sets — the machinery a longitudinal deployment of
URHunter would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dns.name import Name
from .hunter import URHunter
from .records import ClassifiedUR, URCategory
from .report import MeasurementReport

#: the unique-UR key type (domain, nameserver IP, rrtype, rdata)
UrKey = Tuple[Name, str, int, str]


@dataclass
class ReportDiff:
    """What changed between two measurement snapshots."""

    appeared: List[ClassifiedUR]
    disappeared: List[ClassifiedUR]
    persisted: int
    #: URs present in both whose category changed: key -> (old, new)
    category_changes: Dict[UrKey, Tuple[URCategory, URCategory]]

    @property
    def newly_malicious(self) -> List[ClassifiedUR]:
        """URs that appeared already-malicious in the later snapshot."""
        return [
            entry for entry in self.appeared if entry.is_malicious
        ]

    def became_malicious(self) -> List[UrKey]:
        """Persisted URs upgraded to malicious (e.g. late intel flags)."""
        return [
            key
            for key, (old, new) in self.category_changes.items()
            if new is URCategory.MALICIOUS
            and old is not URCategory.MALICIOUS
        ]

    def summary(self) -> str:
        return (
            f"+{len(self.appeared)} URs appeared "
            f"({len(self.newly_malicious)} malicious), "
            f"-{len(self.disappeared)} disappeared, "
            f"{self.persisted} persisted "
            f"({len(self.category_changes)} changed category)"
        )


def diff_reports(
    before: MeasurementReport, after: MeasurementReport
) -> ReportDiff:
    """Diff two snapshots by unique-UR key."""
    old = {entry.record.key: entry for entry in before.classified}
    new = {entry.record.key: entry for entry in after.classified}
    appeared = [entry for key, entry in new.items() if key not in old]
    disappeared = [entry for key, entry in old.items() if key not in new]
    category_changes: Dict[UrKey, Tuple[URCategory, URCategory]] = {}
    persisted = 0
    for key in old.keys() & new.keys():
        persisted += 1
        if old[key].category is not new[key].category:
            category_changes[key] = (old[key].category, new[key].category)
    return ReportDiff(
        appeared=appeared,
        disappeared=disappeared,
        persisted=persisted,
        category_changes=category_changes,
    )


#: a hook that mutates the world between snapshots (attacker churn,
#: provider mitigation roll-outs, intel updates, ...)
WorldMutation = Callable[["object", int], None]


@dataclass
class Snapshot:
    """One longitudinal round."""

    index: int
    taken_at: float
    report: MeasurementReport


class LongitudinalStudy:
    """Run URHunter repeatedly against a world, diffing as it evolves."""

    def __init__(
        self,
        world: "object",
        mutate: Optional[WorldMutation] = None,
    ):
        self.world = world
        self.mutate = mutate
        self.snapshots: List[Snapshot] = []

    def run(
        self, rounds: int = 2, interval: float = 30 * 24 * 3600.0
    ) -> List[Snapshot]:
        """Take ``rounds`` snapshots, advancing the virtual clock and
        applying the mutation hook between them."""
        if rounds < 1:
            raise ValueError("need at least one round")
        for index in range(rounds):
            if index > 0:
                self.world.network.tick(interval)
                if self.mutate is not None:
                    self.mutate(self.world, index)
            hunter = URHunter.from_world(self.world)
            report = hunter.run(validate=False)
            self.snapshots.append(
                Snapshot(
                    index=index,
                    taken_at=self.world.network.now,
                    report=report,
                )
            )
        return self.snapshots

    def diffs(self) -> List[ReportDiff]:
        """Consecutive-snapshot diffs (empty with fewer than two)."""
        return [
            diff_reports(
                self.snapshots[index].report,
                self.snapshots[index + 1].report,
            )
            for index in range(len(self.snapshots) - 1)
        ]

"""Resilience metrics snapshot: hedges, sheds, AIMD activity.

:class:`ResilienceMetrics` implements the
:class:`~repro.obs.metrics.MetricsSnapshot` protocol so it plugs into
the same :class:`~repro.obs.metrics.MetricRegistry` as the scan-engine
and stage-2 snapshots.  It is registered (and rendered, and included in
the metrics document) only when :attr:`active` — a healthy run with
resilience enabled produces no counters and therefore byte-identical
reports to a run without resilience.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["ResilienceMetrics"]


class ResilienceMetrics:
    """Deterministic counters for the adaptive resilience layer."""

    name = "resilience"
    heading = "resilience metrics:"

    __slots__ = ("hedges_fired", "hedges_won", "hedges_wasted", "shed",
                 "aimd_cuts", "aimd_wait", "spurious_retransmits")

    def __init__(self) -> None:
        self.hedges_fired = 0
        self.hedges_won = 0
        self.hedges_wasted = 0
        #: loss-accounting ledger keyed ``shed:<reason>``
        self.shed: Dict[str, int] = {}
        self.aimd_cuts = 0
        self.aimd_wait = 0.0
        #: answered attempts whose round trip outlasted the timer they
        #: were sent under — a real scanner would have re-sent
        self.spurious_retransmits = 0

    @property
    def active(self) -> bool:
        """True once any resilience mechanism actually did something
        (``spurious_retransmits`` is an observation, not an action: a
        clean run whose resolvers answer unevenly stays inactive)."""
        return bool(
            self.hedges_fired
            or self.hedges_won
            or self.hedges_wasted
            or self.shed
            or self.aimd_cuts
            or self.aimd_wait
        )

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def note_shed(self, reason: str) -> None:
        key = f"shed:{reason}"
        self.shed[key] = self.shed.get(key, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total,
            "aimd_cuts": self.aimd_cuts,
            "aimd_wait": round(self.aimd_wait, 6),
            "spurious_retransmits": self.spurious_retransmits,
        }

    def merge(self, other: "ResilienceMetrics") -> "ResilienceMetrics":
        merged = ResilienceMetrics()
        merged.hedges_fired = self.hedges_fired + other.hedges_fired
        merged.hedges_won = self.hedges_won + other.hedges_won
        merged.hedges_wasted = self.hedges_wasted + other.hedges_wasted
        merged.aimd_cuts = self.aimd_cuts + other.aimd_cuts
        merged.aimd_wait = self.aimd_wait + other.aimd_wait
        merged.spurious_retransmits = (
            self.spurious_retransmits + other.spurious_retransmits
        )
        for source in (self.shed, other.shed):
            for key, count in source.items():
                merged.shed[key] = merged.shed.get(key, 0) + count
        return merged

    def summary(self, indent: str = "") -> str:
        lines = [
            f"{indent}hedges: fired={self.hedges_fired} "
            f"won={self.hedges_won} wasted={self.hedges_wasted}",
            f"{indent}spurious retransmits: {self.spurious_retransmits}",
            f"{indent}aimd: cuts={self.aimd_cuts} "
            f"wait={self.aimd_wait:.2f}s",
            f"{indent}shed: {self.shed_total}",
        ]
        for key, count in sorted(self.shed.items()):
            lines.append(f"{indent}  {key}: {count}")
        return "\n".join(lines)

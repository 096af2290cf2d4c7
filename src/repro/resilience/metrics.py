"""Resilience metrics: hedges, sheds, AIMD activity.

The counters live in the stage-1 ledger,
:class:`~repro.engine.metrics.ScanMetrics`, which every engine writes
and every group merges.  :class:`ResilienceMetrics` is a read-only
snapshot of them, taken from a merged ledger: it is attached to the
report (and rendered, and included in the metrics document) only when
:attr:`active` — a healthy run with resilience enabled produces no
counters and therefore byte-identical reports to a run without
resilience.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ResilienceMetrics"]


class ResilienceMetrics:
    """Deterministic counters of the adaptive resilience layer, copied
    from a :class:`~repro.engine.metrics.ScanMetrics` when built."""

    __slots__ = ("hedges_fired", "hedges_won", "hedges_wasted", "shed",
                 "aimd_cuts", "aimd_wait", "spurious_retransmits")

    def __init__(self, metrics) -> None:
        self.hedges_fired = metrics.hedges_fired
        self.hedges_won = metrics.hedges_won
        self.hedges_wasted = metrics.hedges_wasted
        #: loss-accounting ledger keyed ``shed:<reason>``
        self.shed: Dict[str, int] = dict(metrics.shed_by_reason)
        self.aimd_cuts = metrics.aimd_cuts
        self.aimd_wait = metrics.aimd_wait
        #: answered attempts whose round trip outlasted the timer they
        #: were sent under — a real scanner would have re-sent
        self.spurious_retransmits = metrics.spurious_retransmits

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

"""Virtual-clock deadline budgets with deterministic load shedding.

A :class:`DeadlineBudget` bounds how much *simulated* time a run (and
each pipeline stage within it) may spend on the wire.  Once a deadline
passes, engines stop issuing queries that have not yet been sent and
yield them back as ``SHED`` outcomes instead.  Shedding is a pure
function of the virtual clock and the engine schedule, so batch and
stream executions shed the exact same tasks — and a budget of ``0.0``
(the default) never exhausts.

Shed queries are *not* silently dropped: the engine counts them in a
dedicated ``shed`` stage counter and the per-reason ledger of
:class:`~repro.resilience.metrics.ResilienceMetrics`, keeping the
``unaccounted == 0`` loss-accounting gate intact.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """Per-run and per-stage virtual-time deadlines.

    Parameters
    ----------
    run_deadline:
        Maximum virtual seconds for the whole run, measured from the
        first :meth:`begin` call.  ``0.0`` disables the run deadline.
    stage_deadline:
        Maximum virtual seconds per pipeline phase, measured from the
        first task of that phase.  ``0.0`` disables stage deadlines.

    The budget is anchored lazily: :meth:`begin` pins the run origin
    (idempotently, so the runner and the engine may both call it) and
    :meth:`enter_phase` pins each phase at the moment the engine first
    sees one of its tasks.  All checks are strict ``>=`` comparisons on
    the virtual clock — no wall time, no randomness.
    """

    __slots__ = ("run_deadline", "stage_deadline", "_run_start",
                 "_phase_starts", "_announced")

    def __init__(self, run_deadline: float = 0.0,
                 stage_deadline: float = 0.0) -> None:
        if run_deadline < 0 or stage_deadline < 0:
            raise ValueError("deadlines must be >= 0")
        self.run_deadline = float(run_deadline)
        self.stage_deadline = float(stage_deadline)
        self._run_start: Optional[float] = None
        self._phase_starts: Dict[str, float] = {}
        self._announced: Set[str] = set()

    def begin(self, now: float) -> float:
        """Anchor the run origin at ``now`` unless an earlier call already
        did; returns the origin (the group runner anchors its per-group
        budgets there)."""
        if self._run_start is None:
            self._run_start = now
        return self._run_start

    def enter_phase(self, phase: str, now: float) -> None:
        """Anchor ``phase`` at its first task; later calls are ignored."""
        self._phase_starts.setdefault(phase, now)

    def run_exhausted(self, now: float) -> bool:
        """True once the whole-run deadline has passed."""
        if self.run_deadline <= 0 or self._run_start is None:
            return False
        return now - self._run_start >= self.run_deadline

    def check(self, now: float, phase: str) -> Optional[str]:
        """Reason string if sends must stop, else ``None``.

        The run deadline dominates the stage deadline so a shed task is
        attributed to the tightest scope that expired.
        """
        if self.run_exhausted(now):
            return "deadline-run"
        if self.stage_deadline > 0:
            start = self._phase_starts.get(phase)
            if start is not None and now - start >= self.stage_deadline:
                return "deadline-stage"
        return None

    def announce(self, phase: str, reason: str) -> bool:
        """True the first time ``(phase, reason)`` exhausts.

        Used to bound ``budget.exhausted`` trace events to one per
        phase and reason instead of one per shed task.
        """
        key = f"{phase}:{reason}"
        if key in self._announced:
            return False
        self._announced.add(key)
        return True

"""AIMD adaptive send credit of one nameserver's lane.

Each engine drives one server's lane, one query at a time, so there is
no window to narrow; the continuous dual of a window is *send credit*: a
factor in ``[floor, 1.0]`` that divides the *rate* the lane sends at.
Credit is cut multiplicatively on a timeout and restored additively on
an answer — classic AIMD, expressed as pacing rather than parallelism.

Below full credit the next send may go no earlier than::

    last_send + interval / credit

where ``interval`` is what the lane does when healthy — the engine
passes the larger of its configured per-server pacing and the server's
smoothed round trip.  Halving the credit therefore halves the
send rate: an unpaced lane pays one extra round trip after a loss, a
paced lane doubles its next gap.  The rule has no timeout term on
purpose: a wait anchored on the timeout was paid *on top of* the
timeout or hedge park it followed (it even delayed the hedge), and
vanished under pacing, where any fraction of the timeout is shorter
than the token bucket's own gap.  With nothing observed and no pacing
set the interval is zero and so is the wait — a server that never
answers is the circuit breaker's, not AIMD's.

Full credit (the starting state, and the steady state on a healthy
world) adds exactly zero delay — AIMD is a strict no-op until the first
failure, which keeps clean runs byte-identical to a no-resilience
baseline.  AIMD waits are waited out exactly like
:class:`~repro.engine.ratelimit.TokenBucket` pacing, and compose with
it by taking the *later* of the two ready times.  Circuit-breaker
trips still win: the breaker is consulted after pacing and skips the
task outright.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AimdController"]

_CUT_FACTOR = 0.5
_GROW_STEP = 0.25
_CREDIT_FLOOR = 1.0 / 16.0


class AimdController:
    """Additive-increase / multiplicative-decrease send credit."""

    __slots__ = ("credit", "_last_send")

    def __init__(self) -> None:
        #: the lane's send credit; 1.0 is full credit
        self.credit = 1.0
        #: virtual time of the lane's last send
        self._last_send: Optional[float] = None

    def ready_at(self, now: float, interval: float) -> float:
        """Earliest virtual time the next send may go, ``interval``
        being the lane's healthy gap between sends.

        Full credit ⇒ ``now`` (no delay).  Reduced credit stretches the
        interval since the previous send.
        """
        last = self._last_send
        if self.credit >= 1.0 or last is None:
            return now
        return max(now, last + interval / self.credit)

    def note_send(self, now: float) -> None:
        self._last_send = now

    def on_success(self) -> None:
        """Additive increase toward full credit."""
        if self.credit < 1.0:
            self.credit = min(self.credit + _GROW_STEP, 1.0)

    def on_failure(self) -> bool:
        """Multiplicative decrease; returns True when a cut happened
        (i.e. credit was above the floor)."""
        if self.credit <= _CREDIT_FLOOR:
            return False
        self.credit = max(self.credit * _CUT_FACTOR, _CREDIT_FLOOR)
        return True

"""AIMD adaptive send credit per nameserver.

The engine sends to a nameserver one query at a time, so there is no
window to narrow; the continuous dual of a window is *send credit*: a
factor in ``[floor, 1.0]`` that divides the *rate* the lane sends at.
Credit is cut multiplicatively on a timeout and restored additively on
an answer — classic AIMD, expressed as pacing rather than parallelism.

Below full credit the next send to a server may go no earlier than::

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

from typing import Dict

__all__ = ["AimdController"]

_CUT_FACTOR = 0.5
_GROW_STEP = 0.25
_CREDIT_FLOOR = 1.0 / 16.0


class AimdController:
    """Additive-increase / multiplicative-decrease send credit."""

    __slots__ = ("_credit", "_last_send")

    def __init__(self) -> None:
        # server -> credit; missing key means full credit (1.0)
        self._credit: Dict[str, float] = {}
        # server -> virtual time of its last send
        self._last_send: Dict[str, float] = {}

    def credit(self, server_ip: str) -> float:
        return self._credit.get(server_ip, 1.0)

    def ready_at(self, server_ip: str, now: float, interval: float) -> float:
        """Earliest virtual time the next send to ``server_ip`` may go,
        ``interval`` being the lane's healthy gap between sends.

        Full credit ⇒ ``now`` (no delay).  Reduced credit stretches the
        interval since the previous send to that server.
        """
        credit = self._credit.get(server_ip)
        last = self._last_send.get(server_ip)
        if credit is None or last is None:
            return now
        return max(now, last + interval / credit)

    def note_send(self, server_ip: str, now: float) -> None:
        self._last_send[server_ip] = now

    def on_success(self, server_ip: str) -> None:
        """Additive increase toward full credit; drops the key at 1.0 so
        a recovered server leaves no state behind."""
        credit = self._credit.get(server_ip)
        if credit is None:
            return
        if credit + _GROW_STEP >= 1.0:
            del self._credit[server_ip]
        else:
            self._credit[server_ip] = credit + _GROW_STEP

    def on_failure(self, server_ip: str) -> bool:
        """Multiplicative decrease; returns True when a cut happened
        (i.e. credit was above the floor)."""
        credit = self._credit.get(server_ip, 1.0)
        if credit <= _CREDIT_FLOOR:
            return False
        self._credit[server_ip] = max(credit * _CUT_FACTOR, _CREDIT_FLOOR)
        return True

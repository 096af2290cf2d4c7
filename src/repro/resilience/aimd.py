"""AIMD adaptive send credit per nameserver and provider.

The engine sends to a nameserver one query at a time, so there is no
window to narrow; the continuous dual of a window is *send credit*: a
factor in ``(floor, 1.0]`` that stretches the inter-send interval for a
server (and its provider aggregate) as failures accumulate.  Credit
is cut multiplicatively on timeout/SERVFAIL and restored additively on
success — classic AIMD, expressed as pacing rather than parallelism.

The effective extra interval for a send is::

    (1.0 - min(server_credit, provider_credit)) * timeout * 0.5

so full credit (the starting state, and the steady state on a healthy
world) adds exactly zero delay — AIMD is a strict no-op until the first
failure, which keeps clean runs byte-identical to a no-resilience
baseline.  AIMD waits are waited out exactly like
:class:`~repro.engine.ratelimit.TokenBucket` pacing, and compose with
it by taking the *later* of the two ready times.  Circuit-breaker
trips still win: the breaker is consulted after pacing and skips the
task outright.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["AimdController"]

_CUT_FACTOR = 0.5
_GROW_STEP = 0.25
_CREDIT_FLOOR = 1.0 / 16.0
#: extra interval at zero credit, as a fraction of the engine timeout
_INTERVAL_FRACTION = 0.5


class AimdController:
    """Additive-increase / multiplicative-decrease send credit."""

    __slots__ = ("timeout", "_credit", "_last_send", "cuts")

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        self.timeout = float(timeout)
        # key -> credit; missing key means full credit (1.0)
        self._credit: Dict[str, float] = {}
        # server -> virtual time of its last send
        self._last_send: Dict[str, float] = {}
        self.cuts = 0

    @staticmethod
    def _provider_key(provider: Optional[str]) -> Optional[str]:
        return None if provider is None else f"provider:{provider}"

    def credit(self, key: str) -> float:
        return self._credit.get(key, 1.0)

    def _effective_credit(self, server_ip: str,
                          provider: Optional[str]) -> float:
        credit = self.credit(server_ip)
        provider_key = self._provider_key(provider)
        if provider_key is not None:
            credit = min(credit, self.credit(provider_key))
        return credit

    def ready_at(self, server_ip: str, provider: Optional[str],
                 now: float) -> float:
        """Earliest virtual time the next send to ``server_ip`` may go.

        Full credit ⇒ ``now`` (no delay).  Reduced credit stretches the
        interval since the previous send to that server.
        """
        credit = self._effective_credit(server_ip, provider)
        if credit >= 1.0:
            return now
        last = self._last_send.get(server_ip)
        if last is None:
            return now
        extra = (1.0 - credit) * self.timeout * _INTERVAL_FRACTION
        return max(now, last + extra)

    def note_send(self, server_ip: str, now: float) -> None:
        self._last_send[server_ip] = now

    def on_success(self, server_ip: str, provider: Optional[str]) -> None:
        """Additive increase toward full credit; drops keys at 1.0 so a
        recovered server leaves no state behind."""
        for key in (server_ip, self._provider_key(provider)):
            if key is None or key not in self._credit:
                continue
            grown = self._credit[key] + _GROW_STEP
            if grown >= 1.0:
                del self._credit[key]
            else:
                self._credit[key] = grown

    def on_failure(self, server_ip: str, provider: Optional[str]) -> bool:
        """Multiplicative decrease; returns True when a cut happened
        (i.e. credit was above the floor)."""
        cut = False
        for key in (server_ip, self._provider_key(provider)):
            if key is None:
                continue
            current = self._credit.get(key, 1.0)
            if current <= _CREDIT_FLOOR:
                continue
            self._credit[key] = max(current * _CUT_FACTOR, _CREDIT_FLOOR)
            cut = True
        if cut:
            self.cuts += 1
        return cut

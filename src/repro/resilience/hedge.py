"""Hedged second attempts for slow nameservers.

In a real scanner a hedge races a duplicate query against a straggling
first attempt and takes whichever answers first.  Under the simulated
internet failure is known the moment the transaction resolves, so the
same latency win is expressed on the retry path: instead of charging a
timed-out first attempt the full ``timeout + backoff`` window before
retrying, the engine waits only the much shorter *hedge delay* and
fires the second attempt immediately after.  The retry *is*
the hedge — loss accounting is unchanged (a hedge is a retry: one more
query sent, one more timeout if it also fails).

The per-server delay is derived from observed successful latency (a
running mean, scaled) so healthy-but-slow servers get proportionate
patience, clamped to stay strictly below the engine timeout.  With no
observations yet the configured base delay applies.  Everything is a
pure function of prior engine events, so the hedge schedule is
identical across batch and stream executions.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["HedgeController"]

#: hedge after this multiple of the observed mean latency
_LATENCY_SCALE = 3.0
#: never hedge later than this fraction of the engine timeout
_TIMEOUT_FRACTION = 0.5


class HedgeController:
    """Derives per-server hedge delays from observed latency."""

    __slots__ = ("base_delay", "timeout", "_observed", "fired", "won",
                 "wasted")

    def __init__(self, base_delay: float, timeout: float) -> None:
        if base_delay <= 0:
            raise ValueError("base_delay must be > 0")
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        self.base_delay = float(base_delay)
        self.timeout = float(timeout)
        # server -> (total latency, samples)
        self._observed: Dict[str, Tuple[float, int]] = {}
        self.fired = 0
        self.won = 0
        self.wasted = 0

    def observe(self, server_ip: str, latency: float) -> None:
        """Record a successful response latency for ``server_ip``."""
        total, count = self._observed.get(server_ip, (0.0, 0))
        self._observed[server_ip] = (total + max(latency, 0.0), count + 1)

    def delay(self, server_ip: str) -> float:
        """Hedge delay for ``server_ip``: observed-latency derived,
        clamped to ``[base_delay, timeout * 0.5)``."""
        ceiling = self.timeout * _TIMEOUT_FRACTION
        floor = min(self.base_delay, ceiling * 0.999)
        observed = self._observed.get(server_ip)
        if observed is None or observed[1] == 0:
            return floor
        mean = observed[0] / observed[1]
        derived = mean * _LATENCY_SCALE
        return max(floor, min(derived, ceiling * 0.999))

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

The per-server delay is derived from the server's observed mean answer
latency (the engine's :class:`~repro.engine.latency.ServerLatency`,
which the AIMD interval reads too), scaled so healthy-but-slow servers
get proportionate patience and clamped to stay strictly below the
engine timeout.  With no observations yet the configured base delay
applies.  Everything is a pure function of prior engine events, so the
hedge schedule is identical across batch and stream executions.
"""

from __future__ import annotations

__all__ = ["HedgeController"]

#: hedge after this multiple of the observed mean latency
_LATENCY_SCALE = 3.0
#: never hedge later than this fraction of the engine timeout
_TIMEOUT_FRACTION = 0.5


class HedgeController:
    """Derives per-server hedge delays from observed latency."""

    __slots__ = ("base_delay", "timeout", "fired", "won", "wasted")

    def __init__(self, base_delay: float, timeout: float) -> None:
        if base_delay <= 0:
            raise ValueError("base_delay must be > 0")
        if timeout <= 0:
            raise ValueError("timeout must be > 0")
        self.base_delay = float(base_delay)
        self.timeout = float(timeout)
        self.fired = 0
        self.won = 0
        self.wasted = 0

    def delay(self, mean_latency: float) -> float:
        """Hedge delay for a server whose answers took ``mean_latency``
        on average (0.0: none observed yet): latency derived, clamped
        to ``[base_delay, timeout * 0.5)``."""
        ceiling = self.timeout * _TIMEOUT_FRACTION * 0.999
        floor = min(self.base_delay, ceiling)
        return max(floor, min(mean_latency * _LATENCY_SCALE, ceiling))

"""Observed answer latency per server.

What a lane does when healthy: the running mean of the round trips a
server answered in.  The engine owns one per run of tasks and feeds it
on every answer while a resilience controller is attached; the hedge
delay (:class:`~repro.resilience.hedge.HedgeController`) and the AIMD
send interval (:class:`~repro.resilience.aimd.AimdController`) are both
derived from it, so the two can never disagree about how fast a server
is.
"""

from __future__ import annotations

from typing import Dict, Tuple


class ServerLatency:
    """Running mean answer latency, keyed by server address."""

    __slots__ = ("_observed",)

    def __init__(self) -> None:
        # server -> (total latency, samples)
        self._observed: Dict[str, Tuple[float, int]] = {}

    def observe(self, server_ip: str, latency: float) -> None:
        """Record one answered round trip to ``server_ip``."""
        total, count = self._observed.get(server_ip, (0.0, 0))
        self._observed[server_ip] = (total + max(latency, 0.0), count + 1)

    def mean(self, server_ip: str) -> float:
        """Mean answer latency of ``server_ip``; 0.0 before its first
        answer."""
        observed = self._observed.get(server_ip)
        return 0.0 if observed is None else observed[0] / observed[1]

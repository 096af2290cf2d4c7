"""The one round-trip estimator, per server (RFC 6298).

The first answered round trip ``R`` sets ``SRTT = R, RTTVAR = R / 2``;
every later one ``RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|``, then
``SRTT = 7/8 SRTT + 1/8 R``.  The engine owns one per run of tasks,
feeds it on every answer while hedging or AIMD is on, and reads every
retry timer (:meth:`ServerLatency.rto`) and AIMD's healthy interval
(:meth:`ServerLatency.srtt`) from it, so the two can never disagree
about how fast a server is.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

#: clock granularity ``G``: however steady the server, its timer stays
#: this far above its smoothed round trip
CLOCK_GRANULARITY = 0.010


class ServerLatency:
    """Smoothed round trip and its deviation, keyed by server address."""

    __slots__ = ("_estimates",)

    def __init__(self) -> None:
        # server -> (SRTT, RTTVAR)
        self._estimates: Dict[str, Tuple[float, float]] = {}

    def observe(self, server_ip: str, latency: float) -> None:
        """Record one answered round trip to ``server_ip``."""
        sample = max(latency, 0.0)
        estimate = self._estimates.get(server_ip)
        if estimate is None:
            self._estimates[server_ip] = (sample, sample / 2)
            return
        srtt, rttvar = estimate
        self._estimates[server_ip] = (
            0.875 * srtt + 0.125 * sample,
            0.75 * rttvar + 0.25 * abs(srtt - sample),
        )

    def srtt(self, server_ip: str) -> float:
        """``SRTT`` of ``server_ip``; 0.0 before its first answer."""
        estimate = self._estimates.get(server_ip)
        return 0.0 if estimate is None else estimate[0]

    def rto(self, server_ip: str) -> float:
        """``SRTT + max(G, 4 RTTVAR)`` of ``server_ip``; infinite before
        its first answer, so a ``min`` leaves the configured ceiling."""
        estimate = self._estimates.get(server_ip)
        if estimate is None:
            return math.inf
        srtt, rttvar = estimate
        return srtt + max(CLOCK_GRANULARITY, 4 * rttvar)

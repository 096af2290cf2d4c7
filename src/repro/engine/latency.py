"""The one round-trip estimator of a server's lane (RFC 6298).

The first answered round trip ``R`` sets ``SRTT = R, RTTVAR = R / 2``;
every later one ``RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|``, then
``SRTT = 7/8 SRTT + 1/8 R``.  Each engine drives one server's lane and
owns one estimator, feeds it on every answer while hedging or AIMD is
on, and reads every retry timer (:meth:`ServerLatency.rto`) and AIMD's
healthy interval (:meth:`ServerLatency.srtt`) from it, so the two can
never disagree about how fast the server is.
"""

from __future__ import annotations

import math
from typing import Optional

#: clock granularity ``G``: however steady the server, its timer stays
#: this far above its smoothed round trip
CLOCK_GRANULARITY = 0.010


class ServerLatency:
    """Smoothed round trip and its deviation of one server."""

    __slots__ = ("_srtt", "_rttvar")

    def __init__(self) -> None:
        #: ``SRTT``; ``None`` before the first answer
        self._srtt: Optional[float] = None
        self._rttvar = 0.0

    def observe(self, latency: float) -> None:
        """Record one answered round trip."""
        sample = max(latency, 0.0)
        srtt = self._srtt
        if srtt is None:
            self._srtt, self._rttvar = sample, sample / 2
            return
        self._srtt = 0.875 * srtt + 0.125 * sample
        self._rttvar = 0.75 * self._rttvar + 0.25 * abs(srtt - sample)

    def srtt(self) -> float:
        """``SRTT``; 0.0 before the first answer."""
        return 0.0 if self._srtt is None else self._srtt

    def rto(self) -> float:
        """``SRTT + max(G, 4 RTTVAR)``; infinite before the first
        answer, so a ``min`` leaves the configured ceiling."""
        if self._srtt is None:
            return math.inf
        return self._srtt + max(CLOCK_GRANULARITY, 4 * self._rttvar)

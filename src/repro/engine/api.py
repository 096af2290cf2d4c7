"""The scan engine's outcome and policy types.

Stage 1 of the pipeline is, at heart, a work matrix: (nameserver ×
domain × qtype) cells, each one DNS query.  The paper's URHunter pushed
~17.8M such cells through 8,941 nameservers under strict pacing.  The
group runner hands an engine one server's query messages, one per
planned cell, and reads one :class:`QueryOutcome` per query back; *how*
a query is paced, retried
and accounted is :class:`~repro.engine.batched.BatchedEngine`'s, under
the knobs of :class:`EnginePolicy` (retries, timeout, pacing) and the
fixed :func:`backoff_delay`, with observability in
:class:`~repro.engine.metrics.ScanMetrics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..dns.message import Message


class OutcomeStatus(enum.Enum):
    """How a query ended."""

    #: a response (of any rcode) came back
    ANSWERED = "answered"
    #: every attempt timed out
    GAVE_UP = "gave_up"
    #: the query was never sent — the server's circuit was open
    SKIPPED = "skipped"
    #: the query was never sent — a deadline budget shed it
    SHED = "shed"


@dataclass(slots=True)
class QueryOutcome:
    """The result of driving one query to completion."""

    status: OutcomeStatus
    response: Optional[Message] = None
    #: attempts actually sent on the wire (0 for SKIPPED)
    attempts: int = 0
    #: virtual time of the final attempt (or of the skip decision)
    completed_at: float = 0.0

    @property
    def answered(self) -> bool:
        return self.status is OutcomeStatus.ANSWERED


#: the first retry waits this many virtual seconds ...
BACKOFF_BASE = 0.5
#: ... and each further retry multiplies the wait by this factor
BACKOFF_FACTOR = 2.0


def backoff_delay(attempt: int) -> float:
    """Wait before retry number ``attempt`` (1-based)."""
    return BACKOFF_BASE * (BACKOFF_FACTOR ** (attempt - 1))


@dataclass
class EnginePolicy:
    """Fault-tolerance and pacing policy of the scan engine.

    Defaults are conservative: a couple of retries with exponential
    backoff (:func:`backoff_delay`) and no pacing
    (``per_server_interval=0``).
    """

    #: re-sends after the first attempt times out
    retries: int = 2
    #: virtual seconds a lost query costs before the scanner gives up
    timeout: float = 5.0
    #: minimum virtual seconds between queries to one server (ethics
    #: pacing; the paper averaged one query per server per 130 s)
    per_server_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.per_server_interval < 0:
            raise ValueError(
                "per_server_interval must be >= 0, "
                f"got {self.per_server_interval}"
            )

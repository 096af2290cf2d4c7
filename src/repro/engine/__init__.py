"""The stage-1 scan engine.

:class:`~repro.engine.batched.BatchedEngine` drives the collector's
:class:`~repro.engine.api.QueryTask` values over the simulated internet
— pacing, retries, circuit breaking and accounting — so the collector
only says *what* to ask and interprets the outcomes.
"""

from __future__ import annotations

from .api import EnginePolicy, OutcomeStatus, QueryOutcome, QueryTask
from .batched import BatchedEngine
from .breaker import CircuitBreaker, CircuitState
from .latency import ServerLatency
from .metrics import LatencyHistogram, ScanMetrics, StageCounters
from .ratelimit import RateLimiter, TokenBucket

__all__ = [
    "BatchedEngine",
    "CircuitBreaker",
    "CircuitState",
    "EnginePolicy",
    "LatencyHistogram",
    "OutcomeStatus",
    "QueryOutcome",
    "QueryTask",
    "RateLimiter",
    "ScanMetrics",
    "ServerLatency",
    "StageCounters",
    "TokenBucket",
]

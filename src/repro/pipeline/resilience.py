"""Retry, circuit breaking, and health accounting for data sources.

Stage 1 already survives flaky *nameservers* through the scan engine;
this module gives stages 2 and 3 the same protection against flaky
*data sources* (threat-intel vendors, passive DNS, IP metadata).  It
deliberately reuses the engine's primitives — a
:class:`~repro.engine.breaker.CircuitBreaker` keyed by source name and a
:class:`~repro.engine.ratelimit.RateLimiter` for post-429 cool-downs —
so the whole system shares one fault-handling vocabulary.

The central object is :class:`SourceGuard`: every call to a guarded
source goes through :meth:`SourceGuard.try_call`, which retries
:class:`~repro.pipeline.errors.SourceError` with exponential backoff,
trips the source's circuit after consecutive exhausted-retry failures,
and keeps a :class:`SourceHealth` ledger the final report surfaces as
its ``DegradedSources`` section.  The guard never raises: an
unavailable source yields ``(False, None)`` and the caller degrades to
whatever evidence survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple

from ..engine.breaker import CircuitBreaker, CircuitState
from ..engine.ratelimit import RateLimiter
from .errors import SourceError, SourceRateLimited


@dataclass
class SourceHealth:
    """Everything one guarded source did during a run."""

    name: str
    #: guarded calls requested (including skipped ones)
    calls: int = 0
    #: calls that returned a value (possibly after retries)
    successes: int = 0
    #: calls abandoned after exhausting the retry budget
    failures: int = 0
    #: individual re-attempts after a SourceError
    retries: int = 0
    #: SourceRateLimited errors observed
    rate_limited: int = 0
    #: calls never attempted (open circuit or rate-limit cool-down)
    skipped: int = 0
    #: virtual seconds of backoff the retries accounted for
    backoff_wait: float = 0.0
    #: breaker state at snapshot time ("closed" / "open" / "half_open")
    state: str = CircuitState.CLOSED.value

    @property
    def degraded(self) -> bool:
        """Did this source contribute less than a clean run would have?"""
        return self.failures > 0 or self.skipped > 0

    @property
    def dead(self) -> bool:
        """Is the source's circuit tripped (open or probing half-open)?

        Half-open counts: it means the last attempt failed and the
        breaker is still waiting for a successful probe.
        """
        return self.state != CircuitState.CLOSED.value

    def merge(self, other: "SourceHealth") -> None:
        """Fold another ledger for the same source into this one."""
        self.calls += other.calls
        self.successes += other.successes
        self.failures += other.failures
        self.retries += other.retries
        self.rate_limited += other.rate_limited
        self.skipped += other.skipped
        self.backoff_wait += other.backoff_wait
        # the later snapshot wins the state field
        self.state = other.state

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic ledger counters (backoff is virtual seconds)."""
        return {
            "calls": self.calls,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "rate_limited": self.rate_limited,
            "skipped": self.skipped,
            "backoff_wait": self.backoff_wait,
            "state": self.state,
            "degraded": self.degraded,
        }

    def describe(self) -> str:
        parts = [
            f"calls={self.calls}",
            f"ok={self.successes}",
            f"fail={self.failures}",
            f"retry={self.retries}",
            f"skip={self.skipped}",
        ]
        if self.rate_limited:
            parts.append(f"429={self.rate_limited}")
        if self.state != CircuitState.CLOSED.value:
            parts.append(f"circuit={self.state}")
        return " ".join(parts)


@dataclass
class SourcesSnapshot:
    """The guard's health ledgers behind the one metrics protocol.

    Implements :class:`repro.obs.metrics.MetricsSnapshot` so source
    degradation reports through the same :class:`MetricRegistry` as the
    engine and stage-2 blocks.  Obtained from
    :meth:`SourceGuard.metrics_snapshot`.
    """

    name: ClassVar[str] = "sources"
    heading: ClassVar[str] = "source health:"

    sources: Dict[str, SourceHealth] = field(default_factory=dict)
    degraded_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "degraded_events": self.degraded_events,
            "sources": {
                source: ledger.to_dict()
                for source, ledger in sorted(self.sources.items())
            },
        }

    def merge(self, other: "SourcesSnapshot") -> None:
        for source, ledger in other.sources.items():
            existing = self.sources.get(source)
            if existing is None:
                self.sources[source] = SourceHealth(
                    name=ledger.name,
                    calls=ledger.calls,
                    successes=ledger.successes,
                    failures=ledger.failures,
                    retries=ledger.retries,
                    rate_limited=ledger.rate_limited,
                    skipped=ledger.skipped,
                    backoff_wait=ledger.backoff_wait,
                    state=ledger.state,
                )
            else:
                existing.merge(ledger)
        self.degraded_events += other.degraded_events

    def summary(self, indent: str = "") -> str:
        lines = [
            f"{indent}[{source}] {ledger.describe()}"
            for source, ledger in sorted(self.sources.items())
        ]
        if not lines:
            lines = [f"{indent}(no guarded calls)"]
        return "\n".join(lines)


class SourceGuard:
    """Retry-with-backoff plus a per-source circuit breaker.

    The guard has no wall clock; its "time" is a monotonic call counter,
    so a ``reset_interval`` of 16 means an open circuit re-probes after
    16 further guarded calls (to any source).  That keeps behaviour
    fully deterministic under test and under the simulator.
    """

    def __init__(
        self,
        retries: int = 2,
        failure_threshold: int = 3,
        reset_interval: float = 16.0,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        ratelimit_cooldown: float = 8.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {backoff_base}"
            )
        if backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if ratelimit_cooldown < 0:
            raise ValueError(
                f"ratelimit_cooldown must be >= 0, got {ratelimit_cooldown}"
            )
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            reset_interval=reset_interval,
        )
        #: post-rate-limit cool-down: a 429 drains the source's token and
        #: calls made before it regenerates are skipped, not sent
        self.limiter = RateLimiter(interval=ratelimit_cooldown)
        self._clock = 0.0
        self._health: Dict[str, SourceHealth] = {}
        #: monotone counter of degradation events (failures, skips,
        #: rate-limits).  Stage 2's verdict memo folds this into its
        #: cache key: any change in source availability invalidates
        #: every verdict cached under the previous state.
        self.degraded_events = 0
        #: optional repro.obs.RunTrace + the logical stage tag its
        #: events carry; bound by the hunter before each guarded stage
        self.trace = None
        self.trace_stage: Optional[str] = None

    def bind_trace(self, trace: Any, stage: str) -> None:
        """Attach an event bus; degradation transitions and breaker
        trips are emitted as deterministic events tagged ``stage``.

        Emission order is deterministic because every degradation
        producer runs the record-ordered path: fault injection makes the
        sources non-deterministic, which disables the memoized stage-2
        fast path.
        """
        self.trace = trace
        self.trace_stage = stage

    def _emit(self, name: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(name, stage=self.trace_stage, **fields)

    def _note_degraded(
        self, source: str, ledger: SourceHealth, was_degraded: bool, reason: str
    ) -> None:
        """Count one degradation event; emit on the first transition."""
        self.degraded_events += 1
        if not was_degraded and ledger.degraded:
            self._emit("source.degraded", source=source, reason=reason)

    # -- bookkeeping -------------------------------------------------------

    def health(self, source: str) -> SourceHealth:
        ledger = self._health.get(source)
        if ledger is None:
            ledger = self._health[source] = SourceHealth(name=source)
        return ledger

    def snapshot(self) -> Dict[str, SourceHealth]:
        """A copy of every ledger with its live circuit state stamped in."""
        out: Dict[str, SourceHealth] = {}
        for source, ledger in self._health.items():
            out[source] = SourceHealth(
                name=ledger.name,
                calls=ledger.calls,
                successes=ledger.successes,
                failures=ledger.failures,
                retries=ledger.retries,
                rate_limited=ledger.rate_limited,
                skipped=ledger.skipped,
                backoff_wait=ledger.backoff_wait,
                state=self.breaker.state(source).value,
            )
        return out

    def metrics_snapshot(self) -> SourcesSnapshot:
        """The ledgers as one :class:`MetricsSnapshot` (see obs)."""
        return SourcesSnapshot(
            sources=self.snapshot(), degraded_events=self.degraded_events
        )

    @property
    def degraded_sources(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                source
                for source, ledger in self._health.items()
                if ledger.degraded
            )
        )

    # -- the guarded call --------------------------------------------------

    def try_call(
        self,
        source: str,
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Tuple[bool, Any]:
        """Call ``fn`` under protection; never raises :class:`SourceError`.

        Returns ``(True, value)`` on success, ``(False, None)`` when the
        source is unavailable (circuit open, in rate-limit cool-down, or
        the retry budget ran dry).  Non-:class:`SourceError` exceptions
        propagate — the guard shields against flaky dependencies, not
        against bugs.
        """
        self._clock += 1.0
        ledger = self.health(source)
        ledger.calls += 1
        was_degraded = ledger.degraded
        if not self.breaker.allow(source, self._clock):
            ledger.skipped += 1
            self._note_degraded(
                source, ledger, was_degraded, "circuit-open"
            )
            return False, None
        if self.limiter.ready_at(source, self._clock) > self._clock:
            ledger.skipped += 1
            self._note_degraded(
                source, ledger, was_degraded, "rate-limit-cooldown"
            )
            return False, None
        attempt = 0
        while True:
            try:
                value = fn(*args, **kwargs)
            except SourceError as error:
                if isinstance(error, SourceRateLimited):
                    ledger.rate_limited += 1
                    self._note_degraded(
                        source, ledger, was_degraded, "rate-limited"
                    )
                    # deliberate cool-down debit (may go negative),
                    # not a paced send — take() would raise here
                    self.limiter.penalize(source, self._clock)
                attempt += 1
                if attempt <= self.retries:
                    ledger.retries += 1
                    ledger.backoff_wait += self.backoff_base * (
                        self.backoff_factor ** (attempt - 1)
                    )
                    continue
                ledger.failures += 1
                self._note_degraded(
                    source, ledger, was_degraded, "retries-exhausted"
                )
                if self.breaker.record_failure(source, self._clock):
                    self._emit(
                        "breaker.trip", scope="source", source=source
                    )
                return False, None
            self.breaker.record_success(source)
            ledger.successes += 1
            return True, value


def merge_health(
    *snapshots: Dict[str, SourceHealth],
) -> Dict[str, SourceHealth]:
    """Merge per-stage health snapshots into one ledger per source."""
    merged: Dict[str, SourceHealth] = {}
    for snapshot in snapshots:
        for source, ledger in snapshot.items():
            existing = merged.get(source)
            if existing is None:
                merged[source] = SourceHealth(
                    name=ledger.name,
                    calls=ledger.calls,
                    successes=ledger.successes,
                    failures=ledger.failures,
                    retries=ledger.retries,
                    rate_limited=ledger.rate_limited,
                    skipped=ledger.skipped,
                    backoff_wait=ledger.backoff_wait,
                    state=ledger.state,
                )
            else:
                existing.merge(ledger)
    return merged

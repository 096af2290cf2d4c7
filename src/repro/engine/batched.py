"""The scan engine: one server's lane, one query after another.

A :class:`BatchedEngine` is built for one server in one stage-1 phase
and drives that lane's query messages strictly in order over the
virtual clock — the next query is not read before the previous outcome
was yielded.  A phase runs every server as its own isolated group on a
fresh engine and lasts as long as its slowest one
(:func:`repro.plan.shards.run_group`,
:func:`repro.plan.shards.isolated_phase`), so overlap across servers is
the phase's clock rule, not this loop's.  The lane's pacing bucket,
round-trip estimator and AIMD credit are one value each.

Each query goes through the same steps, re-entered from the top after
every wait:

* **budget** — a spent run or stage deadline sheds the query (``SHED``)
  without touching the wire;
* **pacing** — the token bucket and, when attached, the AIMD send
  credit say when the next send may go; the loop waits for the later
  of the two.  AIMD stretches the lane's own healthy interval — the
  larger of ``policy.per_server_interval`` and the server's smoothed
  round trip — never a fraction of the timeout: the retry timer is
  already waited out below, once;
* **circuit breaker** — after the breaker's ``failure_threshold``
  consecutive failures the server's circuit opens and its queries are
  ``SKIPPED``; after its ``reset_interval`` virtual seconds one
  half-open probe decides whether sending resumes;
* **send** — an answer ends the query; a timeout is retried up to
  ``policy.retries`` times, and a query out of retries is yielded as
  ``GAVE_UP`` *before* its last timer is waited out.  Bare, every
  expiry waits ``policy.timeout`` and a retry its exponential backoff
  on top.  With ``hedge_delay`` set there is one timer, the server's
  :meth:`~repro.engine.latency.ServerLatency.rto`: the first expiry
  waits ``min(hedge_delay, rto)`` and fires the hedge, the k-th later
  one ``min(timeout, rto * 2**(k-1))`` — the doubling is the backoff;
  an unmeasured server gets ``hedge_delay``, then ``timeout``.

Every wait goes through :meth:`BatchedEngine._wait_until`, which ticks
the clock forward unless the run budget is already spent — everything
left would shed, so waiting out timers would only inflate the clock.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..dns.message import Message
from ..net.network import NetworkError, SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from .api import (
    EnginePolicy,
    OutcomeStatus,
    QueryOutcome,
    backoff_delay,
)
from .breaker import CircuitBreaker
from .latency import ServerLatency
from .metrics import ScanMetrics
from .ratelimit import TokenBucket


class BatchedEngine:
    """Drive one server's queries in one phase, one at a time."""

    def __init__(
        self,
        network: SimulatedInternet,
        scanner_ip: str,
        server_ip: str,
        phase: str,
        policy: Optional[EnginePolicy] = None,
    ):
        self.network = network
        self.scanner_ip = scanner_ip
        #: the one server every query is sent to ...
        self.server_ip = server_ip
        #: ... and the stage-1 phase every query is counted under
        self.phase = phase
        self.policy = policy or EnginePolicy()
        #: the lane's ledger — wire and resilience counters, cumulative
        #: across drives
        self.metrics = ScanMetrics()
        self._bucket = TokenBucket(self.policy.per_server_interval)
        self.breaker = CircuitBreaker()
        #: the lane's DNS path — host/fault lookups are resolved once
        #: per topology generation, not once per query
        self._channel = network.open_channel(scanner_ip, server_ip)
        #: the lane's deterministic events — breaker trips, hedges, AIMD
        #: cuts and budget exhaustion — as (name, stage, fields), in
        #: emission order
        self.events: List[Tuple[str, Optional[str], Dict[str, Any]]] = []
        #: optional resilience controllers (all are strict no-ops when
        #: None, and deterministic no-ops on a healthy world when
        #: attached)
        self.budget = None  # repro.resilience.DeadlineBudget
        self.aimd = None    # repro.resilience.AimdController
        #: the hedge timer of an unmeasured server and its ceiling
        #: afterwards (0 = hedging off: bare timeout + backoff)
        self.hedge_delay = 0.0
        #: the server's round-trip estimate, fed on every answer while
        #: hedging or AIMD is on; both read their waits from it
        self.observed = ServerLatency()

    def execute_iter(
        self, queries: Iterable[Message]
    ) -> Iterator[Tuple[int, QueryOutcome]]:
        """Send ``queries`` to this engine's server lazily, yielding one
        ``(query_index, outcome)`` pair per query, in query order: the
        indices are 0, 1, 2, ...

        ``queries`` is any iterable of query messages — a list, or a
        generator that reads each from a planned row
        (:func:`repro.plan.shards.lane_queries`); a query is read only
        after the previous outcome was yielded.  The generator only
        advances (and the virtual clock only ticks) when the consumer
        pulls: not pulling pauses the scan.
        """
        network = self.network
        policy = self.policy
        interval = policy.per_server_interval
        bucket = self._bucket
        pacing = interval > 0
        breaker = self.breaker
        server_ip = self.server_ip
        phase = self.phase
        channel = self._channel
        metrics = self.metrics
        counters = metrics.stage(phase)
        latency = metrics.latency
        budget = self.budget
        # a query that may not retry has no hedge to fire
        hedge_delay = self.hedge_delay if policy.retries >= 1 else 0.0
        timeout = policy.timeout
        aimd = self.aimd
        observed = self.observed
        wait_until = self._wait_until
        if budget is not None:
            budget.enter_phase(phase, network.now)

        for index, query in enumerate(queries):
            #: attempts already sent for this query
            attempts = 0
            #: the in-flight attempt is the hedge
            hedging = False

            while True:
                now = network.now

                # deadline budgets: shed a query whose next attempt has
                # not been sent yet (a pure function of the virtual
                # clock, so every replay sheds identically)
                if budget is not None:
                    reason = budget.check(now, phase)
                    if reason is not None:
                        counters.shed += 1
                        metrics.note_shed(reason)
                        if budget.announce(phase, reason):
                            self._emit(
                                "budget.exhausted", phase=phase, reason=reason
                            )
                        yield index, QueryOutcome(
                            status=OutcomeStatus.SHED,
                            attempts=attempts,
                            completed_at=now,
                        )
                        break

                if pacing or aimd is not None:
                    token_ready = bucket.ready_at(now) if pacing else now
                    send_ready = token_ready
                    if aimd is not None:
                        # what the lane does when healthy: its pacing,
                        # or unpaced the round trip it has seen answered
                        healthy = max(interval, observed.srtt())
                        send_ready = max(
                            token_ready, aimd.ready_at(now, healthy)
                        )
                    if send_ready > now:
                        pace_wait = token_ready - now
                        if pace_wait > 0:
                            counters.rate_limit_wait += pace_wait
                        if send_ready - now > pace_wait:
                            metrics.aimd_wait += (
                                send_ready - now - pace_wait
                            )
                        wait_until(send_ready)
                        continue

                # circuit breaking: skip without touching the wire
                # while open
                if not breaker.allow(server_ip, now):
                    counters.skipped += 1
                    yield index, QueryOutcome(
                        status=OutcomeStatus.SKIPPED,
                        attempts=attempts,
                        completed_at=now,
                    )
                    break

                if pacing:
                    bucket.take(now)
                if aimd is not None:
                    aimd.note_send(now)
                attempts += 1
                counters.queries += 1
                # the retransmission timer in force for this attempt
                timer = timeout
                if hedge_delay:
                    rto = observed.rto()
                    if attempts == 1:
                        timer = min(hedge_delay, rto)
                    else:
                        timer = min(timeout, rto * 2 ** (attempts - 2))
                sent_at = now
                try:
                    response = channel.query_auto(query)
                except NetworkError:
                    response = None
                now = network.now
                round_trip = now - sent_at

                if response is not None:
                    breaker.record_success(server_ip)
                    if aimd is not None:
                        aimd.on_success()
                    if round_trip > timer:
                        metrics.spurious_retransmits += 1
                    if hedge_delay or aimd is not None:
                        observed.observe(round_trip)
                    if hedging:
                        metrics.hedges_won += 1
                        self._emit("hedge.won")
                    counters.responses += 1
                    latency.record(round_trip)
                    yield index, QueryOutcome(
                        status=OutcomeStatus.ANSWERED,
                        response=response,
                        attempts=attempts,
                        completed_at=now,
                    )
                    break

                # timed out
                counters.timeouts += 1
                if breaker.record_failure(server_ip, now):
                    self._emit("breaker.trip")
                if aimd is not None and aimd.on_failure():
                    metrics.aimd_cuts += 1
                    self._emit("aimd.cut")

                latency.record(round_trip + timer)
                free_at = now + timer
                # the second attempt fires when the first one's hedge
                # timer expires — the retry *is* the hedge, so loss
                # accounting is unchanged
                if hedge_delay and attempts == 1:
                    counters.retries += 1
                    hedging = True
                    metrics.hedges_fired += 1
                    self._emit("hedge.fired")
                    wait_until(free_at)
                    continue
                if hedging:
                    hedging = False
                    metrics.hedges_wasted += 1
                    self._emit("hedge.wasted")
                if attempts > policy.retries:
                    counters.giveups += 1
                    yield index, QueryOutcome(
                        status=OutcomeStatus.GAVE_UP,
                        attempts=attempts,
                        completed_at=free_at,
                    )
                    wait_until(free_at)
                    break
                counters.retries += 1
                # a timer doubled on expiry is its own backoff
                if not hedge_delay:
                    free_at += backoff_delay(attempts)
                wait_until(free_at)

    # -- internals ---------------------------------------------------------

    def _wait_until(self, ready_at: float) -> None:
        """Tick the clock forward to ``ready_at`` — unless the run
        budget is spent: every remaining visit sheds, so waiting out
        timers would only inflate the clock."""
        now = self.network.now
        if ready_at > now and (
            self.budget is None or not self.budget.run_exhausted(now)
        ):
            self.network.tick(ready_at - now)

    def _emit(self, name: str, **fields: Any) -> None:
        """One deterministic event (every engine-driven collection
        belongs to stage 1); its fields name the lane unless given."""
        if not fields:
            fields = {
                "scope": "nameserver",
                "server": self.server_ip,
                "phase": self.phase,
            }
        self.events.append((name, OBS_STAGE1, fields))

"""The scan engine: one task after another over the virtual clock.

:meth:`BatchedEngine.execute_iter` drives its tasks strictly in order —
the next task is not read before the previous outcome was yielded — and
is handed one nameserver's tasks at a time: a stage-1 phase runs every
server as its own isolated group and lasts as long as its slowest one
(:func:`repro.plan.shards.isolated_phase`), so overlap *across* servers
is the phase's clock rule, not this loop's.  A mixed-server task list
is still legal — pacing, breaker and AIMD state are keyed by server —
it just never overlaps anything.

Each task goes through the same steps, re-entered from the top after
every wait:

* **budget** — a spent run or stage deadline sheds the task (``SHED``)
  without touching the wire;
* **pacing** — the per-server token bucket and, when attached, the AIMD
  send credit say when the next send may go; the loop waits for the
  later of the two.  AIMD stretches the lane's own healthy interval —
  the larger of ``policy.per_server_interval`` and the server's
  smoothed round trip — never a fraction of the timeout: the retry
  timer is already waited out below, once;
* **circuit breaker** — after the breaker's ``failure_threshold``
  consecutive failures a server's circuit opens and its tasks are
  ``SKIPPED``; after its ``reset_interval`` virtual seconds one
  half-open probe decides whether sending resumes;
* **send** — an answer ends the task; a timeout is retried up to
  ``policy.retries`` times, and a task out of retries is yielded as
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

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dns.message import Message
from ..net.network import DnsChannel, NetworkError, SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from ..resilience.metrics import ResilienceMetrics
from .api import (
    EnginePolicy,
    OutcomeStatus,
    QueryOutcome,
    QueryTask,
    backoff_delay,
)
from .breaker import CircuitBreaker
from .latency import ServerLatency
from .metrics import ScanMetrics
from .ratelimit import RateLimiter


class BatchedEngine:
    """Drive query tasks over the simulated internet, one at a time."""

    def __init__(
        self,
        network: SimulatedInternet,
        scanner_ip: str,
        policy: Optional[EnginePolicy] = None,
    ):
        self.network = network
        self.scanner_ip = scanner_ip
        self.policy = policy or EnginePolicy()
        #: cumulative observability counters across execute() calls
        self.metrics = ScanMetrics()
        self._limiter = RateLimiter(self.policy.per_server_interval)
        self.breaker = CircuitBreaker()
        #: query messages by (qname, qtype, rd), built once and re-sent;
        #: engines scanning the same names may share one dict (the group
        #: runner hands every group engine the parent's)
        self.query_cache: Dict[Tuple[object, int, bool], Message] = {}
        #: optional repro.obs.RunTrace — breaker trips, hedges, AIMD cuts
        #: and budget exhaustion are emitted as deterministic events
        #: when attached
        self.trace = None
        #: optional resilience controllers (attached by URHunter; all
        #: are strict no-ops when None, and deterministic no-ops on a
        #: healthy world when attached)
        self.budget = None  # repro.resilience.DeadlineBudget
        self.aimd = None    # repro.resilience.AimdController
        #: the hedge timer of an unmeasured server and its ceiling
        #: afterwards (0 = hedging off: bare timeout + backoff)
        self.hedge_delay = 0.0
        #: each server's round-trip estimate, fed on every answer while
        #: hedging or AIMD is on; both read their waits from it
        self.observed = ServerLatency()
        #: deterministic counters for the resilience layer
        self.resilience = ResilienceMetrics()

    def execute(self, tasks: Sequence[QueryTask]) -> List[QueryOutcome]:
        """Drive every task to completion; outcomes in task order."""
        return [outcome for _, outcome in self.execute_iter(tasks)]

    def execute_iter(
        self, tasks: Sequence[QueryTask]
    ) -> Iterator[Tuple[int, QueryOutcome]]:
        """Drive ``tasks`` lazily, yielding one ``(task_index, outcome)``
        pair per task, in task order: the indices are 0, 1, 2, ...

        ``tasks`` is any ``Sequence[QueryTask]`` — a list, or a lazy view
        such as :class:`repro.plan.scanplan.PlannedTasks` that builds a
        task when read; a task is read only after the previous outcome
        was yielded, so at most one exists at a time.  The generator
        only advances (and the virtual clock only ticks) when the
        consumer pulls: not pulling pauses the scan.
        """
        if not tasks:
            return
        network = self.network
        policy = self.policy
        limiter = self._limiter
        pacing = limiter.enabled
        breaker = self.breaker
        latency = self.metrics.latency
        budget = self.budget
        # a task that may not retry has no hedge to fire
        hedge_delay = self.hedge_delay if policy.retries >= 1 else 0.0
        timeout = policy.timeout
        aimd = self.aimd
        observed = self.observed
        interval = policy.per_server_interval
        resilience = self.resilience
        wait_until = self._wait_until
        if budget is not None:
            budget.begin(network.now)

        #: one pinned DNS path per server — host/fault lookups are
        #: resolved once per topology generation, not once per query
        channels: Dict[str, DnsChannel] = {}
        # per-stage counter cache (task streams are usually single-stage)
        stage_name: Optional[str] = None
        counters = None

        for index, task in enumerate(tasks):
            if task.stage != stage_name:
                stage_name = task.stage
                counters = self.metrics.stage(stage_name)
                if budget is not None:
                    budget.enter_phase(stage_name, network.now)
            server_ip = task.server_ip
            channel = channels.get(server_ip)
            if channel is None:
                channel = channels[server_ip] = network.open_channel(
                    self.scanner_ip, server_ip
                )
            #: attempts already sent for this task
            attempts = 0
            #: the in-flight attempt is the hedge
            hedging = False

            while True:
                now = network.now

                # deadline budgets: shed a task whose next attempt has
                # not been sent yet (a pure function of the virtual
                # clock, so every replay sheds identically)
                if budget is not None:
                    reason = budget.check(now, stage_name)
                    if reason is not None:
                        counters.shed += 1
                        resilience.note_shed(reason)
                        if budget.announce(stage_name, reason) and (
                            self.trace is not None
                        ):
                            self.trace.emit(
                                "budget.exhausted",
                                stage=OBS_STAGE1,
                                phase=stage_name,
                                reason=reason,
                            )
                        yield index, QueryOutcome(
                            task=task,
                            status=OutcomeStatus.SHED,
                            attempts=attempts,
                            completed_at=now,
                        )
                        break

                if pacing or aimd is not None:
                    token_ready = (
                        limiter.ready_at(server_ip, now) if pacing else now
                    )
                    send_ready = token_ready
                    if aimd is not None:
                        # what the lane does when healthy: its pacing,
                        # or unpaced the round trip it has seen answered
                        healthy = max(interval, observed.srtt(server_ip))
                        send_ready = max(
                            token_ready,
                            aimd.ready_at(server_ip, now, healthy),
                        )
                    if send_ready > now:
                        pace_wait = token_ready - now
                        if pace_wait > 0:
                            counters.rate_limit_wait += pace_wait
                        if send_ready - now > pace_wait:
                            resilience.aimd_wait += (
                                send_ready - now - pace_wait
                            )
                        wait_until(send_ready)
                        continue

                # circuit breaking: skip without touching the wire
                # while open
                if not breaker.allow(server_ip, now):
                    counters.skipped += 1
                    yield index, QueryOutcome(
                        task=task,
                        status=OutcomeStatus.SKIPPED,
                        attempts=attempts,
                        completed_at=now,
                    )
                    break

                if pacing:
                    limiter.take(server_ip, now)
                if aimd is not None:
                    aimd.note_send(server_ip, now)
                attempts += 1
                counters.queries += 1
                # the retransmission timer in force for this attempt
                timer = timeout
                if hedge_delay:
                    rto = observed.rto(server_ip)
                    if attempts == 1:
                        timer = min(hedge_delay, rto)
                    else:
                        timer = min(timeout, rto * 2 ** (attempts - 2))
                sent_at = now
                try:
                    response = channel.query_auto(self._query_for(task))
                except NetworkError:
                    response = None
                now = network.now
                round_trip = now - sent_at

                if response is not None:
                    breaker.record_success(server_ip)
                    if aimd is not None:
                        aimd.on_success(server_ip)
                    if round_trip > timer:
                        resilience.spurious_retransmits += 1
                    if hedge_delay or aimd is not None:
                        observed.observe(server_ip, round_trip)
                    if hedging:
                        resilience.hedges_won += 1
                        self._emit("hedge.won", task)
                    counters.responses += 1
                    latency.record(round_trip)
                    yield index, QueryOutcome(
                        task=task,
                        status=OutcomeStatus.ANSWERED,
                        response=response,
                        attempts=attempts,
                        completed_at=now,
                    )
                    break

                # timed out
                counters.timeouts += 1
                if breaker.record_failure(server_ip, now):
                    self._emit("breaker.trip", task)
                if aimd is not None and aimd.on_failure(server_ip):
                    resilience.aimd_cuts += 1
                    self._emit("aimd.cut", task)

                latency.record(round_trip + timer)
                free_at = now + timer
                # the second attempt fires when the first one's hedge
                # timer expires — the retry *is* the hedge, so loss
                # accounting is unchanged
                if hedge_delay and attempts == 1:
                    counters.retries += 1
                    hedging = True
                    resilience.hedges_fired += 1
                    self._emit("hedge.fired", task)
                    wait_until(free_at)
                    continue
                if hedging:
                    hedging = False
                    resilience.hedges_wasted += 1
                    self._emit("hedge.wasted", task)
                if attempts > policy.retries:
                    counters.giveups += 1
                    yield index, QueryOutcome(
                        task=task,
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

    def _emit(self, name: str, task: QueryTask) -> None:
        """One deterministic per-server event (every engine-driven
        collection belongs to stage 1), when a trace is attached."""
        if self.trace is not None:
            self.trace.emit(
                name,
                stage=OBS_STAGE1,
                scope="nameserver",
                server=task.server_ip,
                phase=task.stage,
            )

    def _query_for(self, task: QueryTask) -> Message:
        key = (task.qname, task.qtype, task.recursion_desired)
        query = self.query_cache.get(key)
        if query is None:
            query = Message.make_query(
                task.qname,
                task.qtype,
                recursion_desired=task.recursion_desired,
            )
            self.query_cache[key] = query
        return query

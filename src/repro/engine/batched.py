"""The batched scan engine: sharded lanes over the virtual clock.

The work matrix is sharded into one **lane per nameserver** (a lane is a
FIFO of task *positions* for that server; the task itself is read from
the caller's sequence only when it reaches the head of its lane, so a
lazy task sequence is never materialized).  ``policy.max_concurrency``
models the worker pool of a real scanner: a worker is *held* by a lane
awaiting a socket timeout or retry backoff, but a lane parked on a
pacing token costs nothing (a rate-limit timer is free), so a free
worker picks up the next server instead of idling.  A priority queue
keyed by each lane's *ready time* decides what to send next, and
virtual time only advances when every worker is blocked.  That single
property is where all the throughput comes from: waits overlap instead
of summing.

Fault tolerance on top:

* timeouts are retried up to ``policy.retries`` times with exponential
  backoff (the lane keeps working on nothing else meanwhile, exactly
  like a real async worker awaiting a retry timer);
* a per-server circuit breaker opens after
  ``policy.circuit_failure_threshold`` consecutive failures; while open,
  queued tasks for that server are marked ``SKIPPED`` without touching
  the wire, and after ``policy.circuit_reset_interval`` virtual seconds
  one half-open probe decides whether the lane resumes.

On a fault-free scenario with no pacing the schedule degenerates to a
plain traversal and the classified output is identical to
:class:`~repro.engine.sequential.SequentialEngine` — asserted by tests
and the overview benchmark.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dns.message import Message
from ..net.network import NetworkError, SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from ..resilience.metrics import ResilienceMetrics
from .api import EnginePolicy, OutcomeStatus, QueryOutcome, QueryTask
from .breaker import CircuitBreaker, CircuitState
from .metrics import ScanMetrics
from .ratelimit import RateLimiter

#: hedge state of the task at the head of a lane
_HEDGE_NONE = 0      # no hedge fired for this task yet
_HEDGE_PENDING = 1   # the in-flight attempt is the hedge
_HEDGE_SPENT = 2     # the hedge also failed; normal retry path


class _Lane:
    """The per-server shard: pending positions plus retry state for
    the head."""

    __slots__ = (
        "server_ip",
        "positions",
        "cursor",
        "task",
        "attempts",
        "hedge",
        "channel",
    )

    def __init__(self, server_ip: str, channel):
        self.server_ip = server_ip
        #: positions (in the caller's task sequence) queued for this
        #: server, in the caller's order; ``cursor`` is the head
        self.positions = array("I")
        self.cursor = 0
        #: the head's task, read from the sequence on first visit
        self.task: Optional[QueryTask] = None
        #: attempts already sent for the task at the head of the queue
        self.attempts = 0
        #: hedge state for the task at the head of the queue
        self.hedge = _HEDGE_NONE
        #: the lane's pinned DNS path — host/fault lookups are resolved
        #: once per topology generation instead of once per query
        self.channel = channel

    def advance(self) -> None:
        """Drop the completed head; the next position becomes the head."""
        self.cursor += 1
        self.task = None
        self.attempts = 0
        self.hedge = _HEDGE_NONE


class BatchedEngine:
    """Shard the task matrix across concurrent worker lanes."""

    name = "batched"

    def __init__(
        self,
        network: SimulatedInternet,
        scanner_ip: str,
        policy: Optional[EnginePolicy] = None,
        metrics: Optional[ScanMetrics] = None,
    ):
        self.network = network
        self.scanner_ip = scanner_ip
        self.policy = policy or EnginePolicy()
        self.metrics = metrics if metrics is not None else ScanMetrics()
        self._limiter = RateLimiter(self.policy.per_server_interval)
        self._breaker = CircuitBreaker(
            failure_threshold=self.policy.circuit_failure_threshold,
            reset_interval=self.policy.circuit_reset_interval,
        )
        #: query messages by (qname, qtype, rd), built once and re-sent;
        #: engines scanning the same names may share one dict (the group
        #: runner hands every group engine the parent's)
        self.query_cache: Dict[Tuple[object, int, bool], Message] = {}
        #: optional repro.obs.RunTrace — breaker trips are emitted as
        #: deterministic ``breaker.trip`` events when attached
        self.trace = None
        #: optional resilience controllers (attached by URHunter; all
        #: are strict no-ops when None, and deterministic no-ops on a
        #: healthy world when attached)
        self.budget = None  # repro.resilience.DeadlineBudget
        self.hedge = None   # repro.resilience.HedgeController
        self.aimd = None    # repro.resilience.AimdController
        #: deterministic counters for the resilience layer
        self.resilience = ResilienceMetrics()

    # -- QueryEngine protocol ---------------------------------------------

    def execute(self, tasks: Sequence[QueryTask]) -> List[QueryOutcome]:
        outcomes: List[Optional[QueryOutcome]] = [None] * len(tasks)
        for index, outcome in self.execute_iter(tasks):
            outcomes[index] = outcome
        # Every lane drains before it leaves the scheduler, so each task
        # has an outcome; the assert guards that invariant.
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def execute_iter(
        self, tasks: Sequence[QueryTask]
    ) -> Iterator[Tuple[int, QueryOutcome]]:
        """Lazy scheduler loop: yield each outcome the moment its lane
        completes it.

        Completion order is the lane schedule's order, not task order —
        the yielded index lets a streaming consumer reorder.  The
        generator only advances (and the virtual clock only ticks) when
        the consumer pulls, so an unconsumed scan costs nothing.
        """
        if not tasks:
            return
        network = self.network
        policy = self.policy
        limiter = self._limiter
        pacing = limiter.enabled
        breaker = self._breaker
        latency = self.metrics.latency
        open_channel = network.open_channel
        scanner_ip = self.scanner_ip
        budget = self.budget
        hedge = self.hedge
        aimd = self.aimd
        resilience = self.resilience
        if budget is not None:
            budget.begin(network.now)

        # Shard into lanes, preserving the caller's (randomized) order
        # within each server.  Only positions are queued; a planned task
        # sequence hands over its server column (``server_ips``) so not
        # one task is built here.
        server_ips = getattr(tasks, "server_ips", None)
        lanes: Dict[str, _Lane] = {}
        for position, server_ip in enumerate(
            server_ips()
            if server_ips is not None
            else (task.server_ip for task in tasks)
        ):
            lane = lanes.get(server_ip)
            if lane is None:
                lane = lanes[server_ip] = _Lane(
                    server_ip, open_channel(scanner_ip, server_ip)
                )
            lane.positions.append(position)

        # Two scheduler structures: lanes ready to send rotate through a
        # round-robin deque (the fast path — O(1), no timestamps), while
        # lanes waiting out pacing/backoff/timeout sit in a heap keyed by
        # their ready time.  The clock is only ticked when the ready
        # deque is empty: waits overlap instead of summing.
        unopened = deque(lanes.values())
        ready: Deque[_Lane] = deque()
        for _ in range(min(policy.max_concurrency, len(unopened))):
            ready.append(unopened.popleft())
        waiting: List[Tuple[float, int, _Lane, bool]] = []
        sequence = 0
        #: lanes parked on a socket timeout/backoff.  Those hold a
        #: worker; lanes parked on a pacing token do not (a rate-limit
        #: timer is free — the worker picks up another server meanwhile).
        busy = 0

        # per-stage counter cache (task streams are usually single-stage)
        stage_name: Optional[str] = None
        counters = None

        while ready or waiting:
            if ready:
                lane = ready.popleft()
            elif unopened and busy < policy.max_concurrency:
                # every open lane is parked on a timer but workers are
                # free — open the next server instead of idling
                lane = unopened.popleft()
            else:
                ready_at, _, lane, was_socket = heapq.heappop(waiting)
                if was_socket:
                    busy -= 1
                now = network.now
                if ready_at > now and (
                    budget is None or not budget.run_exhausted(now)
                ):
                    # every worker is blocked — advance the world (unless
                    # the run budget is spent: everything left will shed,
                    # so waiting out timers would only inflate the clock)
                    network.tick(ready_at - now)
            if lane.cursor == len(lane.positions):
                if unopened:
                    ready.append(unopened.popleft())
                continue
            index = lane.positions[lane.cursor]
            task = lane.task
            if task is None:
                task = lane.task = tasks[index]
            if task.stage != stage_name:
                stage_name = task.stage
                counters = self.metrics.stage(stage_name)
                if budget is not None:
                    budget.enter_phase(stage_name, network.now)
            now = network.now
            server_ip = lane.server_ip

            # deadline budgets: shed tasks that have not been sent yet
            # (a pure function of the virtual clock, so batch and stream
            # shed identically)
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
                        attempts=lane.attempts,
                        completed_at=now,
                    )
                    lane.advance()
                    ready.append(lane)
                    continue

            provider = getattr(task.tag, "provider", None)
            if pacing or aimd is not None:
                token_ready = (
                    limiter.ready_at(server_ip, now) if pacing else now
                )
                send_ready = token_ready
                if aimd is not None:
                    aimd_ready = aimd.ready_at(server_ip, provider, now)
                    if aimd_ready > send_ready:
                        send_ready = aimd_ready
                if send_ready > now:
                    pace_wait = token_ready - now
                    if pace_wait > 0:
                        counters.rate_limit_wait += pace_wait
                    if send_ready - now > pace_wait:
                        resilience.aimd_wait += send_ready - now - pace_wait
                    heapq.heappush(
                        waiting, (send_ready, sequence, lane, False)
                    )
                    sequence += 1
                    continue

            # circuit breaking: skip without touching the wire while open
            if not breaker.allow(server_ip, now):
                counters.skipped += 1
                yield index, QueryOutcome(
                    task=task,
                    status=OutcomeStatus.SKIPPED,
                    attempts=lane.attempts,
                    completed_at=now,
                )
                lane.advance()
                ready.append(lane)
                continue

            if pacing:
                limiter.take(server_ip, now)
            if aimd is not None:
                aimd.note_send(server_ip, now)
            lane.attempts += 1
            counters.queries += 1
            sent_at = now
            try:
                response = lane.channel.query_auto(self._query_for(task))
            except NetworkError:
                response = None
            now = network.now

            if response is not None:
                breaker.record_success(server_ip)
                if aimd is not None:
                    aimd.on_success(server_ip, provider)
                if hedge is not None:
                    hedge.observe(server_ip, now - sent_at)
                    if lane.hedge == _HEDGE_PENDING:
                        hedge.won += 1
                        resilience.hedges_won += 1
                        if self.trace is not None:
                            self.trace.emit(
                                "hedge.won",
                                stage=OBS_STAGE1,
                                scope="nameserver",
                                server=server_ip,
                                phase=task.stage,
                            )
                counters.responses += 1
                latency.record(now - sent_at)
                yield index, QueryOutcome(
                    task=task,
                    status=OutcomeStatus.ANSWERED,
                    response=response,
                    attempts=lane.attempts,
                    completed_at=now,
                )
                lane.advance()
                ready.append(lane)
                continue

            # timed out: the lane is busy until the timeout elapses, but
            # the clock is NOT ticked here — other lanes fill the gap
            counters.timeouts += 1
            if breaker.record_failure(server_ip, now) and (
                self.trace is not None
            ):
                # every engine-driven collection belongs to stage 1
                self.trace.emit(
                    "breaker.trip",
                    stage=OBS_STAGE1,
                    scope="nameserver",
                    server=server_ip,
                    phase=task.stage,
                )
            if aimd is not None and aimd.on_failure(server_ip, provider):
                resilience.aimd_cuts += 1
                if self.trace is not None:
                    self.trace.emit(
                        "aimd.cut",
                        stage=OBS_STAGE1,
                        scope="nameserver",
                        server=server_ip,
                        phase=task.stage,
                    )

            # hedging: instead of waiting out the first attempt's full
            # timeout + backoff window, park only for the (much shorter)
            # per-server hedge delay and fire the second attempt — the
            # retry *is* the hedge, so loss accounting is unchanged
            if (
                hedge is not None
                and lane.hedge == _HEDGE_NONE
                and lane.attempts == 1
                and lane.attempts <= policy.retries
            ):
                delay = hedge.delay(server_ip)
                latency.record(now - sent_at + delay)
                counters.retries += 1
                lane.hedge = _HEDGE_PENDING
                hedge.fired += 1
                resilience.hedges_fired += 1
                if self.trace is not None:
                    self.trace.emit(
                        "hedge.fired",
                        stage=OBS_STAGE1,
                        scope="nameserver",
                        server=server_ip,
                        phase=task.stage,
                    )
                heapq.heappush(waiting, (now + delay, sequence, lane, True))
                busy += 1
                sequence += 1
                continue
            if lane.hedge == _HEDGE_PENDING:
                lane.hedge = _HEDGE_SPENT
                hedge.wasted += 1
                resilience.hedges_wasted += 1
                if self.trace is not None:
                    self.trace.emit(
                        "hedge.wasted",
                        stage=OBS_STAGE1,
                        scope="nameserver",
                        server=server_ip,
                        phase=task.stage,
                    )
            latency.record(now - sent_at + policy.timeout)
            lane_free_at = now + policy.timeout
            if lane.attempts > policy.retries:
                counters.giveups += 1
                yield index, QueryOutcome(
                    task=task,
                    status=OutcomeStatus.GAVE_UP,
                    attempts=lane.attempts,
                    completed_at=lane_free_at,
                )
                lane.advance()
            else:
                counters.retries += 1
                lane_free_at += policy.backoff_delay(lane.attempts)
            heapq.heappush(waiting, (lane_free_at, sequence, lane, True))
            busy += 1
            sequence += 1

    # -- internals ---------------------------------------------------------

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

    # -- diagnostics --------------------------------------------------------

    def circuit_state(self, server_ip: str) -> CircuitState:
        """Expose breaker state for tests and reporting."""
        return self._breaker.state(server_ip)

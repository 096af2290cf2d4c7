"""The naive baseline engine: one task at a time, in order.

This is the behaviour the original ``ResponseCollector`` loop had, with
the policy knobs (pacing, timeout, retry/backoff) made explicit.  Every
wait is dead time: the virtual clock ticks while the single worker sits
out a pacing interval, a timeout, or a backoff — which is exactly what
the batched engine exists to avoid.

Kept both as a correctness oracle (the batched engine must match its
classified output bit for bit on a fault-free scenario) and as the
comparison baseline for the scheduling benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dns.message import Message
from ..net.network import NetworkError, SimulatedInternet
from ..obs.events import STAGE1 as OBS_STAGE1
from ..resilience.metrics import ResilienceMetrics
from .api import EnginePolicy, OutcomeStatus, QueryOutcome, QueryTask
from .metrics import ScanMetrics
from .ratelimit import RateLimiter


class SequentialEngine:
    """Drive tasks strictly serially over the simulated internet."""

    name = "sequential"

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
        #: query messages by (qname, qtype, rd), built once and re-sent;
        #: engines scanning the same names may share one dict (the group
        #: runner hands every group engine the parent's)
        self.query_cache: Dict[Tuple[object, int, bool], Message] = {}
        #: optional repro.obs.RunTrace (budget.exhausted / hedge events)
        self.trace = None
        #: optional resilience controllers (attached by URHunter).  The
        #: serial engine honours budgets and hedging; AIMD is accepted
        #: but inert — with a single lane there is no concurrency to
        #: adapt, and pacing already serializes per-server sends.
        self.budget = None
        self.hedge = None
        self.aimd = None
        self.resilience = ResilienceMetrics()

    # -- QueryEngine protocol ---------------------------------------------

    def execute(self, tasks: Sequence[QueryTask]) -> List[QueryOutcome]:
        outcomes: List[QueryOutcome] = []
        for task in tasks:
            outcomes.append(self._run_task(task))
        return outcomes

    def execute_iter(
        self, tasks: Sequence[QueryTask]
    ) -> Iterator[Tuple[int, QueryOutcome]]:
        """Lazy variant of :meth:`execute` for the streaming dataflow.

        The serial engine completes tasks in submission order, so the
        yielded indices are simply 0, 1, 2, ...; a paused consumer
        pauses the scan (no query is sent until the next pull).
        """
        for index, task in enumerate(tasks):
            yield index, self._run_task(task)

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

    def _run_task(self, task: QueryTask) -> QueryOutcome:
        policy = self.policy
        counters = self.metrics.stage(task.stage)
        network = self.network
        budget = self.budget
        hedge = self.hedge
        if budget is not None:
            budget.begin(network.now)
            budget.enter_phase(task.stage, network.now)
            reason = budget.check(network.now, task.stage)
            if reason is not None:
                counters.shed += 1
                self.resilience.note_shed(reason)
                if budget.announce(task.stage, reason) and (
                    self.trace is not None
                ):
                    self.trace.emit(
                        "budget.exhausted",
                        stage=OBS_STAGE1,
                        phase=task.stage,
                        reason=reason,
                    )
                return QueryOutcome(
                    task=task,
                    status=OutcomeStatus.SHED,
                    attempts=0,
                    completed_at=network.now,
                )
        query = self._query_for(task)
        attempts = 0
        hedging = False
        while True:
            # pacing: the lone worker has nothing to do but wait
            ready = self._limiter.ready_at(task.server_ip, network.now)
            if ready > network.now:
                counters.rate_limit_wait += ready - network.now
                network.tick(ready - network.now)
            self._limiter.take(task.server_ip, network.now)
            attempts += 1
            counters.queries += 1
            sent_at = network.now
            try:
                response = network.query_dns_auto(
                    self.scanner_ip, task.server_ip, query
                )
            except NetworkError:
                response = None
            if response is not None:
                if hedge is not None:
                    hedge.observe(task.server_ip, network.now - sent_at)
                    if hedging:
                        hedge.won += 1
                        self.resilience.hedges_won += 1
                        if self.trace is not None:
                            self.trace.emit(
                                "hedge.won",
                                stage=OBS_STAGE1,
                                scope="nameserver",
                                server=task.server_ip,
                                phase=task.stage,
                            )
                counters.responses += 1
                self.metrics.latency.record(network.now - sent_at)
                return QueryOutcome(
                    task=task,
                    status=OutcomeStatus.ANSWERED,
                    response=response,
                    attempts=attempts,
                    completed_at=network.now,
                )
            counters.timeouts += 1
            # hedging: after the first failure, wait only the hedge
            # delay before the second attempt instead of the full
            # timeout + backoff window (the retry *is* the hedge)
            if (
                hedge is not None
                and not hedging
                and attempts == 1
                and attempts <= policy.retries
            ):
                delay = hedge.delay(task.server_ip)
                network.tick(delay)
                self.metrics.latency.record(network.now - sent_at)
                counters.retries += 1
                hedging = True
                hedge.fired += 1
                self.resilience.hedges_fired += 1
                if self.trace is not None:
                    self.trace.emit(
                        "hedge.fired",
                        stage=OBS_STAGE1,
                        scope="nameserver",
                        server=task.server_ip,
                        phase=task.stage,
                    )
                continue
            if hedging:
                hedging = False
                hedge.wasted += 1
                self.resilience.hedges_wasted += 1
                if self.trace is not None:
                    self.trace.emit(
                        "hedge.wasted",
                        stage=OBS_STAGE1,
                        scope="nameserver",
                        server=task.server_ip,
                        phase=task.stage,
                    )
            # timed out: the scanner waited the full timeout for nothing
            network.tick(policy.timeout)
            self.metrics.latency.record(network.now - sent_at)
            if attempts > policy.retries:
                counters.giveups += 1
                return QueryOutcome(
                    task=task,
                    status=OutcomeStatus.GAVE_UP,
                    attempts=attempts,
                    completed_at=network.now,
                )
            counters.retries += 1
            network.tick(policy.backoff_delay(attempts))

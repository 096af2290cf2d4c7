"""Deadline budgets: unit behaviour plus engine-level load shedding."""

import json

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
    QueryTask,
)
from repro.obs import RunTrace
from repro.resilience import DeadlineBudget

from .conftest import NS_LIVE, SCANNER


def _task(server_ip, qtype=RRType.A, stage="ur"):
    return QueryTask(
        server_ip=server_ip,
        qname=name("example.test"),
        qtype=qtype,
        stage=stage,
    )


class TestDeadlineBudgetUnit:
    def test_zero_budgets_never_exhaust(self):
        budget = DeadlineBudget()
        budget.begin(0.0)
        assert not budget.run_exhausted(1e12)
        assert budget.check(1e12, "ur") is None

    def test_begin_is_idempotent(self):
        budget = DeadlineBudget(run_deadline=10.0)
        budget.begin(100.0)
        budget.begin(500.0)  # second begin must not move the anchor
        assert budget.run_exhausted(110.0)

    def test_run_deadline_measured_from_begin(self):
        budget = DeadlineBudget(run_deadline=10.0)
        budget.begin(100.0)
        assert not budget.run_exhausted(109.9)
        assert budget.run_exhausted(110.0)
        assert budget.check(110.0, "ur") == "deadline-run"

    def test_stage_deadline_measured_from_phase_entry(self):
        budget = DeadlineBudget(stage_deadline=5.0)
        budget.begin(0.0)
        budget.enter_phase("correct", 0.0)
        assert budget.check(4.0, "correct") is None
        assert budget.check(5.0, "correct") == "deadline-stage"
        # a new phase gets a fresh allowance
        budget.enter_phase("ur", 6.0)
        assert budget.check(10.0, "ur") is None
        assert budget.check(11.0, "ur") == "deadline-stage"

    def test_run_reason_wins_over_stage(self):
        budget = DeadlineBudget(run_deadline=5.0, stage_deadline=1.0)
        budget.begin(0.0)
        budget.enter_phase("ur", 0.0)
        assert budget.check(6.0, "ur") == "deadline-run"

    def test_announce_once_per_phase_and_reason(self):
        budget = DeadlineBudget(run_deadline=1.0)
        assert budget.announce("ur", "deadline-run")
        assert not budget.announce("ur", "deadline-run")
        assert budget.announce("correct", "deadline-run")

    def test_negative_deadlines_rejected(self):
        with pytest.raises(ValueError):
            DeadlineBudget(run_deadline=-1.0)
        with pytest.raises(ValueError):
            DeadlineBudget(stage_deadline=-1.0)


class TestEngineShedding:
    """Once the budget is spent, queued tasks shed deterministically and
    land in the loss ledger — never silently dropped."""

    def _run(self, network, **budget_knobs):
        engine = BatchedEngine(
            network, SCANNER, EnginePolicy(per_server_interval=0.0)
        )
        engine.budget = DeadlineBudget(**budget_knobs)
        trace = RunTrace()
        engine.trace = trace
        outcomes = engine.execute([_task(NS_LIVE) for _ in range(5)])
        return engine, outcomes, trace

    def test_exhausted_budget_sheds_the_tail(self, make_network):
        # the first answer charges ~20ms of latency, far past a 1ms
        # budget — every task after it must shed
        engine, outcomes, trace = self._run(make_network(), run_deadline=0.001)
        statuses = [outcome.status for outcome in outcomes]
        assert statuses[0] is OutcomeStatus.ANSWERED
        assert all(s is OutcomeStatus.SHED for s in statuses[1:])
        counters = engine.metrics.stage("ur")
        # shed tasks were never sent: they must not count as queries
        assert counters.queries == 1
        assert counters.responses == 1
        assert counters.shed == 4
        assert engine.resilience.shed == {"shed:deadline-run": 4}
        assert engine.resilience.active

    def test_budget_exhausted_announced_once(self, make_network):
        _, _, trace = self._run(make_network(), run_deadline=0.001)
        events = [
            json.loads(line)
            for line in trace.deterministic_lines()
            if '"budget.exhausted"' in line
        ]
        assert len(events) == 1
        assert events[0]["reason"] == "deadline-run"
        assert events[0]["phase"] == "ur"

    def test_generous_budget_sheds_nothing(self, make_network):
        engine, outcomes, _ = self._run(make_network(), run_deadline=1e6)
        assert all(o.status is OutcomeStatus.ANSWERED for o in outcomes)
        assert engine.metrics.stage("ur").shed == 0
        assert not engine.resilience.active

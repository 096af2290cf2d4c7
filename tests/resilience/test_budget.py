"""Deadline budgets: unit behaviour plus engine-level load shedding."""

import pytest

from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
)
from repro.resilience import DeadlineBudget, ResilienceMetrics

from ..conftest import drive, query
from .conftest import NS_LIVE, SCANNER


class TestDeadlineBudgetUnit:
    def test_zero_budgets_never_exhaust(self):
        budget = DeadlineBudget(0.0)
        assert not budget.run_exhausted(1e12)
        assert budget.check(1e12, "ur") is None

    def test_phase_entry_does_not_move_the_run_origin(self):
        budget = DeadlineBudget(100.0, run_deadline=10.0)
        budget.enter_phase("ur", 500.0)
        assert budget.run_exhausted(110.0)

    def test_run_deadline_measured_from_origin(self):
        budget = DeadlineBudget(100.0, run_deadline=10.0)
        assert not budget.run_exhausted(109.9)
        assert budget.run_exhausted(110.0)
        assert budget.check(110.0, "ur") == "deadline-run"

    def test_stage_deadline_measured_from_phase_entry(self):
        budget = DeadlineBudget(0.0, stage_deadline=5.0)
        budget.enter_phase("correct", 0.0)
        assert budget.check(4.0, "correct") is None
        assert budget.check(5.0, "correct") == "deadline-stage"
        # a new phase gets a fresh allowance
        budget.enter_phase("ur", 6.0)
        assert budget.check(10.0, "ur") is None
        assert budget.check(11.0, "ur") == "deadline-stage"

    def test_run_reason_wins_over_stage(self):
        budget = DeadlineBudget(0.0, run_deadline=5.0, stage_deadline=1.0)
        budget.enter_phase("ur", 0.0)
        assert budget.check(6.0, "ur") == "deadline-run"

    def test_announce_once_per_phase_and_reason(self):
        budget = DeadlineBudget(0.0, run_deadline=1.0)
        assert budget.announce("ur", "deadline-run")
        assert not budget.announce("ur", "deadline-run")
        assert budget.announce("correct", "deadline-run")

    def test_negative_deadlines_rejected(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0, run_deadline=-1.0)
        with pytest.raises(ValueError):
            DeadlineBudget(0.0, stage_deadline=-1.0)


class TestEngineShedding:
    """Once the budget is spent, queued tasks shed deterministically and
    land in the loss ledger — never silently dropped."""

    def _run(self, network, **budget_knobs):
        engine = BatchedEngine(
            network, SCANNER, NS_LIVE, "ur", EnginePolicy()
        )
        engine.budget = DeadlineBudget(network.now, **budget_knobs)
        outcomes = drive(engine, [query() for _ in range(5)])
        return engine, outcomes

    def test_exhausted_budget_sheds_the_tail(self, make_network):
        # the first answer charges ~20ms of latency, far past a 1ms
        # budget — every task after it must shed
        engine, outcomes = self._run(make_network(), run_deadline=0.001)
        statuses = [outcome.status for outcome in outcomes]
        assert statuses[0] is OutcomeStatus.ANSWERED
        assert all(s is OutcomeStatus.SHED for s in statuses[1:])
        counters = engine.metrics.stage("ur")
        # shed tasks were never sent: they must not count as queries
        assert counters.queries == 1
        assert counters.responses == 1
        assert counters.shed == 4
        assert engine.metrics.shed_by_reason == {"shed:deadline-run": 4}
        assert ResilienceMetrics(engine.metrics).active

    def test_budget_exhausted_announced_once(self, make_network):
        engine, _ = self._run(make_network(), run_deadline=0.001)
        events = [
            fields
            for event, _, fields in engine.events
            if event == "budget.exhausted"
        ]
        assert len(events) == 1
        assert events[0]["reason"] == "deadline-run"
        assert events[0]["phase"] == "ur"

    def test_generous_budget_sheds_nothing(self, make_network):
        engine, outcomes = self._run(make_network(), run_deadline=1e6)
        assert all(o.status is OutcomeStatus.ANSWERED for o in outcomes)
        assert engine.metrics.stage("ur").shed == 0
        assert not ResilienceMetrics(engine.metrics).active

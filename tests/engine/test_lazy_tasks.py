"""A lazy task sequence drives the engine exactly as its list does.

The engine reads a task from the caller's sequence only after the
previous outcome was yielded, so the plan's
:class:`~repro.plan.scanplan.PlannedTasks` view is never materialized.
Handing the engine the view or ``list(view)`` must give the same
``(index, outcome)`` stream, clock and ledger — clean, under loss with
hedging and AIMD pacing, and with circuits that open.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.wire import encode_message
from repro.scenario import build_world, small_config

SEED = 7
DEAD_SERVERS = 3


def _clean(world):
    return {}


def _lossy(world):
    world.network.inject_faults(loss_rate=0.05, seed=SEED)
    return {"hedge_delay": 0.5, "aimd": True}


def _circuit_open(world):
    for target in world.nameserver_targets[:DEAD_SERVERS]:
        world.network.set_online(target.address, False)
    return {}


INPUTS = [
    pytest.param(_clean, id="clean"),
    pytest.param(_lossy, id="loss-5pct-hedge-aimd"),
    pytest.param(_circuit_open, id="circuit-open"),
]


def _stream(prepare, materialize):
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world, HunterConfig(**prepare(world)))
    tasks = hunter.plan.tasks("ur")
    if materialize:
        tasks = list(tasks)
    stream = [
        (
            index,
            outcome.task.server_ip,
            outcome.task.qname,
            outcome.task.qtype,
            outcome.task.stage,
            outcome.task.recursion_desired,
            outcome.task.tag,
            outcome.status,
            outcome.attempts,
            outcome.completed_at,
            # the wire form minus the (process-global) message id
            None
            if outcome.response is None
            else encode_message(outcome.response)[2:],
        )
        for index, outcome in hunter.engine.execute_iter(tasks)
    ]
    return stream, hunter


@pytest.mark.parametrize("prepare", INPUTS)
def test_lazy_sequence_and_list_give_identical_streams(prepare):
    lazy, lazy_hunter = _stream(prepare, materialize=False)
    listed, listed_hunter = _stream(prepare, materialize=True)
    assert lazy == listed
    assert [row[0] for row in lazy] == list(
        range(len(lazy_hunter.plan.ur_units))
    )
    assert lazy_hunter.network.now == listed_hunter.network.now
    assert (
        lazy_hunter.engine.metrics.to_dict()
        == listed_hunter.engine.metrics.to_dict()
    )
    counters = lazy_hunter.engine.metrics.stage("ur")
    if prepare is _lossy:
        assert counters.retries > 0
        assert lazy_hunter.resilience.hedges_fired > 0
    if prepare is _circuit_open:
        assert counters.skipped > 0


def test_tasks_are_read_one_at_a_time_in_task_order():
    """``execute_iter`` yields index 0, 1, 2, ... and reads task ``n``
    only once outcome ``n - 1`` was pulled: a paused consumer pauses
    the scan, and no second task exists while one is being driven."""
    world = build_world(small_config(seed=SEED))
    world.network.inject_faults(loss_rate=0.05, seed=SEED)
    hunter = URHunter.from_world(world, HunterConfig(hedge_delay=0.5))
    built = []

    class Counting(type(hunter.plan.tasks("ur"))):
        def __iter__(self):
            for position, task in enumerate(super().__iter__()):
                built.append(position)
                yield task

    stream = hunter.engine.execute_iter(Counting(hunter.plan.ur_units))
    for expected in range(200):
        index, outcome = next(stream)
        assert index == expected
        assert built == list(range(expected + 1))
    assert hunter.engine.metrics.stage("ur").retries > 0
    stream.close()

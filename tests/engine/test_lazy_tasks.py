"""A lazy task sequence drives the engines exactly as its list does.

The batched engine queues *positions* per lane and reads a task from
the caller's sequence only when it reaches the head of its lane, so the
plan's :class:`~repro.plan.scanplan.PlannedTasks` view is never
materialized.  Handing either engine the view or ``list(view)`` must
give the same ``(index, outcome)`` stream, clock and ledger — clean,
under loss with hedging and AIMD pacing, and with circuits that open.
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


def _stream(prepare, engine_name, materialize):
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(
        world, HunterConfig(engine=engine_name, **prepare(world))
    )
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


@pytest.mark.parametrize("engine_name", ["batched", "sequential"])
@pytest.mark.parametrize("prepare", INPUTS)
def test_lazy_sequence_and_list_give_identical_streams(prepare, engine_name):
    lazy, lazy_hunter = _stream(prepare, engine_name, materialize=False)
    listed, listed_hunter = _stream(prepare, engine_name, materialize=True)
    assert lazy == listed
    assert sorted(row[0] for row in lazy) == list(
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
        if engine_name == "batched":
            assert lazy_hunter.resilience.hedges_fired > 0
    if prepare is _circuit_open and engine_name == "batched":
        assert counters.skipped > 0


def test_batched_lanes_hold_positions_not_tasks():
    """Mid-scan, the engine has read at most one task per lane beyond
    the ones already completed."""
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world, HunterConfig())
    reads = []

    class Counting(type(hunter.plan.tasks("ur"))):
        def __getitem__(self, position):
            reads.append(position)
            return super().__getitem__(position)

    tasks = Counting(hunter.plan.ur_units)
    stream = hunter.engine.execute_iter(tasks)
    for completed in range(1, 101):
        next(stream)
        assert len(reads) <= completed + len(hunter.plan.groups)
    stream.close()
    assert len(reads) < len(tasks) // 10

"""A lazy query stream drives the engine exactly as its list does.

The engine reads a query from the caller's iterable only after the
previous outcome was yielded, so a lane's planned rows
(:func:`~repro.plan.shards.lane_queries`) are read one at a time and
never materialized.  Handing each UR lane's engine the generator or
its ``list`` must give the same ``(index, outcome)`` stream, clock and
ledger — clean, under loss with hedging and AIMD pacing, and with
circuits that open.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.wire import encode_message
from repro.plan import shards
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
    """Every UR lane driven one after another, each on its own group
    engine: ``(group, index, ...)`` rows and the hunter."""
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world, HunterConfig(**prepare(world)))
    plan, ledger = hunter.plan, hunter.collector
    stream = []
    for group in plan.groups:
        engine = shards._group_engine(
            ledger, group.server_ip, "ur", hunter.network.now
        )
        queries = shards.lane_queries(
            hunter.network, plan.ur_units, group.unit_indices
        )
        if materialize:
            queries = list(queries)
        stream += [
            (
                group.index,
                index,
                plan.ur_units.qname(group.unit_indices[index]),
                outcome.status,
                outcome.attempts,
                outcome.completed_at,
                # the wire form minus the (process-global) message id
                None
                if outcome.response is None
                else encode_message(outcome.response)[2:],
            )
            for index, outcome in engine.execute_iter(queries)
        ]
        ledger.metrics.merge(engine.metrics)
    return stream, hunter


@pytest.mark.parametrize("prepare", INPUTS)
def test_lazy_sequence_and_list_give_identical_streams(prepare):
    lazy, lazy_hunter = _stream(prepare, materialize=False)
    listed, listed_hunter = _stream(prepare, materialize=True)
    assert lazy == listed
    assert [row[:2] for row in lazy] == [
        (group.index, index)
        for group in lazy_hunter.plan.groups
        for index in range(len(group.unit_indices))
    ]
    assert lazy_hunter.network.now == listed_hunter.network.now
    assert (
        lazy_hunter.collector.metrics.to_dict()
        == listed_hunter.collector.metrics.to_dict()
    )
    counters = lazy_hunter.collector.metrics.stage("ur")
    if prepare is _lossy:
        assert counters.retries > 0
        assert lazy_hunter.resilience.hedges_fired > 0
    if prepare is _circuit_open:
        assert counters.skipped > 0


def test_queries_are_read_one_at_a_time_in_planned_order():
    """``execute_iter`` yields index 0, 1, 2, ... and reads planned row
    ``n`` only once outcome ``n - 1`` was pulled: a paused consumer
    pauses the scan.  Each row read is the planned question."""
    world = build_world(small_config(seed=SEED))
    world.network.inject_faults(loss_rate=0.05, seed=SEED)
    hunter = URHunter.from_world(world, HunterConfig(hedge_delay=0.5))
    units = hunter.plan.ur_units
    group = max(hunter.plan.groups, key=lambda g: len(g.unit_indices))
    lane = group.unit_indices
    built = []

    def counting():
        queries = shards.lane_queries(hunter.network, units, lane)
        for position, query in enumerate(queries):
            built.append(position)
            question = query.question
            assert question.qname == units.qname(lane[position])
            assert question.qtype == units.query_types[
                units.qtype_index[lane[position]]
            ]
            assert not query.header.recursion_desired
            yield query

    engine = shards._group_engine(
        hunter.collector, group.server_ip, "ur", hunter.network.now
    )
    stream = engine.execute_iter(counting())
    for expected in range(len(lane)):
        index, outcome = next(stream)
        assert index == expected
        assert built == list(range(expected + 1))
    assert engine.metrics.stage("ur").retries > 0
    assert next(stream, None) is None

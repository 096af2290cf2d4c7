"""Shared fixtures: a small world + its measurement, built once."""

import dataclasses

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.message import Message
from repro.dns.rdata import RRType
from repro.intel.aggregator import ThreatIntelAggregator
from repro.intel.ipinfo import IpInfoDatabase
from repro.intel.vendor import SecurityVendor
from repro.scenario import ScenarioConfig, build_world, small_config


def bare_hunter(network, nameservers, domains, delegated_to=None, **knobs):
    """A hunter over hand-built targets on a hand-built network: no
    resolvers, empty intel — enough to drive stage 1 (its
    ``build_plan``-made plan through the one executor)."""
    return URHunter(
        network,
        nameservers,
        domains,
        delegated_to or {},
        open_resolver_ips=(),
        ipinfo=IpInfoDatabase(),
        intel=ThreatIntelAggregator([SecurityVendor("unused")]),
        config=HunterConfig(**knobs),
    )


def query_with_id(qname, qtype, message_id):
    """``Message.make_query`` under a pinned message id."""
    query = Message.make_query(qname, qtype)
    query.header = dataclasses.replace(query.header, message_id=message_id)
    return query


def naive_stage2(hunter: URHunter) -> URHunter:
    """Route the hunter's stage 2 (batch or stream) through the
    reference path, ``SuspicionFilter(memoize=False)``: every record
    evaluated on its own, no per-key dedup."""
    build = hunter._stage2_filter

    def build_naive(stage1):
        suspicion = build(stage1)
        suspicion.memoize = False
        return suspicion

    hunter._stage2_filter = build_naive
    return hunter


def record_executed_groups(monkeypatch):
    """Every UR group that runs live — sends its queries — instead of
    replaying from a store, in execution order."""
    import repro.plan.shards as shards

    executed = []
    execute = shards.run_group

    def recording(ledger, plan, phase, group, *args):
        if phase == "ur":
            executed.append(group)
        return execute(ledger, plan, phase, group, *args)

    monkeypatch.setattr(shards, "run_group", recording)
    return executed


def drive(engine, queries):
    """Every outcome of one drive of ``engine`` over ``queries``, in
    query order."""
    return [outcome for _, outcome in engine.execute_iter(queries)]


def planned_rows(units, indices=None):
    """``(server_ip, qname, qtype)`` of each planned unit in ``indices``
    (default: every unit, in scan order), read off the plan's columns."""
    if indices is None:
        indices = range(len(units.qtype_index))
    return [
        (
            units.servers[units.server_index[index]],
            units.qnames[units.qname_index[index]],
            units.query_types[units.qtype_index[index]],
        )
        for index in indices
    ]


def query(qtype=RRType.A, qname="example.test"):
    """A scanner's query (no recursion) for ``qname``/``qtype``."""
    return Message.make_query(qname, qtype, recursion_desired=False)


def assert_only_uncacheable_groups_sent(hunter, executed):
    """A resume over a complete checkpoint directory: every cacheable UR
    group replayed from its slot, and only the groups whose server state
    is not observable ran live (the preamble always does)."""
    from repro.incremental import server_fingerprint

    stats = hunter.result_store.stats
    assert stats["hits"] > 0
    assert stats["misses"] == stats["invalidated"] == stats["stored"] == 0
    assert len(executed) == stats["uncacheable"]
    for group in executed:
        assert server_fingerprint(hunter.network, group.server_ip) is None


@pytest.fixture(scope="session")
def small_world():
    """One deterministic small world shared across the suite."""
    return build_world(small_config(seed=7))


@pytest.fixture(scope="session")
def small_report(small_world):
    """The URHunter measurement over the shared world."""
    hunter = URHunter.from_world(small_world)
    return hunter.run()


@pytest.fixture(scope="session")
def small_hunter(small_world):
    """A hunter instance (fresh pipeline state, same world)."""
    return URHunter.from_world(small_world)

"""Shared fixtures: a small world + its measurement, built once."""

import pytest

from repro.core import HunterConfig, URHunter
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


def naive_stage2(hunter: URHunter) -> URHunter:
    """Route the hunter's stage 2 (batch or stream) through the
    reference path, ``SuspicionFilter(memoize=False)``: every record
    evaluated on its own, no verdict memo."""
    build = hunter._stage2_filter

    def build_naive(protective):
        suspicion = build(protective)
        suspicion.memoize = False
        return suspicion

    hunter._stage2_filter = build_naive
    return hunter


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

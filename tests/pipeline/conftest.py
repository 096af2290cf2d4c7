"""Fixtures for the pipeline/chaos suite.

``CHAOS_SEEDS`` can be overridden from the environment (the CI chaos job
runs a different fixed set than the default developer seeds)::

    CHAOS_SEEDS="101 202 303" pytest tests/pipeline/test_chaos.py
"""

import os

import pytest

from repro.core import URHunter
from repro.pipeline import FaultPlan
from repro.scenario import build_world, small_config

#: seeds the chaos tests parametrize over
CHAOS_SEEDS = [
    int(seed)
    for seed in os.environ.get("CHAOS_SEEDS", "11 23 37").split()
]


def make_world(seed: int = 7):
    """A fresh small world (never shared: chaos tests mutate them)."""
    return build_world(small_config(seed=seed))


class FailingPlan(FaultPlan):
    """A fault plan that fails every call, or only its first ``first``
    calls (a transient outage that retries ride out)."""

    def __init__(self, first=None):
        super().__init__(error_rate=1.0)
        self.first = first

    def check(self, source):
        if self.first is not None and self.calls >= self.first:
            self.calls += 1
            return
        super().check(source)


@pytest.fixture
def fresh_world():
    return make_world()


@pytest.fixture(scope="module")
def baseline_report():
    """A fault-free measurement to compare degraded runs against."""
    return URHunter.from_world(make_world()).run()

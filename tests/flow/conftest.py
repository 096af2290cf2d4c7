"""Fixtures for the streaming-configuration suite.

Stages 2 and 3 run one way.  ``benchmarks/e2e`` still configures its
``scan_durable`` workload for streaming — ``HunterConfig(execution=
"stream")`` and ``PipelineRunner(checkpoint_every=...)`` — and reads
``HunterConfig.stage2_workers`` and ``HunterConfig.channel_depth``.
The suite pins that every one of those settings is inert: a run
configured that way is the batch run, byte for byte.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.scenario import build_world, small_config


def make_world(seed: int = 7):
    """A fresh small world (never shared: faulted runs mutate them)."""
    return build_world(small_config(seed=seed))


def stream_hunter(world=None, **overrides) -> URHunter:
    """A hunter configured the way the harness configures streaming."""
    config = HunterConfig(execution="stream", **overrides)
    return URHunter.from_world(world or make_world(), config)


@pytest.fixture
def fenced_knobs(monkeypatch):
    """Set the class-level depth and worker constants for one test."""

    def set_knobs(depth: int, workers: int) -> None:
        monkeypatch.setattr(HunterConfig, "channel_depth", depth)
        monkeypatch.setattr(HunterConfig, "stage2_workers", workers)

    return set_knobs


@pytest.fixture(scope="module")
def batch_summary() -> str:
    """The byte surface every streaming-configured run must reproduce."""
    return URHunter.from_world(make_world()).run().summary()

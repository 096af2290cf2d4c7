"""The deterministic trace section of a run (the byte-compared surface).

A full run's deterministic section spans every stage, and a shared
fault schedule shows up in it as degraded sources.  It is
byte-identical whatever the run's ``execution`` setting, stage-2 worker
count and channel depth: stages 2 and 3 run one way, and the three
survive only as inert names ``benchmarks/e2e`` still reads.  Wall-clock
observations ride in the timing section, which is exempt.
"""

from contextlib import contextmanager

import pytest

from repro.core import HunterConfig, URHunter
from repro.intel.aggregator import ThreatIntelAggregator
from repro.obs import RunTrace
from repro.pipeline import (
    CheckpointStore,
    FaultPlan,
    FlakyPassiveDNS,
    FlakyVendor,
    PipelineRunner,
)
from repro.scenario import build_world, small_config

SEED = 7
#: one shared chaos schedule
FAULTS = dict(loss=0.15, pdns=0.35, intel=0.25)


@contextmanager
def fenced_knobs(workers, depth):
    """Set the class-level worker and depth constants for one run."""
    saved = HunterConfig.stage2_workers, HunterConfig.channel_depth
    HunterConfig.stage2_workers, HunterConfig.channel_depth = workers, depth
    try:
        yield
    finally:
        HunterConfig.stage2_workers, HunterConfig.channel_depth = saved


def run_trace(
    execution="batch",
    workers=1,
    depth=64,
    loss=0.0,
    pdns=0.0,
    intel=0.0,
):
    """One full measurement; returns the deterministic JSONL lines."""
    world = build_world(small_config(seed=SEED))
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=SEED)
    hunter = URHunter.from_world(world, HunterConfig(execution=execution))
    trace = RunTrace()
    hunter.attach_trace(trace)
    if pdns:
        hunter.pdns = FlakyPassiveDNS(
            world.pdns, FaultPlan(seed=3, error_rate=pdns)
        )
    if intel:
        hunter.intel = ThreatIntelAggregator(
            [
                FlakyVendor(
                    vendor,
                    FaultPlan(seed=3 + index, error_rate=intel),
                )
                for index, vendor in enumerate(world.vendors)
            ]
        )
    with fenced_knobs(workers, depth):
        hunter.run()
    return trace.deterministic_lines()


@pytest.fixture(scope="module")
def batch_clean():
    return run_trace()


@pytest.fixture(scope="module")
def batch_faulted():
    return run_trace(**FAULTS)


class TestCleanEquivalence:
    def test_trace_is_nonempty_and_spans_all_stages(self, batch_clean):
        text = "\n".join(batch_clean)
        for marker in (
            "run.start",
            "stage1-collect",
            "stage2-exclude",
            "stage3-analyze",
            "collect.phase",
            "run.end",
        ):
            assert marker in text

    def test_stream_matches_batch(self, batch_clean):
        assert (
            run_trace(execution="stream", workers=4, depth=5)
            == batch_clean
        )

    def test_stream_depth_invariant(self, batch_clean):
        assert run_trace(execution="stream", depth=1) == batch_clean

    def test_batch_worker_invariant(self, batch_clean):
        assert run_trace(execution="batch", workers=4) == batch_clean


class TestFaultedEquivalence:
    def test_faults_actually_degrade(self, batch_faulted):
        text = "\n".join(batch_faulted)
        assert "source.degraded" in text

    def test_stream_matches_batch_under_faults(self, batch_faulted):
        assert (
            run_trace(execution="stream", workers=4, depth=7, **FAULTS)
            == batch_faulted
        )

    def test_stream_worker_and_depth_invariant_under_faults(
        self, batch_faulted
    ):
        assert (
            run_trace(execution="stream", workers=1, depth=64, **FAULTS)
            == batch_faulted
        )


def runner_trace(
    directory,
    execution,
    checkpoint_every=0,
    workers=1,
    depth=64,
):
    """One checkpointed run through PipelineRunner; deterministic lines."""
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world, HunterConfig(execution=execution))
    trace = RunTrace()
    hunter.attach_trace(trace)
    runner = PipelineRunner(
        hunter,
        store=CheckpointStore(str(directory)),
        scenario_fingerprint="equivalence",
        checkpoint_every=checkpoint_every,
    )
    with fenced_knobs(workers, depth):
        runner.run()
    return trace.deterministic_lines()


class TestRunnerEquivalence:
    """The runner adds run provenance events; the invariant must survive
    them (``execution`` is not a field, so the fingerprint in
    ``run.start`` never sees it, and ``checkpoint_every`` writes
    nothing)."""

    def test_batch_vs_stream_with_store(self, tmp_path):
        batch = runner_trace(tmp_path / "batch", "batch")
        stream = runner_trace(
            tmp_path / "stream", "stream", workers=4, depth=9
        )
        assert batch == stream
        assert any("run.start" in line for line in batch)

    def test_stream_segments_invariant_across_depth_and_workers(
        self, tmp_path
    ):
        first = runner_trace(
            tmp_path / "a",
            "stream",
            checkpoint_every=50,
            depth=3,
            workers=1,
        )
        second = runner_trace(
            tmp_path / "b",
            "stream",
            checkpoint_every=50,
            depth=64,
            workers=4,
        )
        assert first == second
        assert first == runner_trace(tmp_path / "c", "batch")
        assert not any("segment.save" in line for line in first)

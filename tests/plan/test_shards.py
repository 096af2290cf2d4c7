"""Stage-1 group runner equivalence: the merged run is byte-identical.

The acceptance invariant of the group runner: for every execution mode
the report summary, the trace's deterministic section, and the metrics
document's deterministic section are byte-identical to the batch run —
clean, faulted, and resumed from the groups a killed run had stored.
"""

import itertools
import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.core import hunter as hunter_module
from repro.core.collector import CollectionFailure
from repro.incremental import GroupResultStore
from repro.obs import RunTrace
from repro.obs.metrics import build_metrics_document
from repro.pipeline import CheckpointStore, PipelineRunner
from repro.plan import NameserverGroup
from repro.plan import shards as shard_runner
from repro.scenario import build_world, small_config


SEED = 7
LOSS = 0.15


def measure(
    execution="batch",
    loss=0.0,
    checkpoints=None,
    resume=False,
    **knobs,
):
    """One full measurement — through a checkpointing pipeline runner
    when ``checkpoints`` names a directory; returns the three
    byte-compared surfaces and the hunter that produced them."""
    world = build_world(small_config(seed=SEED))
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=SEED)
    hunter = URHunter.from_world(
        world, HunterConfig(execution=execution, **knobs)
    )
    trace = RunTrace()
    hunter.attach_trace(trace)
    if checkpoints is None:
        report = hunter.run()
    else:
        runner = PipelineRunner(
            hunter, store=CheckpointStore(checkpoints), resume=resume
        )
        report = runner.run().report
    doc = build_metrics_document(report, fingerprint="pinned")
    surfaces = (
        report.summary(),
        trace.deterministic_lines(),
        json.dumps(doc["deterministic"], sort_keys=True),
    )
    return surfaces, hunter


def run(**inputs):
    """One full measurement; returns the three byte-compared surfaces."""
    return measure(**inputs)[0]


@pytest.fixture(scope="module")
def clean():
    return run()


@pytest.fixture(scope="module")
def faulted():
    return run(loss=LOSS)


class TestCleanEquivalence:
    def test_invariant_under_streaming_execution(self, clean):
        assert run(execution="stream") == clean

    def test_plan_built_event_names_the_hash(self, clean):
        world = build_world(small_config(seed=SEED))
        hunter = URHunter.from_world(world)
        (built,) = [
            json.loads(line)
            for line in clean[1]
            if '"event":"plan.built"' in line
        ]
        assert built["hash"] == hunter.plan.plan_hash
        assert built["groups"] == len(hunter.plan.groups)
        assert built["ur"] == hunter.plan.unit_counts()["ur"]

    def test_stage1_runs_the_plan_it_hashes(self, monkeypatch):
        """The plan whose hash the trace header and the config
        fingerprint stamp is the plan object the UR scan runs: stage 1
        never rebuilds it."""
        world = build_world(small_config(seed=SEED))
        hunter = URHunter.from_world(world)
        trace = RunTrace()
        hunter.attach_trace(trace)
        ran = []
        scan = hunter_module.run_shard_scan

        def recording(scanner, plan, start):
            ran.append(plan)
            return scan(scanner, plan, start)

        monkeypatch.setattr(hunter_module, "run_shard_scan", recording)
        hunter.stage1_collect()
        assert ran == [hunter.plan] and ran[0] is hunter.plan
        assert trace.header()["plan"] == hunter.plan.plan_hash

    def test_run_end_accounts_for_every_query(self, clean):
        (run_end,) = [
            json.loads(line)
            for line in clean[1]
            if '"event":"run.end"' in line
        ]
        assert run_end["unaccounted"] == 0


class TestFaultedEquivalence:
    """A loss schedule: execution-mode invariant."""

    def test_loss_invariant_under_streaming_execution(self, faulted):
        assert run(loss=LOSS, execution="stream") == faulted

    def test_loss_actually_bites(self, faulted, clean):
        assert faulted != clean


class TestGroupFailure:
    """A group whose engine dies mid-phase keeps its provenance: the
    failure names the collection and carries the parent ledger merged
    up to the last completed group — UR groups and the preamble's
    resolver groups alike."""

    COMPLETED = 3

    @pytest.mark.parametrize("execution", ["batch", "stream"])
    def test_failure_names_the_collection_and_keeps_the_ledger(
        self, execution, tmp_path, monkeypatch
    ):
        self.check("ur", execution, tmp_path, monkeypatch)

    @pytest.mark.parametrize("execution", ["batch", "stream"])
    def test_resolver_group_failure_names_the_correct_collection(
        self, execution, tmp_path, monkeypatch
    ):
        self.check("correct", execution, tmp_path, monkeypatch)

    def check(self, collection, execution, tmp_path, monkeypatch):
        world = build_world(small_config(seed=SEED))
        hunter = URHunter.from_world(
            world, HunterConfig(execution=execution)
        )
        build_engine = shard_runner._group_engine
        started = itertools.count()

        def dying_engine(ledger, server_ip, phase, origin):
            engine = build_engine(ledger, server_ip, phase, origin)
            execute_iter = engine.execute_iter

            def counted(queries):
                if (
                    engine.phase == collection
                    and next(started) == self.COMPLETED
                ):
                    raise RuntimeError("engine blew up")
                return execute_iter(queries)

            engine.execute_iter = counted
            return engine

        monkeypatch.setattr(shard_runner, "_group_engine", dying_engine)
        runner = PipelineRunner(hunter, store=CheckpointStore(str(tmp_path)))
        with pytest.raises(CollectionFailure) as caught:
            runner.run()
        failure = caught.value
        assert failure.stage == f"stage1-collect/{collection}"
        assert failure.collection == collection
        assert isinstance(failure.cause, RuntimeError)
        # clean network: the collector's ledger holds one query per
        # unit of the groups that finished
        plan = hunter.plan
        ledger = hunter.collector.metrics
        if collection == "ur":
            groups = [group.unit_indices for group in plan.groups]
        else:
            groups = list(plan.correct_units.lanes().values())
            assert "ur" not in ledger.stages
        finished = sum(len(group) for group in groups[: self.COMPLETED])
        assert ledger.stage(collection).queries == finished > 0
        assert (
            ledger.stage("protective").queries
            == plan.unit_counts()["protective"]
        )
        recorded = json.loads((tmp_path / "failure.json").read_text())
        assert recorded["stage"] == f"stage1-collect/{collection}"
        assert recorded["error"] == "CollectionFailure"


class TestShardResume:
    """Every group is stored under ``<checkpoint-dir>/groups`` as it
    folds; a resumed run over the same directory re-executes only the
    missing ones and merges byte-identically."""

    def test_resume_from_partial_store(self, tmp_path, clean):
        uninterrupted = run(checkpoints=tmp_path)
        assert (uninterrupted[0], uninterrupted[2]) == (clean[0], clean[2])
        slots = sorted((tmp_path / "groups").glob("group-*.json"))
        assert len(slots) == 145
        # simulate a crash that persisted only every other group and
        # never reached the stage-1 checkpoint
        for path in slots[::2] + list(tmp_path.glob("stage*.json")):
            path.unlink()
        resumed, hunter = measure(checkpoints=tmp_path, resume=True)
        assert resumed == uninterrupted
        assert hunter.result_store.stats["hits"] == len(slots[1::2])
        assert len(list((tmp_path / "groups").glob("group-*.json"))) == 145

    @pytest.mark.parametrize("loss", [0.0, LOSS], ids=["clean", "lossy"])
    @pytest.mark.parametrize("killed_after", ["first", "last"])
    def test_killed_scan_resumes_from_its_stored_groups(
        self, killed_after, loss, tmp_path, monkeypatch
    ):
        """The kill seam fires once one group is folded and stored: the
        first, or the last — after the whole scan, where a crash used
        to cost a full re-scan."""
        uninterrupted, fresh = measure(
            loss=loss, checkpoints=tmp_path / "base"
        )
        groups = len(fresh.plan.groups)
        target = 0 if killed_after == "first" else groups - 1

        class Killed(BaseException):
            """Like the seam's SIGTERM, nothing gets to handle it."""

        def kill(index):
            if index == target:
                raise Killed(index)

        with monkeypatch.context() as patch:
            patch.setattr(shard_runner, "_maybe_crash_group", kill)
            with pytest.raises(Killed):
                run(loss=loss, checkpoints=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt" / "stage1-collect.json").exists()
        resumed, hunter = measure(
            loss=loss, checkpoints=tmp_path / "ckpt", resume=True
        )
        assert resumed == uninterrupted
        stats = hunter.result_store.stats
        assert stats["invalidated"] == 0
        if killed_after == "first":
            # group 0 is cacheable at this seed: it alone replays
            assert (stats["hits"], stats["misses"]) == (1, groups - 2)
        else:
            # every group but the uncacheable recursive one replays
            assert (stats["hits"], stats["misses"]) == (groups - 1, 0)
        live = hunter.network.stats["dns_queries"]
        assert live < fresh.network.stats["dns_queries"]

    def test_a_user_store_is_the_resume_medium_and_is_never_wiped(
        self, tmp_path
    ):
        def checkpointed():
            world = build_world(small_config(seed=SEED))
            hunter = URHunter.from_world(world)
            hunter.result_store = GroupResultStore(tmp_path / "mine")
            store = CheckpointStore(tmp_path / "ckpt")
            PipelineRunner(hunter, store=store).run()
            return hunter.result_store.stats

        assert checkpointed()["stored"] == 145
        assert not (tmp_path / "ckpt" / "groups").exists()
        # a fresh run wipes the checkpoint directory, not the caller's store
        assert checkpointed()["hits"] == 145


def test_one_function_runs_a_group_of_every_phase():
    """``run_group`` executes a group of any phase on a one-lane engine:
    its ledger counts that phase alone, every outcome reaches the fold
    with its unit index, and only what the fold returns other than
    ``None`` is kept."""
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world, HunterConfig())
    plan, collector = hunter.plan, hunter.collector
    start = hunter.network.now
    for phase in ("protective", "correct"):
        server_ip, lane = next(iter(plan.units(phase).lanes().items()))
        seen = []
        result = shard_runner.run_group(
            collector,
            plan,
            phase,
            NameserverGroup(0, server_ip, lane),
            start,
            start,
            lambda index, outcome: seen.append(index),
        )
        assert seen == list(lane)
        assert result.outcomes == []
        assert list(result.metrics.stages) == [phase]
        assert result.metrics.stage(phase).queries >= len(lane)
    group = plan.groups[0]
    result = shard_runner.run_group(
        collector, plan, "ur", group, start, start, collector.reduce_ur
    )
    # a UR group keeps only the outcomes that carried URs, in unit order
    indices = [outcome.index for outcome in result.outcomes]
    assert indices == [index for index in group.unit_indices if index in indices]
    assert 0 < len(indices) < len(group.unit_indices)
    assert all(outcome.urs for outcome in result.outcomes)
    assert list(result.metrics.stages) == ["ur"]

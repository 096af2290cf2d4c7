"""Sharded stage-1 equivalence: the merged run is byte-identical.

The acceptance invariant of the group runner: for every shard count,
worker count, and execution mode, the report summary, the trace's
deterministic section, and the metrics document's deterministic
section are byte-identical to the single-shard default — clean,
faulted, and resumed from the groups a killed run had stored.
"""

import itertools
import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import CollectionFailure
from repro.incremental import GroupResultStore
from repro.obs import RunTrace
from repro.obs.metrics import build_metrics_document
from repro.pipeline import CheckpointStore, PipelineRunner
from repro.plan import shards as shard_runner
from repro.plan.pool import WorldSpec
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import ScenarioConfig, build_world, small_config

SEED = 7
LOSS = 0.15
CHAOS = "tail-latency-storm"


def measure(
    shards,
    execution="batch",
    loss=0.0,
    chaos=None,
    workers=1,
    world_spec=None,
    checkpoints=None,
    resume=False,
    scenario=None,
    **knobs,
):
    """One full measurement — through a checkpointing pipeline runner
    when ``checkpoints`` names a directory; returns the three
    byte-compared surfaces and the hunter that produced them."""
    world = build_world(scenario or small_config(seed=SEED))
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=SEED)
    config = HunterConfig(
        execution=execution, shards=shards, shard_workers=workers, **knobs
    )
    hunter = URHunter.from_world(world, config)
    if chaos:
        apply_scenario(load_scenario(chaos), world, hunter)
    hunter.world_spec = world_spec
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


def run(shards, **inputs):
    """One full measurement; returns the three byte-compared surfaces."""
    return measure(shards, **inputs)[0]


@pytest.fixture(scope="module")
def clean_s1():
    return run(1)


@pytest.fixture(scope="module")
def clean_s2():
    return run(2)


@pytest.fixture(scope="module")
def faulted_s1():
    return run(1, loss=LOSS)


class TestCleanEquivalence:
    def test_invariant_under_shard_count(self, clean_s1, clean_s2):
        assert clean_s2 == clean_s1

    def test_invariant_under_streaming_execution(self, clean_s1):
        assert run(2, execution="stream") == clean_s1

    def test_plan_built_event_names_the_hash(self, clean_s1):
        world = build_world(small_config(seed=SEED))
        hunter = URHunter.from_world(world)
        (built,) = [
            json.loads(line)
            for line in clean_s1[1]
            if '"event":"plan.built"' in line
        ]
        assert built["hash"] == hunter.plan.plan_hash
        assert built["groups"] == len(hunter.plan.groups)
        assert built["ur"] == len(hunter.plan.ur_units)

    def test_run_end_accounts_for_every_query(self, clean_s2):
        (run_end,) = [
            json.loads(line)
            for line in clean_s2[1]
            if '"event":"run.end"' in line
        ]
        assert run_end["unaccounted"] == 0


class TestFaultedEquivalence:
    """Loss and chaos schedules: shard-count and execution-mode
    invariant."""

    def test_loss_invariant_under_shard_count(self, faulted_s1):
        assert run(4, loss=LOSS) == faulted_s1

    def test_loss_invariant_under_streaming_execution(self, faulted_s1):
        assert run(2, loss=LOSS, execution="stream") == faulted_s1

    def test_loss_actually_bites(self, faulted_s1, clean_s1):
        assert faulted_s1 != clean_s1

    def test_chaos_invariant_under_shard_count(self):
        assert run(4, chaos=CHAOS) == run(1, chaos=CHAOS)


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

        def dying_engine(scan, origin):
            engine = build_engine(scan, origin)
            execute_iter = engine.execute_iter

            def counted(tasks):
                if (
                    tasks.units.collection == collection
                    and next(started) == self.COMPLETED
                ):
                    raise RuntimeError("engine blew up")
                return execute_iter(tasks)

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
        # clean network: one query per unit of the groups that finished
        plan = hunter.plan
        if collection == "ur":
            groups = [group.unit_indices for group in plan.groups]
        else:
            groups = list(plan.correct_units.lanes().values())
            assert "ur" not in failure.metrics.stages
        finished = sum(len(group) for group in groups[: self.COMPLETED])
        assert failure.metrics.stage(collection).queries == finished > 0
        assert failure.metrics.stage("protective").queries == len(
            plan.protective_units
        )
        recorded = json.loads((tmp_path / "failure.json").read_text())
        assert recorded["stage"] == f"stage1-collect/{collection}"
        assert recorded["error"] == "CollectionFailure"


class TestShardResume:
    """Every group is stored under ``<checkpoint-dir>/groups`` as it
    folds; a resumed run over the same directory re-executes only the
    missing ones and merges byte-identically."""

    def test_resume_from_partial_store(self, tmp_path, clean_s1):
        uninterrupted = run(2, checkpoints=tmp_path)
        assert (uninterrupted[0], uninterrupted[2]) == (
            clean_s1[0],
            clean_s1[2],
        )
        slots = sorted((tmp_path / "groups").glob("group-*.json"))
        assert len(slots) == 145
        # simulate a crash that persisted only every other group and
        # never reached the stage-1 checkpoint
        for path in slots[::2] + list(tmp_path.glob("stage*.json")):
            path.unlink()
        resumed, hunter = measure(2, checkpoints=tmp_path, resume=True)
        assert resumed == uninterrupted
        assert hunter.result_store.stats["hits"] == len(slots[1::2])
        assert len(list((tmp_path / "groups").glob("group-*.json"))) == 145

    @pytest.mark.parametrize(
        "shards, loss", [(1, 0.0), (4, LOSS)], ids=["s1-clean", "s4-lossy"]
    )
    def test_killed_scan_resumes_from_its_stored_groups(
        self, shards, loss, tmp_path, monkeypatch
    ):
        """The kill seam fires once shard 0 is folded — at one shard,
        after the whole scan and before its stage-1 checkpoint, where a
        crash used to cost a full re-scan."""
        inputs = {"loss": loss}
        uninterrupted, fresh = measure(
            shards, checkpoints=tmp_path / "base", **inputs
        )

        class Killed(BaseException):
            """Like the seam's SIGTERM, nothing gets to handle it."""

        def kill(index):
            raise Killed(index)

        with monkeypatch.context() as patch:
            patch.setattr(shard_runner, "_maybe_crash_shard", kill)
            with pytest.raises(Killed):
                run(shards, checkpoints=tmp_path / "ckpt", **inputs)
        assert not (tmp_path / "ckpt" / "stage1-collect.json").exists()
        resumed, hunter = measure(
            shards, checkpoints=tmp_path / "ckpt", resume=True, **inputs
        )
        assert resumed == uninterrupted
        stats = hunter.result_store.stats
        assert stats["hits"] > 0
        assert stats["invalidated"] == 0
        if shards == 1:
            # the kill came after the last group
            assert stats["misses"] == 0
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


class TestProcessPool:
    def test_pooled_shards_match_in_process(self, clean_s2):
        spec = WorldSpec(scenario=small_config(seed=SEED))
        assert run(2, workers=2, world_spec=spec) == clean_s2

    def test_pooled_faulted_shards_match_in_process(self, faulted_s1):
        spec = WorldSpec(
            scenario=small_config(seed=SEED),
            loss_rate=LOSS,
            loss_seed=SEED,
        )
        assert run(2, loss=LOSS, workers=2, world_spec=spec) == faulted_s1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "faults, knobs",
        [
            pytest.param(
                {"loss_rate": 0.05, "loss_seed": SEED},
                {"hedge_delay": 0.5, "aimd": True},
                id="loss-hedge-aimd",
            ),
            pytest.param(
                {"chaos_script": CHAOS},
                {"hedge_delay": 0.25, "aimd": True},
                id="storm",
            ),
        ],
    )
    def test_pooled_faulted_runs_are_reproducible_at_default_scale(
        self, faults, knobs
    ):
        """Each worker executes its shards over its own world replica,
        and which shards land on which worker varies run to run.  While
        the recursive nameservers' fallback resolver kept its caches
        across groups, a replica's answers — and under loss every later
        fault draw — depended on what it had run before: the same
        command printed different reports.  (Default scale, seed 11:
        small worlds have one recursive nameserver and hid it.)"""
        scenario = ScenarioConfig(seed=11)
        spec = WorldSpec(scenario=scenario, **faults)
        inputs = dict(
            scenario=scenario,
            loss=faults.get("loss_rate", 0.0),
            chaos=faults.get("chaos_script"),
            **knobs,
        )
        in_process = run(4, **inputs)
        for _ in range(2):
            assert run(4, workers=2, world_spec=spec, **inputs) == in_process

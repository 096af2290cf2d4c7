"""Resume semantics: one path — stage 1 re-runs over its stored UR
groups, and stages 2 and 3 always run live.

The acceptance bar: a run resumed from the groups of a killed stage 1,
of a run killed in a later stage, or of a completed directory produces
a byte-identical report and deterministic trace; every cacheable UR
group replays from its slot, and only the preamble and the uncacheable
groups send.  A checkpoint directory holds ``manifest.json`` and
``groups/``; a stage snapshot an older build left in it is never read.
A SIGTERM'd CLI run and its ``--resume`` are the golden table's
``*-crash-*`` rows (``tests/golden/runs.json``).
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import EXIT_OK, main
from repro.core import URHunter
from repro.obs import RunTrace, build_metrics_document
from repro.obs.events import STAGE2 as OBS_STAGE2, STAGE3 as OBS_STAGE3
from repro.pipeline import (
    CheckpointStore,
    PipelineRunner,
    STAGE1,
    STAGE2,
    STAGE3,
    StageFailed,
)
from repro.resilience.scenario import (
    FaultWindow,
    ScenarioScript,
    apply_scenario,
)

from ..conftest import (
    assert_only_uncacheable_groups_sent,
    record_executed_groups,
)
from .conftest import make_world

SMALL = ["--scale", "small"]


def in_process(*args):
    """``repro --scale small ARGS`` in this process: exit code, stdout,
    stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        stderr
    ):
        code = main(SMALL + list(args))
    return code, stdout.getvalue(), stderr.getvalue()


def checkpoint_files(directory: Path):
    return sorted(path.name for path in directory.iterdir())


def group_slots(directory: Path):
    """Every stored UR group slot, by name, with its bytes."""
    return {
        path.name: path.read_bytes()
        for path in sorted((directory / "groups").glob("group-*.json"))
    }


def deterministic(report):
    """The report's byte-compared surfaces: the summary and the
    metrics document's deterministic block."""
    document = build_metrics_document(report)["deterministic"]
    return report.summary(), json.dumps(document, sort_keys=True)


def run(path, resume=False, validate=True, hunter=None):
    hunter = hunter or URHunter.from_world(make_world())
    result = PipelineRunner(
        hunter, store=CheckpointStore(path), resume=resume
    ).run(validate=validate)
    return hunter, result


class TestInProcessResume:
    def test_runner_without_store_matches_plain_run(self, baseline_report):
        hunter = URHunter.from_world(make_world())
        result = PipelineRunner(hunter).run()
        assert result.report.summary() == baseline_report.summary()

    def test_resume_requires_store(self):
        hunter = URHunter.from_world(make_world())
        with pytest.raises(ValueError, match="checkpoint store"):
            PipelineRunner(hunter, resume=True)

    def test_checkpoint_dir_holds_the_manifest_and_groups_only(
        self, tmp_path
    ):
        run(tmp_path)
        expected = ["groups", "manifest.json"]
        assert checkpoint_files(tmp_path) == expected
        assert list((tmp_path / "groups").glob("group-*.json"))
        run(tmp_path, resume=True)
        assert checkpoint_files(tmp_path) == expected

    def test_full_resume_replays_every_cacheable_group(
        self, tmp_path, monkeypatch, baseline_report
    ):
        run(tmp_path)
        executed = record_executed_groups(monkeypatch)
        replayer, replay = run(tmp_path, resume=True)
        assert_only_uncacheable_groups_sent(replayer, executed)
        assert deterministic(replay.report) == deterministic(baseline_report)

    def test_second_resume_is_byte_identical(
        self, tmp_path, monkeypatch, baseline_report
    ):
        run(tmp_path)
        slots = group_slots(tmp_path)
        run(tmp_path, resume=True)
        executed = record_executed_groups(monkeypatch)
        replayer, replay = run(tmp_path, resume=True)
        assert_only_uncacheable_groups_sent(replayer, executed)
        assert replay.report.summary() == baseline_report.summary()
        assert group_slots(tmp_path) == slots

    def test_resume_validates_whatever_the_checkpointing_run_did(
        self, tmp_path, baseline_report
    ):
        """Stage 2 runs live on every resume, so a validating resume of
        a run made without validation computes the FN rate itself."""
        _, unvalidated = run(tmp_path, validate=False)
        assert unvalidated.report.false_negative_rate is None
        _, resumed = run(tmp_path, resume=True, validate=True)
        assert resumed.report.false_negative_rate is not None
        assert resumed.report.summary() == baseline_report.summary()

    def test_scan_metrics_survive_resume(self, tmp_path, baseline_report):
        run(tmp_path)
        _, resumed = run(tmp_path, resume=True)
        live = baseline_report.scan_metrics
        replay = resumed.report.scan_metrics
        assert replay.queries == live.queries
        assert replay.timeouts == live.timeouts
        assert replay.summary() == live.summary()

    def test_stage2_failure_on_resume_keeps_the_stage1_checkpoint(
        self, tmp_path, monkeypatch, baseline_report
    ):
        run(tmp_path)
        slots = group_slots(tmp_path)

        def explode(*args, **kwargs):
            raise RuntimeError("stage 2 exploded")

        monkeypatch.setattr(URHunter, "stage2_exclude", explode)
        with pytest.raises(StageFailed, match="stage 2 exploded"):
            run(tmp_path, resume=True)
        assert CheckpointStore(tmp_path).last_failure()["stage"] == STAGE2
        monkeypatch.undo()

        _, resumed = run(tmp_path, resume=True)
        assert resumed.report.summary() == baseline_report.summary()
        assert group_slots(tmp_path) == slots
        assert CheckpointStore(tmp_path).last_failure() is None


class TestResumeNotice:
    def test_stderr_counts_the_replayed_groups(self, tmp_path):
        """A resume says on stderr how many UR groups replayed from the
        checkpoint directory; stdout stays the uninterrupted run's."""
        checkpoint = ["--checkpoint-dir", str(tmp_path)]
        code, live, _ = in_process(*checkpoint, "run")
        assert code == EXIT_OK
        code, stdout, stderr = in_process(*checkpoint, "--resume", "run")
        assert code == EXIT_OK
        assert stdout == live
        groups = len(list((tmp_path / "groups").glob("group-*.json")))
        assert (
            f"# resumed from checkpoint: {groups} UR groups replayed"
            in stderr.splitlines()
        )


class TestResumedTrace:
    """A resume is the uninterrupted run, event for event: stage 1 runs
    its span again (its UR groups replaying their buffered events), and
    no checkpoint event stands in for it."""

    def test_resuming_a_completed_directory_writes_the_uninterrupted_trace(
        self, tmp_path
    ):
        live = URHunter.from_world(make_world())
        live.attach_trace(RunTrace())
        run(tmp_path, hunter=live)
        resumed = URHunter.from_world(make_world())
        resumed.attach_trace(RunTrace())
        run(tmp_path, resume=True, hunter=resumed)
        lines = resumed.trace.deterministic_lines()
        assert lines == live.trace.deterministic_lines()
        assert not [line for line in lines if "checkpoint." in line]


class TestResumedClock:
    """A resumed stage 1 ends where the live one did, so its §4.2
    sample starts where the uninterrupted run's did and reads the same
    fault windows."""

    #: a loss storm over every target nameserver from 2.6 s to 3.6 s into
    #: the run, after every UR group has ended (small scale, seed 7): it
    #: stretches the last lookups of the correct collection to 2.89 s
    #: and the sample from 0.24 s to 0.70 s — 3.59 s in all, not 2.93
    STORM = ScenarioScript(
        name="sample-storm",
        seed=13,
        windows=(
            FaultWindow(kind="tail-latency-storm", start=2.6, duration=1.0),
        ),
    )

    def _runner(self, path, resume=False):
        world = make_world()
        hunter = URHunter.from_world(world)
        apply_scenario(self.STORM, world, hunter)
        hunter.attach_trace(RunTrace())
        return PipelineRunner(
            hunter, store=CheckpointStore(path), resume=resume
        )

    @staticmethod
    def _after_stage1(runner):
        """The deterministic events of stages 2 and 3, unnumbered."""
        return [
            {key: value for key, value in event.items() if key != "seq"}
            for event in runner.hunter.trace.events()
            if event.get("stage") in (OBS_STAGE2, OBS_STAGE3)
        ]

    def test_resumed_run_reads_the_uninterrupted_clock(self, tmp_path):
        live = self._runner(tmp_path)
        origin = live.hunter.network.now
        report = live.run().report
        elapsed = live.hunter.network.now - origin

        resumed = self._runner(tmp_path, resume=True)
        origin = resumed.hunter.network.now
        replay = resumed.run()
        assert round(elapsed, 6) == 3.59263
        assert resumed.hunter.network.now - origin == elapsed
        assert replay.report.summary() == report.summary()
        assert self._after_stage1(resumed) == self._after_stage1(live)


class TestStrayStageFiles:
    """A directory an older build wrote holds stage snapshots; a resume
    never opens them, whatever they hold."""

    @pytest.fixture(scope="class")
    def completed(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("completed")
        code, stdout, _ = in_process(
            "--checkpoint-dir", str(directory), "run"
        )
        assert code == EXIT_OK
        return directory, stdout

    @pytest.mark.parametrize(
        "files",
        [
            {STAGE2: "{not json", STAGE3: "\x00garbage"},
            {STAGE2: "null"},
            {STAGE3: "null"},
            {STAGE3: "{}"},
            {STAGE1: "null"},
            {STAGE1: "[]"},
            {STAGE1: '{"undelegated": []}'},
        ],
        ids=[
            "garbage-in-both",
            "stage2-null",
            "stage3-null",
            "stage3-empty",
            "stage1-null",
            "stage1-list",
            "stage1-partial",
        ],
    )
    def test_stray_stage2_and_stage3_files_are_never_read(
        self, completed, tmp_path, files
    ):
        source, baseline = completed
        directory = tmp_path / "ckpt"
        shutil.copytree(source, directory)
        for stage, body in files.items():
            (directory / f"{stage}.json").write_text(body)
        code, stdout, stderr = in_process(
            "--checkpoint-dir", str(directory), "--resume", "run"
        )
        assert code == EXIT_OK, stderr
        assert stdout == baseline
        for stage, body in files.items():
            assert (directory / f"{stage}.json").read_text() == body


class TestPrunedEvent:
    """A resume has no superseded files to garbage-collect, and says
    nothing about it."""

    def test_clean_resume_emits_nothing(self, tmp_path):
        run(tmp_path)
        hunter = URHunter.from_world(make_world())
        trace = RunTrace()
        hunter.attach_trace(trace)
        run(tmp_path, resume=True, hunter=hunter)
        assert [
            event
            for event in trace.timing_events()
            if event["event"] == "checkpoint.pruned"
        ] == []

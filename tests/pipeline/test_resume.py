"""Resume semantics: one path — stage 1 re-runs over its stored UR
groups, and stages 2 and 3 always run live.

The acceptance bar: a run resumed from the groups of a killed stage 1,
of a run killed in a later stage, or of a completed directory produces
a byte-identical report and deterministic trace; every cacheable UR
group replays from its slot, and only the preamble and the uncacheable
groups send.  A checkpoint directory holds ``manifest.json`` and
``groups/``; a stage snapshot an older build left in it is never read.
"""

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
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
from repro.plan import CRASH_GROUP_ENV
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

REPO_ROOT = Path(__file__).resolve().parents[2]
SMALL = ["--scale", "small"]
CLI = [sys.executable, "-m", "repro", *SMALL]
#: loss on the scan plus every data-source fault knob
FAULTED = [
    "--loss-rate", "0.05",
    "--intel-fault-rate", "0.2",
    "--pdns-fault-rate", "0.2",
    "--ipinfo-fault-rate", "0.2",
]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("URHUNTER_CRASH_STAGE", None)
    env.pop(CRASH_GROUP_ENV, None)
    return env


def cli(*args, env=None):
    return subprocess.run(
        CLI + list(args),
        capture_output=True,
        env=env or cli_env(),
        cwd=REPO_ROOT,
        timeout=120,
    )


def traced(tmp_path, directory, *args, env=None):
    """``repro --scale small ARGS run`` checkpointing into
    ``tmp_path/directory`` and tracing to ``tmp_path/directory.jsonl``."""
    return cli(
        *args,
        "--checkpoint-dir",
        str(tmp_path / directory),
        "--trace-out",
        str(tmp_path / f"{directory}.jsonl"),
        "run",
        env=env,
    )


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


def deterministic_trace(path: Path):
    """The byte-compared section of a ``--trace-out`` file."""
    return [
        line
        for line in path.read_text().splitlines()
        if '"section":"timing"' not in line
    ]


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


class TestKillAndResumeSubprocess:
    """The CI smoke test, in miniature: SIGTERM at a stage's start,
    resume, compare stdout byte-for-byte against an uninterrupted run."""

    @staticmethod
    def _kill_and_resume(tmp_path, stage, *flags):
        """Kill at ``stage``'s start, resume, and compare stdout and the
        deterministic trace with an uninterrupted checkpointed run's."""

        baseline = traced(tmp_path, "base", *flags)
        assert baseline.returncode == 0, baseline.stderr.decode()
        ckpt = tmp_path / "ckpt"
        crashed = traced(
            tmp_path,
            "ckpt",
            *flags,
            env={**cli_env(), "URHUNTER_CRASH_STAGE": stage},
        )
        # killed by SIGTERM: raw -15 or shell-style 143
        assert crashed.returncode in (-signal.SIGTERM, 143)
        assert list((ckpt / "groups").glob("group-*.json"))
        resumed = traced(tmp_path, "ckpt", *flags, "--resume")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
        assert deterministic_trace(tmp_path / "ckpt.jsonl") == (
            deterministic_trace(tmp_path / "base.jsonl")
        )
        assert b"resumed from checkpoint" in resumed.stderr
        assert checkpoint_files(ckpt) == checkpoint_files(tmp_path / "base")
        return ckpt, baseline

    def test_sigterm_then_resume_byte_identical(self, tmp_path):
        self._kill_and_resume(tmp_path, STAGE2)

    def test_sigterm_in_stage3_then_resume_byte_identical(self, tmp_path):
        self._kill_and_resume(tmp_path, STAGE3)

    def test_faulted_resume_is_byte_identical(self, tmp_path):
        """Loss on the scan and faults on every data source: stage 2
        draws its source faults afresh on the resume and must draw the
        uninterrupted run's; a second resume of the now-complete
        directory reads the same."""
        ckpt, baseline = self._kill_and_resume(tmp_path, STAGE2, *FAULTED)
        again = cli(*FAULTED, "--checkpoint-dir", str(ckpt), "--resume", "run")
        assert again.returncode == 0, again.stderr.decode()
        assert again.stdout == baseline.stdout

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(
                ["--chaos-script", "tail-latency-storm"], id="chaos"
            ),
            pytest.param(
                ["--loss-rate", "0.05", "--hedge-delay", "0.5", "--aimd"],
                id="hedged-aimd",
            ),
            pytest.param(["--run-deadline", "0.36"], id="deadline"),
        ],
    )
    def test_shaped_run_resumes_byte_identical(self, tmp_path, flags):
        self._kill_and_resume(tmp_path, STAGE2, *flags)

    @staticmethod
    def _kill_after_group(tmp_path, group, *flags):
        """SIGTERM once UR group ``group`` is folded and stored; the
        resumed run replays the groups from ``<checkpoint-dir>/groups``
        and must print the uninterrupted run's stdout and deterministic
        trace.  Returns the resume's ``incremental.plan`` event."""

        def timing(directory):
            lines = (tmp_path / f"{directory}.jsonl").read_text().splitlines()
            return [line for line in lines if '"section":"timing"' in line]

        baseline = traced(tmp_path, "base", *flags)
        assert baseline.returncode == 0, baseline.stderr.decode()
        crashed = traced(
            tmp_path,
            "ckpt",
            *flags,
            env={**cli_env(), CRASH_GROUP_ENV: str(group)},
        )
        assert crashed.returncode in (-signal.SIGTERM, 143)
        assert list((tmp_path / "ckpt" / "groups").glob("group-*.json"))
        resumed = traced(tmp_path, "ckpt", *flags, "--resume")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
        deterministic = deterministic_trace(tmp_path / "ckpt.jsonl")
        assert deterministic == deterministic_trace(tmp_path / "base.jsonl")
        assert '"unaccounted":0' in deterministic[-1]
        assert checkpoint_files(tmp_path / "ckpt") == checkpoint_files(
            tmp_path / "base"
        )
        (planned,) = [
            json.loads(line)
            for line in timing("ckpt")
            if '"event":"incremental.plan"' in line
        ]
        return planned

    def test_sigterm_after_the_scan_then_resume_replays_its_groups(
        self, tmp_path
    ):
        """Killed after the last UR group, on a lossy run: every group
        but the recursive nameserver's replays."""
        last = len(URHunter.from_world(make_world()).plan.groups) - 1
        planned = self._kill_after_group(
            tmp_path, last, "--loss-rate", "0.05"
        )
        assert planned["hits"] == planned["groups"] - 1 > 0

    def test_faulted_sigterm_after_first_group_then_resume(self, tmp_path):
        """Killed after UR group 0 with every fault knob on: one group
        replays, and stages 2 and 3 draw the same source faults."""
        planned = self._kill_after_group(tmp_path, 0, *FAULTED)
        assert planned["hits"] == 1


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

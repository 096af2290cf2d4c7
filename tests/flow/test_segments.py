"""Resume granularity of a streaming-configured run: the stage-1
group, interchangeable with batch checkpoints.

A run configured for streaming writes the batch run's files — each
stage-1 group result as soon as it is folded — and no stream segment.
A crash mid-scan, and a finished run alike, resume by re-running stage
1 over the stored groups and re-running stages 2 and 3, whichever way
the resuming run is configured.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.core import URHunter
from repro.incremental.store import GROUP_PREFIX
from repro.obs import RunTrace
from repro.pipeline import (
    CheckpointStore,
    PipelineRunner,
    StageFailed,
)
from repro.plan import CRASH_GROUP_ENV

from ..conftest import (
    assert_only_uncacheable_groups_sent,
    record_executed_groups,
)
from .conftest import make_world, stream_hunter

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI = [sys.executable, "-m", "repro", "--scale", "small"]
#: the group after which the crash tests kill the scan
CRASH_AFTER = 1


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("URHUNTER_CRASH_STAGE", None)
    env.pop(CRASH_GROUP_ENV, None)
    return env


def segment_files(directory: Path):
    """Stream segments, which no run writes any more."""
    return sorted(directory.glob("stream-seg*"))


def group_files(directory: Path):
    return sorted((directory / "groups").glob(f"{GROUP_PREFIX}*.json"))


class TestRunnerStreamValidation:
    def test_negative_checkpoint_every_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--checkpoint-every", "-1", "run"])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestSegmentLifecycle:
    def test_finished_stream_supersedes_segments(
        self, tmp_path, batch_summary
    ):
        result = PipelineRunner(
            stream_hunter(),
            store=CheckpointStore(tmp_path),
            checkpoint_every=5,
        ).run()
        assert result.report.summary() == batch_summary
        # the stored groups are the only resume medium
        assert segment_files(tmp_path) == []
        assert group_files(tmp_path)
        assert sorted(path.name for path in tmp_path.glob("*.json")) == [
            "manifest.json",
        ]

    def test_crash_after_segment_then_resume(
        self, tmp_path, monkeypatch, batch_summary
    ):
        import repro.plan.shards as shards

        def explode(index: int) -> None:
            if index == CRASH_AFTER:
                raise RuntimeError("injected mid-scan crash")

        monkeypatch.setattr(shards, "_maybe_crash_group", explode)
        with pytest.raises(StageFailed, match="stage1"):
            PipelineRunner(
                stream_hunter(),
                store=CheckpointStore(tmp_path),
                checkpoint_every=5,
            ).run()
        # groups 0 and 1 were stored before the crash
        assert len(group_files(tmp_path)) == CRASH_AFTER + 1
        assert (tmp_path / "failure.json").exists()

        monkeypatch.undo()
        hunter = stream_hunter()
        trace = RunTrace()
        hunter.attach_trace(trace)
        resumed = PipelineRunner(
            hunter,
            store=CheckpointStore(tmp_path),
            resume=True,
            checkpoint_every=5,
        ).run()
        (planned,) = [
            event
            for event in trace.timing_events()
            if event["event"] == "incremental.plan"
        ]
        assert planned["hits"] == CRASH_AFTER + 1
        assert resumed.report.summary() == batch_summary
        assert segment_files(tmp_path) == []
        assert not (tmp_path / "failure.json").exists()


class TestMixedModeResume:
    """The stored groups interchange between the two configurations:
    ``execution`` is not a field, so no fingerprint sees it."""

    def test_stream_resumes_batch_checkpoints(
        self, tmp_path, monkeypatch, batch_summary
    ):
        PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
        ).run()
        executed = record_executed_groups(monkeypatch)
        replayer = stream_hunter()
        replay = PipelineRunner(
            replayer, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert_only_uncacheable_groups_sent(replayer, executed)
        assert replay.report.summary() == batch_summary

    def test_batch_resumes_stream_checkpoints(
        self, tmp_path, monkeypatch, batch_summary
    ):
        PipelineRunner(
            stream_hunter(), store=CheckpointStore(tmp_path)
        ).run()
        executed = record_executed_groups(monkeypatch)
        replayer = URHunter.from_world(make_world())
        replay = PipelineRunner(
            replayer, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert_only_uncacheable_groups_sent(replayer, executed)
        assert replay.report.summary() == batch_summary


class TestMidStreamKillAndResumeSubprocess:
    """The CLI smoke test: SIGTERM right after a mid-scan group is
    stored, resume, compare stdout byte-for-byte against an
    uninterrupted run."""

    def test_sigterm_after_segment_then_resume(self, tmp_path):
        baseline = subprocess.run(
            CLI + ["run"],
            capture_output=True,
            env=cli_env(),
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert baseline.returncode == 0, baseline.stderr.decode()

        ckpt = tmp_path / "ckpt"
        crash_env = cli_env()
        crash_env[CRASH_GROUP_ENV] = str(CRASH_AFTER)
        crashed = subprocess.run(
            CLI + ["--checkpoint-dir", str(ckpt), "run"],
            capture_output=True,
            env=crash_env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        # killed by SIGTERM: raw -15 or shell-style 143
        assert crashed.returncode in (-signal.SIGTERM, 143)
        assert len(group_files(ckpt)) == CRASH_AFTER + 1

        resumed = subprocess.run(
            CLI + ["--checkpoint-dir", str(ckpt), "--resume", "run"],
            capture_output=True,
            env=cli_env(),
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
        assert segment_files(ckpt) == []

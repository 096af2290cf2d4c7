"""Resume semantics: checkpointed stages replay without re-scanning.

The acceptance bar (ISSUE, PR 2): a run killed after stage 1 and resumed
must produce a byte-identical report, with the resumed stages doing zero
live queries.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import URHunter
from repro.obs import RunTrace
from repro.obs.events import STAGE2 as OBS_STAGE2, STAGE3 as OBS_STAGE3
from repro.pipeline import (
    CheckpointStore,
    PipelineRunner,
    STAGE1,
    STAGE2,
    STAGE3,
    STAGE_ORDER,
)
from repro.plan import CRASH_GROUP_ENV
from repro.resilience.scenario import (
    FaultWindow,
    ScenarioScript,
    apply_scenario,
)

from .conftest import make_world

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI = [sys.executable, "-m", "repro", "--scale", "small"]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("URHUNTER_CRASH_STAGE", None)
    env.pop(CRASH_GROUP_ENV, None)
    return env


class TestInProcessResume:
    def test_stage_order_constants(self):
        assert STAGE_ORDER == (STAGE1, STAGE2, STAGE3)

    def test_runner_without_store_matches_plain_run(self, baseline_report):
        hunter = URHunter.from_world(make_world())
        result = PipelineRunner(hunter).run()
        assert result.executed == STAGE_ORDER
        assert result.resumed == ()
        assert result.report.summary() == baseline_report.summary()

    def test_resume_requires_store(self):
        hunter = URHunter.from_world(make_world())
        with pytest.raises(ValueError, match="checkpoint store"):
            PipelineRunner(hunter, resume=True)

    def test_unknown_stop_after_rejected(self):
        hunter = URHunter.from_world(make_world())
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineRunner(hunter).run(stop_after="stage9-profit")

    def test_stop_resume_is_byte_identical_with_zero_queries(
        self, tmp_path, baseline_report
    ):
        first = URHunter.from_world(make_world())
        halted = PipelineRunner(
            first, store=CheckpointStore(tmp_path)
        ).run(stop_after=STAGE1)
        assert halted.report is None
        assert halted.executed == (STAGE1,)

        second = URHunter.from_world(make_world())
        resumed = PipelineRunner(
            second, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert resumed.resumed == (STAGE1,)
        assert resumed.executed == (STAGE2, STAGE3)
        # the resumed stage did not re-send a single query
        assert second.engine.metrics.queries == 0
        assert resumed.report.summary() == baseline_report.summary()

    def test_full_resume_replays_all_stages(
        self, tmp_path, baseline_report
    ):
        store = CheckpointStore(tmp_path)
        PipelineRunner(
            URHunter.from_world(make_world()), store=store
        ).run()
        replayer = URHunter.from_world(make_world())
        replay = PipelineRunner(
            replayer, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert replay.resumed == STAGE_ORDER
        assert replay.executed == ()
        assert replayer.engine.metrics.queries == 0
        assert replay.report.summary() == baseline_report.summary()

    def test_unvalidated_checkpoint_cannot_satisfy_validating_resume(
        self, tmp_path
    ):
        PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
        ).run(validate=False)
        resume = PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
            resume=True,
        ).run(validate=True)
        # stage 2 re-ran to compute the FN rate the checkpoint lacked
        assert STAGE2 in resume.executed
        assert resume.report.false_negative_rate is not None

    def test_scan_metrics_survive_resume(self, tmp_path, baseline_report):
        store = CheckpointStore(tmp_path)
        PipelineRunner(
            URHunter.from_world(make_world()), store=store
        ).run(stop_after=STAGE1)
        resumed = PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
            resume=True,
        ).run()
        live = baseline_report.scan_metrics
        replay = resumed.report.scan_metrics
        assert replay.queries == live.queries
        assert replay.timeouts == live.timeouts
        assert replay.summary() == live.summary()


class TestResumedClock:
    """A run resumed after stage 1 pins the clock where the live stage 1
    ended, so its §4.2 sample starts where the uninterrupted run's did
    and reads the same fault windows."""

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
        live = self._runner(tmp_path / "live")
        origin = live.hunter.network.now
        report = live.run().report
        elapsed = live.hunter.network.now - origin

        self._runner(tmp_path / "halted").run(stop_after=STAGE1)
        resumed = self._runner(tmp_path / "halted", resume=True)
        origin = resumed.hunter.network.now
        replay = resumed.run()
        assert replay.resumed == (STAGE1,)
        assert round(elapsed, 6) == 3.59263
        assert resumed.hunter.network.now - origin == elapsed
        assert replay.report.summary() == report.summary()
        assert self._after_stage1(resumed) == self._after_stage1(live)


class TestKillAndResumeSubprocess:
    """The CI smoke test, in miniature: SIGTERM mid-stage-2, resume,
    compare stdout byte-for-byte against an uninterrupted run."""

    def test_sigterm_then_resume_byte_identical(self, tmp_path):
        baseline = subprocess.run(
            CLI + ["--checkpoint-dir", str(tmp_path / "base"), "run"],
            capture_output=True,
            env=cli_env(),
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert baseline.returncode == 0, baseline.stderr.decode()

        crash_env = cli_env()
        crash_env["URHUNTER_CRASH_STAGE"] = STAGE2
        crashed = subprocess.run(
            CLI + ["--checkpoint-dir", str(tmp_path / "ckpt"), "run"],
            capture_output=True,
            env=crash_env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        # killed by SIGTERM: raw -15 or shell-style 143
        assert crashed.returncode in (-signal.SIGTERM, 143)
        assert (tmp_path / "ckpt" / f"{STAGE1}.json").exists()
        assert not (tmp_path / "ckpt" / f"{STAGE2}.json").exists()

        resumed = subprocess.run(
            CLI
            + [
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--resume",
                "run",
            ],
            capture_output=True,
            env=cli_env(),
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
        assert b"resumed from checkpoint" in resumed.stderr

    def test_sigterm_after_the_scan_then_resume_replays_its_groups(
        self, tmp_path
    ):
        """SIGTERM once the last UR group is folded and stored, with no
        stage-1 checkpoint yet, on a lossy run: the resumed run replays
        the groups from ``<checkpoint-dir>/groups``."""
        last = len(URHunter.from_world(make_world()).plan.groups) - 1

        def cli(directory, *flags, env=None):
            return subprocess.run(
                CLI
                + ["--loss-rate", "0.05"]
                + ["--checkpoint-dir", str(tmp_path / directory)]
                + ["--trace-out", str(tmp_path / f"{directory}.jsonl")]
                + [*flags, "run"],
                capture_output=True,
                env=env or cli_env(),
                cwd=REPO_ROOT,
                timeout=120,
            )

        def trace(directory, section):
            lines = (tmp_path / f"{directory}.jsonl").read_text().splitlines()
            return [
                line
                for line in lines
                if ('"section":"timing"' in line) == (section == "timing")
            ]

        baseline = cli("base")
        assert baseline.returncode == 0, baseline.stderr.decode()
        crashed = cli("ckpt", env={**cli_env(), CRASH_GROUP_ENV: str(last)})
        assert crashed.returncode in (-signal.SIGTERM, 143)
        assert list((tmp_path / "ckpt" / "groups").glob("group-*.json"))
        assert not (tmp_path / "ckpt" / f"{STAGE1}.json").exists()
        resumed = cli("ckpt", "--resume")
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
        deterministic = trace("ckpt", "deterministic")
        assert deterministic == trace("base", "deterministic")
        assert '"unaccounted":0' in deterministic[-1]
        (planned,) = [
            json.loads(line)
            for line in trace("ckpt", "timing")
            if '"event":"incremental.plan"' in line
        ]
        assert planned["hits"] == planned["groups"] - 1 > 0


class TestPrunedEvent:
    """A resume has no superseded files to garbage-collect, and says
    nothing about it."""

    def test_clean_resume_emits_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        PipelineRunner(
            URHunter.from_world(make_world()), store=store
        ).run(stop_after=STAGE1)
        hunter = URHunter.from_world(make_world())
        trace = RunTrace()
        hunter.attach_trace(trace)
        PipelineRunner(
            hunter, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert [
            event
            for event in trace.timing_events()
            if event["event"] == "checkpoint.pruned"
        ] == []

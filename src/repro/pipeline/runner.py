"""The resilient pipeline runner: staged, resumable from stage 1.

:class:`PipelineRunner` executes :class:`~repro.core.hunter.URHunter` as
three named stages —

* ``stage1-collect`` — all three response collections,
* ``stage2-exclude`` — uniformity checking + suspicion filtering,
* ``stage3-analyze`` — malicious-behaviour analysis.

Only stage 1, the rate-limited scan, is checkpointed (when a
:class:`~repro.pipeline.checkpoint.CheckpointStore` is attached): every
UR group is stored under ``groups/`` as it folds, and the finished stage
as ``stage1-collect.json``.  A resumed run decodes that file without
re-querying anything (the scan engine's live metrics stay at zero, and
the virtual clock is pinned to where the live stage 1 ended), or, when
stage 1 was killed, re-runs it replaying every UR group the killed run
had finished.  Stages 2 and 3 are offline joins over stage 1's result:
they always run live, on a resume as on a fresh run — recomputing them
is cheaper than writing and reading back their snapshots.

Failure semantics follow the shared taxonomy in
:mod:`repro.pipeline.errors`: a source-level outage inside a stage is
absorbed by the stage itself (degraded run, see
:class:`~repro.core.report.DegradedSources`); an exception escaping a
stage is recorded in the checkpoint directory (``failure.json``) and
re-raised as :class:`~repro.pipeline.errors.StageFailed`, leaving the
stage-1 checkpoint behind for a later ``--resume``.  A checkpoint that
does not decode is a :class:`~repro.pipeline.errors.CheckpointError`
naming its file.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.hunter import Stage1Result, URHunter
from ..core.report import MeasurementReport
from ..incremental import GroupResultStore
from ..obs.events import run_end_fields
from .checkpoint import (
    CheckpointStore,
    config_fingerprint,
    decode_stage1,
    encode_stage1,
)
from .errors import CheckpointError, StageFailed

STAGE1 = "stage1-collect"
STAGE2 = "stage2-exclude"
STAGE3 = "stage3-analyze"

#: set this to a stage name to make the runner kill its own process at
#: that stage's start — the kill-and-resume smoke test's crash hook
CRASH_ENV = "URHUNTER_CRASH_STAGE"


@dataclass
class PipelineResult:
    """What one runner invocation did and produced."""

    report: MeasurementReport
    #: stages decoded from checkpoints (no live work)
    resumed: Tuple[str, ...] = ()
    #: stages executed live this invocation
    executed: Tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """``clean`` or ``degraded`` (aborted runs raise instead)."""
        return "degraded" if self.report.is_degraded else "clean"


class PipelineRunner:
    """Drives a hunter stage by stage with optional checkpointing.

    Without a store the runner degrades to a plain staged execution —
    same behaviour as :meth:`URHunter.run`, same report.
    """

    def __init__(
        self,
        hunter: URHunter,
        store: Optional[CheckpointStore] = None,
        resume: bool = False,
        scenario_fingerprint: Optional[str] = None,
        # benchmarks/e2e reads this; ROADMAP item 1 deletes it
        checkpoint_every: int = 0,
    ):
        if resume and store is None:
            raise ValueError("resume requires a checkpoint store")
        self.hunter = hunter
        self.store = store
        self.resume = resume
        self.scenario_fingerprint = scenario_fingerprint

    # -- helpers -----------------------------------------------------------

    def _fingerprint(self) -> str:
        extra: Dict[str, Any] = {
            # the scan-plan hash pins the planned query matrix: a
            # checkpoint may only be resumed against the same plan
            "plan": self.hunter.plan.plan_hash,
        }
        if self.scenario_fingerprint is not None:
            extra["scenario"] = self.scenario_fingerprint
        return config_fingerprint(self.hunter.config, extra=extra)

    def _emit(self, name: str, stage: Optional[str] = None, **fields) -> None:
        """Emit on the hunter's event bus, if one is attached.

        The runner owns the run-level events (``run.start``/``run.end``/
        ``run.abort``) plus stage 1's resume provenance
        (``checkpoint.load``/``stage.resumed``) and artifact seal
        (``checkpoint.save``); the hunter owns the stage spans.
        """
        trace = self.hunter.trace
        if trace is not None:
            trace.emit(name, stage=stage, **fields)

    @staticmethod
    def _maybe_crash(stage: str) -> None:
        """Crash hook for kill-and-resume testing (see :data:`CRASH_ENV`)."""
        if os.environ.get(CRASH_ENV) == stage:
            os.kill(os.getpid(), signal.SIGTERM)

    def _run_live(self, stage: str, fn, *args):
        """Execute one stage live, recording failure provenance."""
        self._maybe_crash(stage)
        try:
            return fn(*args)
        except StageFailed as error:
            # a collection failure names its own, finer stage
            if self.store is not None:
                self.store.record_failure(error.stage, error)
            self._emit(
                "run.abort", stage=error.stage, error=type(error).__name__
            )
            raise
        except Exception as error:
            if self.store is not None:
                self.store.record_failure(stage, error)
            self._emit("run.abort", stage=stage, error=type(error).__name__)
            raise StageFailed(stage, error) from error

    # -- the run -----------------------------------------------------------

    def run(self, validate: bool = True) -> PipelineResult:
        """Execute (or resume) the pipeline."""
        # Anchor any deadline budget at the runner's start so "run
        # deadline" measures the whole pipeline, not just the first
        # engine call (the engine's own begin() is idempotent).
        budget = self.hunter.engine.budget
        if budget is not None:
            budget.begin(self.hunter.network.now)
        if self.store is not None:
            self.store.prepare(self._fingerprint(), resume=self.resume)
            if self.hunter.result_store is None:
                # stage 1's resume medium: every UR group is durable the
                # moment it folds, and a resumed scan replays the ones a
                # killed run completed (a store the caller attached
                # serves the same way, and is never wiped)
                self.hunter.result_store = GroupResultStore(
                    self.store.groups_path
                )
        self._emit("run.start", fingerprint=self._fingerprint())
        resumed: Tuple[str, ...] = ()
        if self.resume and self.store.has(STAGE1):
            stage1 = self._load_stage1()
            resumed = (STAGE1,)
        else:
            stage1 = self._run_live(STAGE1, self.hunter.stage1_collect)
            if self.store is not None:
                self.store.save(STAGE1, encode_stage1(stage1))
                self._emit("checkpoint.save", stage=STAGE1)
        executed = (STAGE1, STAGE2, STAGE3)[len(resumed):]
        # stages 2 and 3 are offline joins over what stage 1 collected:
        # they always run live, and are never snapshotted
        stage2 = self._run_live(
            STAGE2, self.hunter.stage2_exclude, stage1, validate
        )
        stage3 = self._run_live(STAGE3, self.hunter.stage3_analyze, stage2)
        report = self.hunter.build_report(stage1, stage2, stage3)
        if self.store is not None:
            self.store.clear_failure()
        self._emit(
            "run.end",
            resumed=list(resumed),
            executed=list(executed),
            **run_end_fields(report),
        )
        return PipelineResult(
            report=report, resumed=resumed, executed=executed
        )

    def _load_stage1(self) -> Stage1Result:
        """Stage 1 from its snapshot, with the hunter and the clock set
        as the live stage 1 left them.  A payload of the wrong shape is
        refused like an unreadable file, as a :class:`CheckpointError`
        naming it."""
        self._emit("checkpoint.load", stage=STAGE1)
        payload = self.store.load(STAGE1)
        try:
            stage1 = decode_stage1(payload, self.hunter.ipinfo)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"malformed checkpoint file {self.store.stage_file(STAGE1)}: "
                f"{type(error).__name__}: {error}"
            ) from error
        # stage 2 reads the profiles through the hunter, and its §4.2
        # sample starts where the live stage 1 ended
        self.hunter.correct_db = stage1.collection.correct_db
        self.hunter.network.set_clock(stage1.end)
        self._emit(
            "stage.resumed",
            stage=STAGE1,
            records=len(stage1.collection.undelegated),
        )
        return stage1

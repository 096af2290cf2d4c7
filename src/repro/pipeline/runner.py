"""The resilient pipeline runner: staged, checkpointed, resumable.

:class:`PipelineRunner` executes :class:`~repro.core.hunter.URHunter` as
three named stages —

* ``stage1-collect`` — all three response collections,
* ``stage2-exclude`` — uniformity checking + suspicion filtering,
* ``stage3-analyze`` — malicious-behaviour analysis,

— writing a JSON checkpoint after each one (when a
:class:`~repro.pipeline.checkpoint.CheckpointStore` is attached).  A run
killed mid-stage resumes from the last *completed* stage: completed
stages are decoded from their checkpoints without re-querying anything
(the scan engine's live metrics stay at zero, and the virtual clock is
pinned to where the live stage 1 ended), and the first missing
stage onward runs live — stage 1 replaying, from the group result
store under the checkpoint directory, every UR group the killed run
had finished.  Once any stage runs live, downstream
checkpoints from the earlier run are invalidated — they were derived
from state that no longer exists.

Failure semantics follow the shared taxonomy in
:mod:`repro.pipeline.errors`: a source-level outage inside a stage is
absorbed by the stage itself (degraded run, see
:class:`~repro.core.report.DegradedSources`); an exception escaping a
stage is recorded in the checkpoint directory (``failure.json``) and
re-raised as :class:`~repro.pipeline.errors.StageFailed`, leaving every
completed checkpoint behind for a later ``--resume``.  A checkpoint
that does not decode is a :class:`~repro.pipeline.errors.CheckpointError`
naming its file.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.hunter import Stage1Result, Stage2Result, Stage3Result, URHunter
from ..core.report import MeasurementReport
from ..incremental import GroupResultStore
from ..obs.events import run_end_fields
from .checkpoint import (
    CheckpointStore,
    config_fingerprint,
    decode_stage1,
    decode_stage2,
    decode_stage3,
    encode_stage1,
    encode_stage2,
    encode_stage3,
)
from .errors import CheckpointError, StageFailed

STAGE1 = "stage1-collect"
STAGE2 = "stage2-exclude"
STAGE3 = "stage3-analyze"
STAGE_ORDER: Tuple[str, ...] = (STAGE1, STAGE2, STAGE3)

#: set this to a stage name to make the runner kill its own process at
#: that stage's start — the kill-and-resume smoke test's crash hook
CRASH_ENV = "URHUNTER_CRASH_STAGE"


@dataclass
class PipelineResult:
    """What one runner invocation did and produced."""

    report: Optional[MeasurementReport]
    #: stages decoded from checkpoints (no live work)
    resumed: Tuple[str, ...] = ()
    #: stages executed live this invocation
    executed: Tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """``clean`` or ``degraded`` (aborted runs raise instead)."""
        if self.report is not None and self.report.is_degraded:
            return "degraded"
        return "clean"


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
        ``run.stopped``/``run.abort``) plus resume provenance
        (``checkpoint.load``/``stage.resumed``) and artifact seals
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

    def _downstream(self, stage: str) -> Tuple[str, ...]:
        index = STAGE_ORDER.index(stage)
        return STAGE_ORDER[index:]

    def _decode(self, stage: str, decode, payload: Dict[str, Any], *args):
        """Decode one stage checkpoint; a payload of the wrong shape is
        refused like an unreadable file, as a :class:`CheckpointError`
        naming it."""
        try:
            return decode(payload, *args)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"malformed checkpoint file {self.store.stage_file(stage)}: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _run_live(self, stage: str, fn, *args):
        """Execute one stage live, recording failure provenance."""
        self._maybe_crash(stage)
        if self.store is not None:
            # a live re-run invalidates this stage's old snapshot and
            # everything derived from it
            self.store.invalidate_from(list(self._downstream(stage)))
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

    def run(
        self, validate: bool = True, stop_after: Optional[str] = None
    ) -> PipelineResult:
        """Execute (or resume) the pipeline.

        ``stop_after`` names a stage to halt after — checkpoints up to
        and including it are written, the report is not built (the
        returned result carries ``report=None``).  Used by tests and by
        operators splitting a long scan across maintenance windows.
        """
        if stop_after is not None and stop_after not in STAGE_ORDER:
            raise ValueError(
                f"unknown stage {stop_after!r} "
                f"(known: {', '.join(STAGE_ORDER)})"
            )
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
        return self._run_staged(validate, stop_after)

    def _run_staged(
        self, validate: bool, stop_after: Optional[str]
    ) -> PipelineResult:
        """Three stages, a checkpoint after each."""
        resumed: list = []
        executed: list = []
        # Once any stage runs live, later checkpoints no longer describe
        # this run's state and must not be loaded.
        trust_checkpoints = self.resume and self.store is not None

        # -- stage 1: collection ------------------------------------------
        stage1: Optional[Stage1Result] = None
        if trust_checkpoints and self.store.has(STAGE1):
            self._emit("checkpoint.load", stage=STAGE1)
            stage1 = self._decode(
                STAGE1,
                decode_stage1,
                self.store.load(STAGE1),
                self.hunter.ipinfo,
            )
            # stage 2 reads the profiles through the hunter, and its
            # §4.2 sample starts where the live stage 1 ended
            self.hunter.correct_db = stage1.collection.correct_db
            self.hunter.network.set_clock(stage1.end)
            resumed.append(STAGE1)
            self._emit(
                "stage.resumed",
                stage=STAGE1,
                records=len(stage1.collection.undelegated),
            )
        else:
            trust_checkpoints = False
            stage1 = self._run_live(STAGE1, self.hunter.stage1_collect)
            executed.append(STAGE1)
            if self.store is not None:
                self.store.save(STAGE1, encode_stage1(stage1))
                self._emit("checkpoint.save", stage=STAGE1)
        if stop_after == STAGE1:
            self._emit("run.stopped", after=STAGE1)
            return PipelineResult(
                report=None,
                resumed=tuple(resumed),
                executed=tuple(executed),
            )

        # -- stage 2: exclusion -------------------------------------------
        stage2: Optional[Stage2Result] = None
        if trust_checkpoints and self.store.has(STAGE2):
            payload = self.store.load(STAGE2)
            # a checkpoint written without validation cannot satisfy a
            # validating resume — fall through to a live re-run
            if payload.get("validated", False) or not validate:
                self._emit(
                    "checkpoint.load",
                    stage=STAGE2,
                    validated=bool(payload.get("validated", False)),
                )
                stage2 = self._decode(STAGE2, decode_stage2, payload)
                resumed.append(STAGE2)
                self._emit(
                    "stage.resumed",
                    stage=STAGE2,
                    records=len(stage2.outcome.classified),
                )
        if stage2 is None:
            trust_checkpoints = False
            stage2 = self._run_live(
                STAGE2, self.hunter.stage2_exclude, stage1, validate
            )
            executed.append(STAGE2)
            if self.store is not None:
                self.store.save(
                    STAGE2, encode_stage2(stage2, validated=validate)
                )
                self._emit(
                    "checkpoint.save", stage=STAGE2, validated=validate
                )
        if stop_after == STAGE2:
            self._emit("run.stopped", after=STAGE2)
            return PipelineResult(
                report=None,
                resumed=tuple(resumed),
                executed=tuple(executed),
            )

        # -- stage 3: analysis --------------------------------------------
        stage3: Optional[Stage3Result] = None
        if trust_checkpoints and self.store.has(STAGE3):
            self._emit("checkpoint.load", stage=STAGE3)
            stage3 = self._decode(
                STAGE3, decode_stage3, self.store.load(STAGE3)
            )
            resumed.append(STAGE3)
            self._emit(
                "stage.resumed",
                stage=STAGE3,
                refined=len(stage3.analysis.classified),
            )
        else:
            stage3 = self._run_live(
                STAGE3, self.hunter.stage3_analyze, stage2
            )
            executed.append(STAGE3)
            if self.store is not None:
                self.store.save(STAGE3, encode_stage3(stage3))
                self._emit("checkpoint.save", stage=STAGE3)

        # -- report (cheap, deterministic; never checkpointed) -------------
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
            report=report,
            resumed=tuple(resumed),
            executed=tuple(executed),
        )

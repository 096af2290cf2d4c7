"""The resilient pipeline runner: staged, resumable inside stage 1.

:class:`PipelineRunner` executes :class:`~repro.core.hunter.URHunter` as
three named stages —

* ``stage1-collect`` — all three response collections,
* ``stage2-exclude`` — uniformity checking + suspicion filtering,
* ``stage3-analyze`` — malicious-behaviour analysis.

Only stage 1, the rate-limited scan, is checkpointed (when a
:class:`~repro.pipeline.checkpoint.CheckpointStore` is attached): every
UR group is stored under ``groups/`` as it folds.  Every run — fresh or
resumed — executes stage 1 through :meth:`URHunter.stage1_collect`; on
a resume, each UR group a slot holds replays from it instead of
re-querying its server, and the preamble (the protective and correct
collections) runs live.  There is one resume path, whether the
checkpointing run was killed mid-scan, in a later stage, or completed.
Stages 2 and 3 are offline joins over stage 1's result: they always
run live — recomputing them is cheaper than writing and reading back
their snapshots.

Failure semantics follow the shared taxonomy in
:mod:`repro.pipeline.errors`: a source-level outage inside a stage is
absorbed by the stage itself (degraded run, see
:class:`~repro.core.report.DegradedSources`); an exception escaping a
stage is recorded in the checkpoint directory (``failure.json``) and
re-raised as :class:`~repro.pipeline.errors.StageFailed`, leaving the
group slots behind for a later ``--resume``.  A manifest that does not
decode is a :class:`~repro.pipeline.errors.CheckpointError` naming its
file.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.hunter import URHunter
from ..core.report import MeasurementReport
from ..incremental import GroupResultStore
from ..obs.events import run_end_fields
from .checkpoint import CheckpointStore, config_fingerprint
from .errors import StageFailed

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
        # benchmarks/e2e reads this; ROADMAP item 2 deletes it
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
        ``run.abort``); the hunter owns the stage spans.
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
                # moment it folds, and a resumed scan replays every group
                # an earlier run stored (a store the caller attached
                # serves the same way, and is never wiped)
                self.hunter.result_store = GroupResultStore(
                    self.store.groups_path
                )
        self._emit("run.start", fingerprint=self._fingerprint())
        stage1 = self._run_live(STAGE1, self.hunter.stage1_collect)
        # stages 2 and 3 are offline joins over what stage 1 collected:
        # they always run live, and are never snapshotted
        stage2 = self._run_live(
            STAGE2, self.hunter.stage2_exclude, stage1, validate
        )
        stage3 = self._run_live(STAGE3, self.hunter.stage3_analyze, stage2)
        report = self.hunter.build_report(stage1, stage2, stage3)
        if self.store is not None:
            self.store.clear_failure()
        self._emit("run.end", **run_end_fields(report))
        return PipelineResult(report=report)

"""The pipeline failure taxonomy.

A production measurement run can die in exactly three ways, and the
taxonomy keeps them distinguishable all the way to the exit code:

* **source failures** (:class:`SourceError` and subclasses) — a single
  data dependency (a threat-intel vendor, the passive-DNS API, the IP
  metadata service) timed out or rate-limited one call.  These are
  *retryable* and, past the retry budget, *degradable*: the pipeline
  keeps going on the surviving quorum and reports what it skipped.
* **stage failures** (:class:`StageFailed`) — a whole pipeline stage
  could not complete (the scan engine crashed, a checkpoint could not be
  written).  These abort the run; whatever checkpoints exist allow a
  later ``--resume``.
* **checkpoint failures** (:class:`CheckpointError`) — the on-disk state
  a resume was asked to continue from is missing, unreadable, or was
  produced under a different configuration.

Only :class:`SourceError` is ever raised by the fault-injection
decorators in :mod:`repro.pipeline.faults`; everything that *handles*
faults (:class:`repro.pipeline.resilience.SourceGuard`) catches exactly
that type, so a genuine programming error still surfaces as a crash.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base of everything the resilient pipeline can raise."""


class CheckpointError(PipelineError):
    """A checkpoint is missing, malformed, or configuration-mismatched."""


class StageFailed(PipelineError):
    """A pipeline stage could not complete.

    ``stage`` names the step (``stage1-collect`` etc.); the original
    exception rides along as ``cause`` (and ``__cause__``).
    """

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class SourceError(PipelineError):
    """One call to an external data source failed (transiently)."""

    #: what happened to the call, as the message words it
    outcome = "unavailable"

    def __init__(self, source: str):
        super().__init__(f"source {source!r} {self.outcome}")
        self.source = source


class SourceTimeout(SourceError):
    """The source did not answer within its deadline."""

    outcome = "timed out"


class SourceRateLimited(SourceError):
    """The source refused the call with a rate-limit response."""

    outcome = "rate-limited"

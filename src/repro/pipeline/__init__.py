"""The resilient pipeline: checkpointed stages over degradable sources.

Layered on top of :class:`repro.core.hunter.URHunter`:

* :mod:`~repro.pipeline.errors` — the shared failure taxonomy;
* :mod:`~repro.pipeline.resilience` — :class:`SourceGuard` (retry +
  circuit breaker + rate-limit cool-down) and :class:`SourceHealth`;
* :mod:`~repro.pipeline.faults` — seeded fault injection for vendors,
  passive DNS, and IP metadata;
* :mod:`~repro.pipeline.checkpoint` — the checkpoint directory: a
  manifest over stage 1's UR group slots;
* :mod:`~repro.pipeline.runner` — :class:`PipelineRunner`, which
  executes the three stages as named steps, checkpoints stage 1 (the
  scan) group by group, and resumes any run by re-running stage 1
  over its stored groups, then stages 2 and 3 live.

The first three are import-light and loaded eagerly (they are used by
:mod:`repro.intel` and :mod:`repro.core`); the checkpoint store and the
runner are loaded lazily (the runner depends on :mod:`repro.core`) to
keep the package cycle-free.
"""

from __future__ import annotations

from .errors import (
    CheckpointError,
    PipelineError,
    SourceError,
    SourceRateLimited,
    SourceTimeout,
    StageFailed,
)
from .faults import FaultPlan, FlakyIPInfo, FlakyPassiveDNS, FlakyVendor
from .resilience import (
    SourceGuard,
    SourceHealth,
    merge_health,
)

_LAZY_RUNNER = {
    "PipelineRunner",
    "PipelineResult",
    "STAGE1",
    "STAGE2",
    "STAGE3",
}
_LAZY_CHECKPOINT = {"CheckpointStore", "config_fingerprint"}


def __getattr__(name: str):
    if name in _LAZY_RUNNER:
        from . import runner

        return getattr(runner, name)
    if name in _LAZY_CHECKPOINT:
        from . import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "FaultPlan",
    "FlakyIPInfo",
    "FlakyPassiveDNS",
    "FlakyVendor",
    "PipelineError",
    "PipelineResult",
    "PipelineRunner",
    "STAGE1",
    "STAGE2",
    "STAGE3",
    "SourceError",
    "SourceGuard",
    "SourceHealth",
    "SourceRateLimited",
    "SourceTimeout",
    "StageFailed",
    "config_fingerprint",
    "merge_health",
]

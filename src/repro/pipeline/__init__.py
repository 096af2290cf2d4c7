"""The resilient pipeline: checkpointed stages over degradable sources.

Layered on top of :class:`repro.core.hunter.URHunter`:

* :mod:`~repro.pipeline.errors` — the shared failure taxonomy;
* :mod:`~repro.pipeline.resilience` — :class:`SourceGuard` (retry +
  circuit breaker + rate-limit cool-down) and :class:`SourceHealth`;
* :mod:`~repro.pipeline.faults` — seeded fault injection for vendors,
  passive DNS, and IP metadata;
* :mod:`~repro.pipeline.checkpoint` — JSON stage checkpoints;
* :mod:`~repro.pipeline.runner` — :class:`PipelineRunner`, which
  executes the three stages as named, individually checkpointed steps
  and resumes a killed run from the last completed stage.

The first three are import-light and loaded eagerly (they are used by
:mod:`repro.intel` and :mod:`repro.core`); the checkpoint store and the
runner depend on :mod:`repro.core` and are loaded lazily to keep the
package cycle-free.
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
    "STAGE_ORDER",
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
    "STAGE_ORDER",
    "SourceError",
    "SourceGuard",
    "SourceHealth",
    "SourceRateLimited",
    "SourceTimeout",
    "StageFailed",
    "config_fingerprint",
    "merge_health",
]

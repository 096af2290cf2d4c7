"""Unified observability: run-event bus, stage spans, one metrics API.

The reproduction's conclusions rest on loss-free accounting (the paper
tracks ~17.8M queries across 8,941 nameservers); this package is the
single spine every telemetry surface reports through:

* :class:`RunTrace` — a run-scoped event bus.  Deterministic,
  timing-free events (stage spans, collection progress, checkpoint
  writes/loads, degraded-source transitions, circuit-breaker trips)
  buffer in memory and serialize to a JSONL sink (``--trace-out``).
  The deterministic section is **byte-identical** between a live run
  and a resumed or warm one; wall-clock readings ride in a separate,
  explicitly non-deterministic timing section.
* :class:`MetricsSnapshot` / :class:`MetricRegistry` — the one protocol
  all metric holders implement (engine ``ScanMetrics``, stage-2
  ``Stage2Metrics``, source-guard health) and the registry that
  renders and aggregates them uniformly.
* :class:`Reporter` — leveled operator messaging on stderr
  (``-q``/``-v``), keeping stdout machine-readable.
* :func:`summarize_trace` — the ``repro trace summarize`` renderer.

This package imports nothing from the rest of :mod:`repro`, so any
layer (engine, core, pipeline, CLI) may import it freely.
"""

from .events import (
    STAGE1,
    STAGE2,
    STAGE3,
    TRACE_FORMAT_VERSION,
    RunTrace,
    run_end_fields,
)
from .metrics import (
    METRICS_FORMAT_VERSION,
    MetricRegistry,
    MetricsSnapshot,
    build_metrics_document,
)
from .reporter import Reporter, Verbosity
from .summarize import summarize_trace

__all__ = [
    "METRICS_FORMAT_VERSION",
    "MetricRegistry",
    "MetricsSnapshot",
    "Reporter",
    "RunTrace",
    "STAGE1",
    "STAGE2",
    "STAGE3",
    "TRACE_FORMAT_VERSION",
    "Verbosity",
    "build_metrics_document",
    "run_end_fields",
    "summarize_trace",
]

"""One metrics API: the snapshot protocol, the registry, the document.

Before this module the reproduction had four disjoint telemetry
surfaces — engine :class:`~repro.engine.metrics.ScanMetrics`, stage-2
:class:`~repro.core.parallel.Stage2Metrics`, flow channel occupancy,
and the :class:`~repro.pipeline.resilience.SourceGuard` health ledgers
— each with its own rendering and aggregation conventions.  They now
all implement one :class:`MetricsSnapshot` protocol and report through
one :class:`MetricRegistry`.

:func:`build_metrics_document` assembles the consolidated
``--metrics-out metrics.json``.  Its schema is versioned
(:data:`METRICS_FORMAT_VERSION`) and split into two sections mirroring
the ``summary()`` / ``timing_summary()`` split the byte-identity tests
already enforce:

* ``deterministic`` — counters that are byte-identical across
  execution modes, worker counts, and channel depths (and therefore
  safe to diff in CI);
* ``timing`` — wall-clock figures, worker/scheduling context, and
  channel occupancy, all of which legitimately vary run to run.

This module imports nothing from the rest of :mod:`repro`; snapshot
holders and the report are duck-typed against the protocol.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Tuple, runtime_checkable

#: bumped whenever the metrics.json layout changes
#: (v2: ``shed`` counters in the scan-engine block and the optional
#: ``resilience`` deterministic section; v3: optional ``scan_path``
#: timing block — cache hit rates depend on the scan-cache test seam
#: and flow counts on who opened a tap, so they live outside the
#: byte-compared section; v4: optional
#: ``incremental`` timing block with the group-result-store counters —
#: hit/miss tallies depend on what an earlier run left in the store,
#: so they can never join the byte-compared section)
METRICS_FORMAT_VERSION = 4


@runtime_checkable
class MetricsSnapshot(Protocol):
    """What every metric holder exposes: a name, a dict, a merge.

    ``to_dict()`` returns only **deterministic** counters — anything
    wall-clock or scheduling-dependent belongs in a separate,
    holder-specific timing view (e.g. ``timing_dict()``), never here.
    ``merge()`` folds another snapshot of the same kind into this one
    (shard aggregation).  ``summary()`` renders the human-readable
    block the report embeds; the text is part of the byte-compared
    report surface and must stay deterministic too.
    """

    name: str

    def to_dict(self) -> Dict[str, Any]: ...

    def merge(self, other: Any) -> None: ...

    def summary(self, indent: str = "") -> str: ...


class MetricRegistry:
    """Aggregates heterogeneous snapshots behind the one protocol.

    Registration order is presentation order — the report registers the
    scan-engine block before the stage-2 block, reproducing the legacy
    layout byte for byte through :meth:`render_lines`.
    """

    def __init__(self) -> None:
        self._snapshots: List[MetricsSnapshot] = []

    def register(self, snapshot: MetricsSnapshot) -> MetricsSnapshot:
        for attribute in ("name", "to_dict", "merge", "summary"):
            if not hasattr(snapshot, attribute):
                raise TypeError(
                    f"{type(snapshot).__name__} does not implement "
                    f"MetricsSnapshot (missing {attribute!r})"
                )
        self._snapshots.append(snapshot)
        return snapshot

    def snapshots(self) -> Tuple[MetricsSnapshot, ...]:
        return tuple(self._snapshots)

    def get(self, name: str) -> Optional[MetricsSnapshot]:
        for snapshot in self._snapshots:
            if snapshot.name == name:
                return snapshot
        return None

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic counters of every registered snapshot."""
        return {
            snapshot.name: snapshot.to_dict()
            for snapshot in self._snapshots
        }

    def render_lines(self, indent: str = "  ") -> List[str]:
        """The single renderer replacing the bespoke ``summary()`` call
        sites: one heading plus one summary block per snapshot."""
        lines: List[str] = []
        for snapshot in self._snapshots:
            heading = getattr(
                snapshot, "heading", f"{snapshot.name} metrics:"
            )
            lines.append(heading)
            lines.append(snapshot.summary(indent=indent))
        return lines


def build_metrics_document(
    report: Any,
    *,
    fingerprint: Optional[str] = None,
    execution: Optional[str] = None,
    stage2_workers: Optional[int] = None,
    channel_depth: Optional[int] = None,
    shards: Optional[int] = None,
    shard_workers: Optional[int] = None,
    flow_metrics: Any = None,
    scan_path: Any = None,
    incremental: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the consolidated ``metrics.json`` document.

    ``report`` is duck-typed over
    :class:`~repro.core.report.MeasurementReport`.  The ``deterministic``
    section is byte-identical across execution modes and worker counts
    for the same scenario and fault schedule; everything that may vary
    (wall clock, worker context, channel occupancy — occupancy depends
    on channel depth and exists only in streaming runs) goes under
    ``timing``.
    """
    deterministic: Dict[str, Any] = {
        "report": {
            "classified": len(report.classified),
            "categories": report.category_counts(),
            "suspicious": len(report.suspicious),
            "queries_sent": report.queries_sent,
            "responses_seen": report.responses_seen,
            "timeouts": report.timeouts,
            "txt_without_ip": report.txt_without_ip,
            "false_negative_rate": report.false_negative_rate,
        }
    }
    if fingerprint is not None:
        deterministic["fingerprint"] = fingerprint
    scan = getattr(report, "scan_metrics", None)
    if scan is not None:
        deterministic["scan_engine"] = scan.to_dict()
    stage2 = getattr(report, "stage2_metrics", None)
    if stage2 is not None:
        deterministic["stage2_exclusion"] = stage2.to_dict()
    resilience = getattr(report, "resilience_metrics", None)
    if resilience is not None:
        # hedge/shed/AIMD decisions are virtual-clock deterministic, so
        # the whole block belongs to the byte-compared section
        deterministic["resilience"] = resilience.to_dict()
    degraded = getattr(report, "degraded", None)
    if degraded is not None:
        deterministic["sources"] = {
            "sources": {
                source: ledger.to_dict()
                for source, ledger in sorted(degraded.sources.items())
            },
            "skipped_conditions": dict(
                sorted(degraded.skipped_conditions.items())
            ),
            "unverifiable_urs": degraded.unverifiable_urs,
            "partial_ip_verdicts": degraded.partial_ip_verdicts,
            "notes": list(degraded.notes),
        }

    timing: Dict[str, Any] = {}
    context: Dict[str, Any] = {}
    if execution is not None:
        context["execution"] = execution
    if stage2_workers is not None:
        context["stage2_workers"] = stage2_workers
    if channel_depth is not None:
        context["channel_depth"] = channel_depth
    # shard knobs are performance context, like worker counts — the
    # deterministic section is byte-identical across every value
    if shards is not None:
        context["shards"] = shards
    if shard_workers is not None:
        context["shard_workers"] = shard_workers
    if context:
        timing["context"] = context
    if stage2 is not None and hasattr(stage2, "timing_dict"):
        timing["stage2_exclusion"] = stage2.timing_dict()
    if flow_metrics is not None:
        timing["flow_channels"] = flow_metrics.to_dict()
    if scan_path is not None:
        # hit/miss tallies vary with the fast-lane seam and flow counts
        # with open taps; neither may touch the deterministic section
        timing["scan_path"] = scan_path.to_dict()
    if incremental is not None:
        # group-result-store counters: a warm run's hits depend on what
        # the previous run stored, so they are run-history context —
        # the deterministic section stays byte-identical warm vs cold
        timing["incremental"] = dict(incremental)

    return {
        "format": METRICS_FORMAT_VERSION,
        "deterministic": deterministic,
        "timing": timing,
    }

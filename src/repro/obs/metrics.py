"""The consolidated metrics document.

:func:`build_metrics_document` assembles the consolidated
``--metrics-out metrics.json``.  Its schema is versioned
(:data:`METRICS_FORMAT_VERSION`) and split into two sections mirroring
the ``to_dict()`` / ``timing_dict()`` split the byte-identity tests
already enforce:

* ``deterministic`` — counters that are byte-identical across runs of
  the same scenario and fault schedule, live, resumed or warm (and
  therefore safe to diff in CI);
* ``timing`` — wall-clock figures and cache and store tallies, which
  legitimately vary run to run.

This module imports nothing from the rest of :mod:`repro`; the report
and its metric holders are duck-typed (each holder has ``to_dict()``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

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
    section is byte-identical across runs of the same scenario and
    fault schedule; everything that may vary (wall clock, cache and
    store tallies) goes under ``timing``.
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
    # benchmarks/e2e reads this; ROADMAP item 2 deletes it
    if execution is not None:
        context["execution"] = execution
    if stage2_workers is not None:
        context["stage2_workers"] = stage2_workers
    if channel_depth is not None:
        context["channel_depth"] = channel_depth
    # recorded only for callers that still pass them: every group runs
    # in one process (see ``HunterConfig.shards``)
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

"""Record-level streaming dataflow for the URHunter pipeline.

The batch pipeline runs stage 1 → 2 → 3 with a whole-corpus barrier
between stages.  This package re-expresses stages 2 and 3 as a
dataflow graph — collected records → exclusion → analysis → report
sink — connected by bounded channels, so a record is analysed while
later ones are still being classified and intermediate buffering
stays at the configured channel depth.

The hard invariant (enforced by ``tests/flow``): for any channel
depth, stage-2 worker count, and fault schedule, the streaming report
is **byte-identical** to the batch report.  See the module docstrings
of :mod:`repro.flow.nodes` for the ordering rules that make it hold.

Entry point: :func:`run_pipeline_flow`, wired up by
:meth:`repro.core.hunter.URHunter.run_flow`.  This package imports
:mod:`repro.core` submodules; :mod:`repro.core.hunter` imports it
lazily, so there is no cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.analysis import (
    MaliciousAnalysisResult,
    MaliciousBehaviorAnalyzer,
)
from ..core.parallel import Stage2Metrics
from ..core.records import ClassifiedUR, UndelegatedRecord
from ..core.report import ReportAccumulator
from ..core.suspicion import SuspicionFilter, SuspicionOutcome
from .channel import Channel, ChannelError
from .graph import (
    ChannelStats,
    FlowGraph,
    FlowMetrics,
    FlowStalled,
    FlowStats,
)
from .nodes import (
    AnalysisNode,
    CollectorNode,
    ReportSink,
    StageNode,
    SuspicionNode,
    TransformNode,
)

__all__ = [
    "AnalysisNode",
    "Channel",
    "ChannelError",
    "ChannelStats",
    "CollectorNode",
    "FlowGraph",
    "FlowMetrics",
    "FlowResult",
    "FlowStalled",
    "FlowStats",
    "ReportSink",
    "StageNode",
    "SuspicionNode",
    "TransformNode",
    "run_pipeline_flow",
]


@dataclass
class FlowResult:
    """Everything one streaming run produced, in batch-result shapes."""

    outcome: SuspicionOutcome
    metrics: Stage2Metrics
    analysis: MaliciousAnalysisResult
    #: the sink's incrementally folded report body
    accumulator: ReportAccumulator
    stats: FlowStats


def run_pipeline_flow(
    records: Sequence[UndelegatedRecord],
    suspicion: SuspicionFilter,
    analyzer: MaliciousBehaviorAnalyzer,
    now: float,
    channel_depth: int,
    segment_size: int = 0,
    segment_sink: Optional[Callable[[int, List[ClassifiedUR]], None]] = None,
    resume_entries: Sequence[ClassifiedUR] = (),
    segment_start: int = 0,
    trace=None,
) -> FlowResult:
    """Assemble and pump the four-node pipeline graph.

    The caller (``URHunter.run_flow``) has already run stage 1 —
    ``records`` are its unique URs in record order — and built the
    stage-2 filter and stage-3 analyzer; this function owns only the
    dataflow.
    """
    collected: Channel = Channel("records", channel_depth)
    classified: Channel = Channel("classified", channel_depth)
    reported: Channel = Channel("reported", channel_depth)
    source = CollectorNode(records, collected)
    exclude = SuspicionNode(
        suspicion,
        now,
        collected,
        classified,
        chunk_size=channel_depth,
        segment_size=segment_size,
        segment_sink=segment_sink,
        resume_entries=resume_entries,
        segment_start=segment_start,
    )
    analyze = AnalysisNode(analyzer, classified, reported)
    sink = ReportSink(reported)
    graph = FlowGraph(
        [source, exclude, analyze, sink],
        [collected, classified, reported],
        trace=trace,
    )
    graph.run()
    assert analyze.analysis is not None
    return FlowResult(
        outcome=SuspicionOutcome(classified=exclude.classified),
        metrics=exclude.metrics,
        analysis=analyze.analysis,
        accumulator=sink.accumulator,
        stats=graph.stats(),
    )

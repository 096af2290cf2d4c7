"""``repro trace summarize``: render a trace JSONL as a span tree.

Reads a file written by :meth:`~repro.obs.events.RunTrace.finalize`
and prints, per stage, the span markers and body events in canonical
order, followed by an event-name counter block and (when present) the
virtual-time table — one ``phase.makespan`` line per phase with its
window on the run's clock: where the simulated seconds went, and which
server set each phase's length; phases that ran side by side overlap,
so the total is the latest end, not the sum — and the rest of the
timing section.  The renderer is
deterministic: two traces with equal deterministic sections summarize
to equal text up to the timing lines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .events import STAGE1, STAGE2, STAGE3, TRACE_FORMAT_VERSION

_STAGES = (STAGE1, STAGE2, STAGE3)
_SKIP_KEYS = frozenset({"seq", "event", "stage", "section"})


class TraceFormatError(ValueError):
    """The file is not a trace this version knows how to read."""


def _fields(event: Dict[str, Any]) -> str:
    parts = [
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in _SKIP_KEYS
    ]
    return " ".join(parts)


def _parse(text: str) -> List[Dict[str, Any]]:
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise TraceFormatError(
                f"line {number} is not JSON: {error}"
            ) from error
    return events


def summarize_trace(source: Union[str, Path]) -> str:
    """Render the per-stage span tree and counters of one trace file."""
    text = Path(source).read_text()
    events = _parse(text)
    if not events or events[0].get("event") != "trace.header":
        raise TraceFormatError("missing trace.header line")
    version = events[0].get("format")
    if version != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format {version!r} is not supported "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    body = events[1:]
    deterministic = [
        event for event in body if event.get("section") != "timing"
    ]
    timing = [event for event in body if event.get("section") == "timing"]

    lines = [
        f"trace format {version} — {len(deterministic)} deterministic "
        f"events, {len(timing)} timing events"
    ]
    by_stage: Dict[str, List[Dict[str, Any]]] = {
        stage: [] for stage in _STAGES
    }
    run_level: List[Dict[str, Any]] = []
    for event in deterministic:
        stage = event.get("stage")
        if stage in by_stage:
            by_stage[stage].append(event)
        else:
            run_level.append(event)
    for event in run_level:
        if event["event"].startswith("run."):
            lines.append(f"[run] {event['event']} {_fields(event)}".rstrip())
    for stage in _STAGES:
        stage_events = by_stage[stage]
        if not stage_events:
            continue
        lines.append(f"[{stage}]")
        for event in stage_events:
            lines.append(f"  {event['event']} {_fields(event)}".rstrip())
    counters: Dict[str, int] = {}
    for event in deterministic:
        name = event["event"]
        counters[name] = counters.get(name, 0) + 1
    lines.append(
        "event counts: "
        + "  ".join(
            f"{name}={count}" for name, count in sorted(counters.items())
        )
    )
    phases = [e for e in timing if e["event"] == "phase.makespan"]
    timing = [e for e in timing if e["event"] != "phase.makespan"]
    if phases:
        # phases may run side by side: the run lasts until the last ends
        total = max(event["start"] + event["makespan"] for event in phases)
        lines.append(
            f"virtual time: {total:.2f}s in {len(phases)} phases "
            "(each as long as its slowest server)"
        )
        for event in phases:
            start = event["start"]
            lines.append(
                f"  {event['phase']:<10} {event['makespan']:>9.2f}s  "
                f"[{start:.2f}, {start + event['makespan']:.2f}]  "
                f"groups={event['groups']} "
                f"critical={event['critical_server']}"
            )
    if timing:
        lines.append("timing:")
        for event in timing:
            lines.append(f"  {event['event']} {_fields(event)}".rstrip())
    return "\n".join(lines)

"""The run-scoped event bus: deterministic trace events + JSONL sink.

Every structured thing the pipeline does — a stage starting or ending,
a collection phase completing, a checkpoint written or loaded, a data
source degrading, a circuit breaker tripping, a segment replayed — is
emitted as a :class:`TraceEvent` on one :class:`RunTrace`.

**Determinism is the design center.**  The batch and streaming
execution modes do the same logical work in different chronological
orders (streaming interleaves stage-2 classification with the stage-1
scan), so raw emission order cannot be a byte-compared surface.
Instead every event carries a logical *stage* tag and the trace
canonicalizes at read time: events sort by

    ``(stage rank, sub-rank, emission id)``

where the stage rank orders ``run.start`` → stage 1 → stage 2 →
stage 3 → ``run.end``, and the sub-rank orders, within one stage,
span-open markers (``stage.start``, ``stage.resumed``,
``checkpoint.load``) before body events before ``stage.end`` before
``checkpoint.save``.  Within one (stage, sub-rank) cell the emission id
preserves chronological order — and because every body-event producer
(the collector's phase accounting, the single-threaded fault path of
stage 2, the record-ordered stage 3) is itself deterministic, the
canonical stream is byte-identical between ``--execution batch`` and
``--execution stream`` and across ``--stage2-workers`` /
``--channel-depth`` (enforced by ``tests/obs/test_equivalence.py``).

Wall-clock readings never enter deterministic events; they go through
:meth:`RunTrace.emit_timing` into a separate section whose lines are
marked ``"section": "timing"`` (the timing-leakage tests key off the
absence of that marker).

Segment events (``segment.save``/``segment.replay``) only exist in
streaming runs with ``--checkpoint-every`` > 0, so strict cross-*mode*
identity is specified at ``checkpoint_every=0``; cross-depth and
cross-worker identity holds with segments too (segment boundaries fall
on the canonical classified-record order).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: bumped whenever the JSONL layout or canonical ordering changes
#: (v2: resilience events — hedge.*, aimd.cut, budget.exhausted — and
#: the ``shed`` counter on run.end; v3: the scan-plan hash in the
#: header when a plan is bound, the ``plan.built`` deterministic event,
#: and the ``shard.*`` timing events)
TRACE_FORMAT_VERSION = 3

#: logical stage tags — string-equal to the pipeline runner's stage
#: names so checkpoints, failure provenance, and trace events share one
#: vocabulary
STAGE1 = "stage1-collect"
STAGE2 = "stage2-exclude"
STAGE3 = "stage3-analyze"

_STAGE_RANKS = {STAGE1: 1, STAGE2: 2, STAGE3: 3}

#: events that open a stage span (or stand in for one on resume)
_SUB_OPEN = frozenset({"stage.start", "stage.resumed", "checkpoint.load"})
#: events that close a stage span
_SUB_CLOSE = frozenset({"stage.end"})
#: events sealing a stage's artifact after the span closed
_SUB_SEAL = frozenset({"checkpoint.save"})

#: run-level terminators (sort after every stage)
_RUN_END = frozenset({"run.end", "run.abort", "run.stopped"})


def _json_safe(value: Any) -> Any:
    """Coerce a field value into something ``json.dumps`` accepts.

    Non-finite floats become ``None`` (strict JSON has no Infinity) and
    unknown objects fall back to ``str()`` — domain names, enums, and
    similar value objects serialize as their text form.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_json_safe(item) for item in items]
    return str(value)


class TraceEvent:
    """One structured event: a name, an optional stage tag, flat fields."""

    __slots__ = ("name", "stage", "fields", "emission_id")

    def __init__(
        self,
        name: str,
        stage: Optional[str],
        fields: Dict[str, Any],
        emission_id: int,
    ):
        self.name = name
        self.stage = stage
        self.fields = fields
        self.emission_id = emission_id

    def sort_key(self) -> Tuple[int, int, int]:
        """The canonical ``(stage rank, sub-rank, emission id)`` key."""
        if self.name == "run.start":
            return (0, 0, self.emission_id)
        if self.name in _RUN_END:
            return (9, 0, self.emission_id)
        rank = _STAGE_RANKS.get(self.stage or "", 8)
        if self.name in _SUB_OPEN:
            sub = 0
        elif self.name in _SUB_CLOSE:
            sub = 2
        elif self.name in _SUB_SEAL:
            sub = 3
        else:
            sub = 1
        return (rank, sub, self.emission_id)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"event": self.name}
        if self.stage is not None:
            payload["stage"] = self.stage
        for key, value in self.fields.items():
            payload[key] = _json_safe(value)
        return payload


class RunTrace:
    """In-memory event buffer with an optional JSONL sink.

    Deterministic events go through :meth:`emit`; wall-clock or
    otherwise run-variant observations go through :meth:`emit_timing`.
    :meth:`finalize` writes the canonical JSONL document (header line,
    deterministic section, timing section) to ``sink_path``.
    """

    def __init__(self, sink_path: Optional[Union[str, Path]] = None):
        self.sink_path = Path(sink_path) if sink_path is not None else None
        self._events: List[TraceEvent] = []
        self._timing: List[TraceEvent] = []
        self._plan_hash: Optional[str] = None
        #: virtual time the traced run began at — a ``phase.makespan``
        #: event's ``start`` is measured from it (the hunter the trace is
        #: attached to sets it)
        self.origin = 0.0

    def bind_plan(self, plan_hash: str) -> None:
        """Stamp the scan-plan content hash into the trace header.

        The hash is a pure function of (world, config), so stamping it
        keeps the header byte-identical across shard counts, worker
        counts, engines, and execution modes — while proving which scan
        the trace describes.
        """
        self._plan_hash = plan_hash

    # -- emission ----------------------------------------------------------

    def emit(
        self, name: str, stage: Optional[str] = None, **fields: Any
    ) -> None:
        """Record one deterministic event (timing-free by contract)."""
        self._events.append(
            TraceEvent(name, stage, fields, len(self._events))
        )

    def emit_timing(self, name: str, **fields: Any) -> None:
        """Record one non-deterministic (wall-clock/variant) event."""
        self._timing.append(
            TraceEvent(name, None, fields, len(self._timing))
        )

    # -- reading -----------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Deterministic events in canonical order, as plain dicts."""
        ordered = sorted(self._events, key=TraceEvent.sort_key)
        out = []
        for seq, event in enumerate(ordered):
            payload = {"seq": seq}
            payload.update(event.to_dict())
            out.append(payload)
        return out

    def timing_events(self) -> List[Dict[str, Any]]:
        """Timing events in emission order, marked ``section: timing``."""
        out = []
        for event in self._timing:
            payload = event.to_dict()
            payload["section"] = "timing"
            out.append(payload)
        return out

    def raw_events(
        self,
    ) -> List[Tuple[str, Optional[str], Dict[str, Any]]]:
        """Deterministic events as (name, stage, fields), emission order.

        The shard runner buffers a group engine's events on a private
        trace and replays them into the parent via :meth:`emit`; raw
        tuples (not canonicalized dicts) keep the replay loss-free.
        """
        return [
            (event.name, event.stage, dict(event.fields))
            for event in self._events
        ]

    def counters(self) -> Dict[str, int]:
        """Occurrence count per deterministic event name."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return dict(sorted(counts.items()))

    # -- serialization -----------------------------------------------------

    @staticmethod
    def _line(payload: Dict[str, Any]) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def header(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "event": "trace.header",
            "format": TRACE_FORMAT_VERSION,
        }
        if self._plan_hash is not None:
            payload["plan"] = self._plan_hash
        return payload

    def deterministic_lines(self) -> List[str]:
        """The byte-compared surface: header + canonical events."""
        lines = [self._line(self.header())]
        lines.extend(self._line(event) for event in self.events())
        return lines

    def lines(self) -> List[str]:
        """The full JSONL document (deterministic, then timing)."""
        lines = self.deterministic_lines()
        lines.extend(self._line(event) for event in self.timing_events())
        return lines

    def finalize(self) -> Optional[Path]:
        """Write the JSONL document to the sink, if one is configured.

        Idempotent: finalizing again rewrites the file with whatever
        has been emitted since — callers may finalize in a ``finally``
        block without tracking state.
        """
        if self.sink_path is None:
            return None
        self.sink_path.parent.mkdir(parents=True, exist_ok=True)
        self.sink_path.write_text("\n".join(self.lines()) + "\n")
        return self.sink_path


def run_end_fields(report: Any, status: Optional[str] = None) -> Dict[str, Any]:
    """The loss-accounting fields of a ``run.end`` event.

    ``unaccounted`` is the invariant CI greps for: every sent attempt
    must be a response or a timeout — anything else is silent query
    loss, which at the paper's scale skews every per-provider statistic.
    Duck-typed over :class:`~repro.core.report.MeasurementReport` so
    this module stays import-free.
    """
    metrics = getattr(report, "scan_metrics", None)
    if metrics is not None:
        queries = metrics.queries
        responses = metrics.responses
        timeouts = metrics.timeouts
        giveups = metrics.giveups
        skipped = metrics.skipped
        shed = getattr(metrics, "shed", 0)
    else:
        queries = report.queries_sent
        responses = report.responses_seen
        timeouts = report.timeouts
        giveups = 0
        skipped = 0
        shed = 0
    return {
        "status": status
        or ("degraded" if report.is_degraded else "clean"),
        "classified": len(report.classified),
        "suspicious": len(report.suspicious),
        "queries": queries,
        "responses": responses,
        "timeouts": timeouts,
        "giveups": giveups,
        "skipped": skipped,
        "shed": shed,
        "unaccounted": queries - responses - timeouts,
    }

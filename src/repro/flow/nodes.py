"""The stage nodes of the streaming dataflow.

Each node wraps one pipeline stage and advances cooperatively: the
scheduler calls :meth:`StageNode.step`, the node does a bounded amount
of work (respecting its outbox capacity) and reports whether it made
progress.  A single-threaded pump keeps the semantics identical to the
batch stages — no scheduling nondeterminism can creep into verdicts —
while the bounded channels keep intermediate buffering at the
configured depth instead of whole-corpus lists.

Determinism and byte-identity rest on three ordering rules:

* **record order** — stage 1 hands the source node its unique URs
  already in planned scan order (the group runner's fold restores it),
  so downstream nodes see exactly the sequence the batch pipeline
  iterates;
* **verdict order** — the exclusion node evaluates distinct UR keys in
  global first-occurrence order (chunked to keep worker shards busy)
  when memoization is eligible, and falls back to strict per-record
  arrival-order evaluation otherwise, so every data-source call happens
  in the same sequence as the batch path (which is what keeps
  call-count-dependent fault schedules equivalent);
* **analysis order** — the §4.3 co-hosting join needs the complete
  suspicious set, so the analysis node buffers suspicious entries until
  end-of-stream and then reuses the batch analyzer verbatim; with the
  join ablated it refines incrementally through the same per-entry
  helper.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.analysis import (
    MaliciousAnalysisResult,
    MaliciousBehaviorAnalyzer,
)
from ..core.correctness import CorrectnessVerdict
from ..core.parallel import Stage2Metrics
from ..core.records import (
    ClassifiedUR,
    IpVerdict,
    URCategory,
    UndelegatedRecord,
)
from ..core.report import ReportAccumulator
from ..core.suspicion import SuspicionFilter, UrKey
from ..core.txt import classify_txt
from ..dns.rdata import RRType
from ..pipeline.errors import CheckpointError
from .channel import Channel


class StageNode:
    """One vertex of the dataflow graph."""

    name = "node"

    def step(self) -> bool:
        """Advance a bounded amount of work; True when progress was made."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError


class TransformNode(StageNode):
    """Base for inbox→outbox nodes: pump, buffer, end-of-stream.

    Subclasses implement :meth:`process` (one input item → zero or more
    output items) and optionally :meth:`finish` (flush at end of
    stream).  Items a full outbox cannot yet absorb wait in a small
    internal buffer; the node closes its outbox once the inbox drained,
    ``finish`` ran, and the buffer flushed.
    """

    def __init__(self, name: str, inbox: Channel, outbox: Channel):
        self.name = name
        self.inbox = inbox
        self.outbox = outbox
        self._pending: Deque = deque()
        self._finished = False
        self._closed = False

    def process(self, item) -> Iterable:
        raise NotImplementedError

    def finish(self) -> Iterable:
        return ()

    @property
    def done(self) -> bool:
        return self._closed

    def _flush(self) -> bool:
        progress = False
        while self._pending and not self.outbox.full:
            self.outbox.put(self._pending.popleft())
            progress = True
        return progress

    def step(self) -> bool:
        progress = self._flush()
        while not self._pending and not self.outbox.full and len(self.inbox):
            self._pending.extend(self.process(self.inbox.get()))
            progress = True
            self._flush()
        if self.inbox.drained and not self._finished and not self._pending:
            self._pending.extend(self.finish())
            self._finished = True
            progress = True
            self._flush()
        if self._finished and not self._pending and not self._closed:
            self.outbox.close()
            self._closed = True
            progress = True
        return progress


class CollectorNode(StageNode):
    """Stage 1 as a source node: the collected URs, in record order.

    The scan has already run (the group runner owns clock/RNG isolation,
    so it cannot be driven lazily); the node only feeds its unique,
    ordered records into the outbox as capacity allows.
    """

    name = "collect"

    def __init__(self, records: Sequence[UndelegatedRecord], outbox: Channel):
        self.outbox = outbox
        self._iter = iter(records)
        self._closed = False

    @property
    def done(self) -> bool:
        return self._closed

    def step(self) -> bool:
        progress = False
        while not self.outbox.full and not self._closed:
            progress = True
            try:
                self.outbox.put(next(self._iter))
            except StopIteration:
                self.outbox.close()
                self._closed = True
        return progress


class SuspicionNode(TransformNode):
    """Stage 2 as a streaming node, byte-identical to the batch filter.

    Two paths mirror :class:`~repro.core.suspicion.SuspicionFilter`:

    * **grouped** (memoize on + deterministic sources) — records buffer
      into arrival-order chunks of ``chunk_size``; each flush evaluates
      the chunk's *new* distinct keys (global first-occurrence order)
      through the shared :class:`~repro.core.parallel.Stage2Executor`
      and fans verdicts out in arrival order.  The node-global key map
      reproduces the batch cache arithmetic exactly;
    * **naive** (otherwise) — every record is classified individually
      the moment it arrives, so the checker/guard call sequence under
      fault injection is identical to the batch loop.

    ``segment_size``/``segment_sink`` emit incremental checkpoint
    segments; ``resume_entries`` replays a previously checkpointed
    prefix (alignment-checked against the re-driven scan) without
    touching the data sources again.  Segments are only produced when
    the checker is memoizable — with nondeterministic (fault-injected)
    sources a replayed prefix would desynchronise call-count-dependent
    fault schedules, so those runs restart stage 2 from the top.
    """

    name = "exclude"

    def __init__(
        self,
        suspicion: SuspicionFilter,
        now: float,
        inbox: Channel,
        outbox: Channel,
        chunk_size: int,
        segment_size: int = 0,
        segment_sink: Optional[
            Callable[[int, List[ClassifiedUR]], None]
        ] = None,
        resume_entries: Sequence[ClassifiedUR] = (),
        segment_start: int = 0,
    ):
        super().__init__(self.name, inbox, outbox)
        self.filter = suspicion
        self.now = now
        self.chunk_size = max(1, chunk_size)
        self.grouped = suspicion.memoize and suspicion.checker.memoizable
        self.metrics = Stage2Metrics(
            workers=suspicion.executor.workers, memoized=self.grouped
        )
        #: node-global verdict map: one evaluation per distinct UR key
        self._verdicts: Dict[UrKey, CorrectnessVerdict] = {}
        #: (record, txt_category, is_protective) awaiting a chunk flush
        self._chunk: List[Tuple[UndelegatedRecord, Optional[str], bool]] = []
        #: the complete stage-2 ledger (the stage-2 checkpoint body)
        self.classified: List[ClassifiedUR] = []
        self._replay: Deque[ClassifiedUR] = deque(resume_entries)
        self._records_total = 0
        self._protective_total = 0
        self._checked = 0
        self._misses = 0
        self._memo_hits = 0
        self._segment_size = segment_size
        self._segment_sink = segment_sink
        self._segments_on = bool(
            segment_size > 0
            and segment_sink is not None
            and suspicion.checker.memoizable
        )
        self._segment: List[ClassifiedUR] = []
        self._segment_index = segment_start
        self._started = time.perf_counter()

    # -- bookkeeping shared by every emission path ----------------------

    def _count(self, entry: ClassifiedUR) -> None:
        self._records_total += 1
        if entry.category is URCategory.PROTECTIVE:
            self._protective_total += 1
        else:
            self._checked += 1

    def _emit(self, entries: List[ClassifiedUR]) -> List[ClassifiedUR]:
        """Fresh classifications: ledger, counters, segment checkpoints."""
        for entry in entries:
            self._count(entry)
            self.classified.append(entry)
            if self._segments_on:
                self._segment.append(entry)
                if len(self._segment) >= self._segment_size:
                    self._segment_sink(self._segment_index, self._segment)
                    self._segment_index += 1
                    self._segment = []
        return entries

    # -- the resumed prefix ---------------------------------------------

    def _replay_one(
        self, record: UndelegatedRecord, entry: ClassifiedUR
    ) -> List[ClassifiedUR]:
        if entry.record.key != record.key:
            raise CheckpointError(
                "segment checkpoint out of alignment with the re-driven "
                f"scan: expected {entry.record.describe()}, "
                f"got {record.describe()}"
            )
        self._count(entry)
        self.classified.append(entry)
        if self.grouped and entry.category is not URCategory.PROTECTIVE:
            key = (record.domain, record.rrtype, record.rdata_text)
            if key not in self._verdicts:
                # the live run evaluated this key fresh; replay the
                # verdict (and the miss) without touching the sources
                self._verdicts[key] = self._verdict_from_entry(entry)
                self._misses += 1
        return [entry]

    @staticmethod
    def _verdict_from_entry(entry: ClassifiedUR) -> CorrectnessVerdict:
        if entry.category is URCategory.CORRECT:
            return CorrectnessVerdict(
                True, matched_condition=entry.reasons[0]
            )
        degraded: Tuple[str, ...] = ()
        for reason in entry.reasons:
            if reason.startswith("unverifiable:"):
                degraded = tuple(reason.split(":", 1)[1].split("+"))
        return CorrectnessVerdict(False, degraded_conditions=degraded)

    # -- the streaming classification -----------------------------------

    def process(self, record: UndelegatedRecord) -> List[ClassifiedUR]:
        if self._replay:
            return self._replay_one(record, self._replay.popleft())
        if not self.grouped:
            return self._emit([self.filter._classify_one(record, self.now)])
        txt_category: Optional[str] = None
        if record.rrtype == RRType.TXT:
            txt_category = classify_txt(record.rdata_text)
        fingerprint = self.filter.protective.get(record.nameserver_ip)
        protective = fingerprint is not None and fingerprint.matches(
            record.rrtype, record.rdata_text
        )
        self._chunk.append((record, txt_category, protective))
        if len(self._chunk) >= self.chunk_size:
            return self._emit(self._flush_chunk())
        return []

    def _flush_chunk(self) -> List[ClassifiedUR]:
        """Evaluate the chunk's new keys, fan out in arrival order."""
        checker = self.filter.checker
        pending: Dict[UrKey, UndelegatedRecord] = {}
        for record, _, protective in self._chunk:
            if protective:
                continue
            key = (record.domain, record.rrtype, record.rdata_text)
            if key not in self._verdicts and key not in pending:
                pending[key] = record
        if pending:
            hits_before = checker.memo_hits
            misses_before = checker.memo_misses
            results = self.filter.executor.map_keys(
                list(pending.items()),
                lambda record: checker.check_cached(record, self.now),
            )
            self._misses += checker.memo_misses - misses_before
            self._memo_hits += checker.memo_hits - hits_before
            for key, (verdict, elapsed) in results.items():
                self.metrics.attribute(
                    verdict.matched_condition or "survived-exclusion",
                    elapsed,
                )
                self._verdicts[key] = verdict
        entries: List[ClassifiedUR] = []
        for record, txt_category, protective in self._chunk:
            if protective:
                entries.append(
                    ClassifiedUR(
                        record=record,
                        category=URCategory.PROTECTIVE,
                        reasons=("protective-fingerprint",),
                        txt_category=txt_category,
                    )
                )
                continue
            key = (record.domain, record.rrtype, record.rdata_text)
            entries.append(
                SuspicionFilter._from_verdict(
                    record, self._verdicts[key], txt_category
                )
            )
        self._chunk = []
        return entries

    def finish(self) -> List[ClassifiedUR]:
        if self._replay:
            raise CheckpointError(
                f"segment checkpoint holds {len(self._replay)} more "
                "classifications than the re-driven scan produced"
            )
        entries = self._emit(self._flush_chunk()) if self._chunk else []
        metrics = self.metrics
        metrics.records = self._records_total
        metrics.protective_matches = self._protective_total
        if self.grouped:
            metrics.distinct_keys = len(self._verdicts)
            metrics.cache_misses = self._misses
            # batch arithmetic: memo hits + (checked records - keys)
            metrics.cache_hits = self._memo_hits + (
                self._checked - len(self._verdicts)
            )
        metrics.wall_s = time.perf_counter() - self._started
        self.filter._harvest_store_caches(metrics)
        self.filter.last_metrics = metrics
        return entries


class AnalysisNode(TransformNode):
    """Stage 3 as a streaming node.

    Clean (non-suspicious) entries pass straight through.  With the
    §4.3 co-hosting join enabled (the default) suspicious entries wait
    for end-of-stream — the join's A-record index needs the complete
    suspicious set — and then ride the batch analyzer verbatim, so the
    intel-vendor call sequence matches the batch run exactly.  With the
    join ablated each suspicious entry is refined the moment it
    arrives, through the same per-entry helper and shared first-seen
    IP ledger the batch loop uses.
    """

    name = "analyze"

    def __init__(
        self,
        analyzer: MaliciousBehaviorAnalyzer,
        inbox: Channel,
        outbox: Channel,
    ):
        super().__init__(self.name, inbox, outbox)
        self.analyzer = analyzer
        self._suspicious: List[ClassifiedUR] = []
        self._refined: List[ClassifiedUR] = []
        self._ip_verdicts: Dict[str, IpVerdict] = {}
        self._txt_without_ip = 0
        self.analysis: Optional[MaliciousAnalysisResult] = None

    def process(self, entry: ClassifiedUR) -> List[ClassifiedUR]:
        if not entry.is_suspicious:
            return [entry]
        if self.analyzer.use_cohost_join:
            self._suspicious.append(entry)
            return []
        refined, counted = self.analyzer.refine_entry(
            entry, {}, self._ip_verdicts
        )
        if counted:
            self._txt_without_ip += 1
        self._refined.append(refined)
        return [refined]

    def finish(self) -> List[ClassifiedUR]:
        if self.analyzer.use_cohost_join:
            self.analysis = self.analyzer.analyze(self._suspicious)
            return list(self.analysis.classified)
        self.analysis = MaliciousAnalysisResult(
            classified=self._refined,
            ip_verdicts=self._ip_verdicts,
            txt_without_ip=self._txt_without_ip,
        )
        return []


class ReportSink(StageNode):
    """Terminal node: fold classified entries into the report accumulator.

    The accumulator re-partitions arrival order (clean entries
    interleave with refined ones in a stream) into the canonical batch
    report order — the same class :meth:`URHunter.build_report` uses,
    which is the byte-identity guarantee's last link.
    """

    name = "report"

    def __init__(self, inbox: Channel):
        self.inbox = inbox
        self.accumulator = ReportAccumulator()
        self._closed = False

    @property
    def done(self) -> bool:
        return self._closed

    def step(self) -> bool:
        progress = False
        while len(self.inbox):
            self.accumulator.add(self.inbox.get())
            progress = True
        if self.inbox.drained and not self._closed:
            self._closed = True
            progress = True
        return progress

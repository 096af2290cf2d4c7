"""Stage 2 — determining suspicious records (§4.2).

Takes the raw UR collection and labels each record:

* **protective** when it matches the nameserver's protective fingerprint
  (exact match on the data learned from the probe domain);
* **correct** when any Appendix-B uniformity condition fires (or, for
  TXT, an exact match against the correct database / passive DNS);
* otherwise it stays **suspicious** (later refined to malicious/unknown
  by stage 3).

TXT records are additionally classified into semantic categories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..dns.name import Name
from ..dns.rdata import RRType
from .collector import ProtectiveFingerprint
from .correctness import CorrectnessVerdict, UniformityChecker
from .parallel import Stage2Metrics
from .records import ClassifiedUR, URCategory, UndelegatedRecord
from .txt import classify_txt


@dataclass
class SuspicionOutcome:
    """Stage-2 output: every UR labeled, suspicious ones surfaced."""

    classified: List[ClassifiedUR]

    @property
    def suspicious(self) -> List[ClassifiedUR]:
        return [entry for entry in self.classified if entry.is_suspicious]

    @property
    def correct(self) -> List[ClassifiedUR]:
        return [
            entry
            for entry in self.classified
            if entry.category is URCategory.CORRECT
        ]

    @property
    def protective(self) -> List[ClassifiedUR]:
        return [
            entry
            for entry in self.classified
            if entry.category is URCategory.PROTECTIVE
        ]

    @property
    def unverifiable(self) -> List[ClassifiedUR]:
        """Suspicious URs whose exclusion could not be fully evaluated
        (a condition's data source was down) — degraded, not definitive."""
        return [
            entry
            for entry in self.classified
            if entry.is_suspicious
            and any(
                reason.startswith("unverifiable") for reason in entry.reasons
            )
        ]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.classified:
            out[entry.category.value] = out.get(entry.category.value, 0) + 1
        return out


#: the memoization identity of one UR: every record sharing it receives
#: the same uniformity verdict (the nameserver is deliberately absent —
#: protective fingerprints are checked per server, before this key)
UrKey = Tuple[Name, int, str]


class SuspicionFilter:
    """Applies the exclusion pipeline to collected URs.

    Two execution strategies produce byte-identical output:

    * the **naive path** evaluates every record independently — always
      used when a data source is fault-injected (non-deterministic), so
      chaos runs behave exactly as they would without the fast path;
    * the **grouped path** (``memoize=True`` and deterministic sources)
      deduplicates records by :data:`UrKey`, evaluates each distinct key
      once, in first-occurrence order, and fans the verdict back out in
      the original record order.

    A run selects between them from what it can observe
    (``checker.memoizable``); ``memoize=False`` forces the naive path —
    the reference tests hold the grouped one to.

    ``last_metrics`` carries the :class:`Stage2Metrics` of the most
    recent :meth:`classify` call.
    """

    def __init__(
        self,
        checker: UniformityChecker,
        protective: Dict[str, ProtectiveFingerprint],
        memoize: bool = True,
    ):
        self.checker = checker
        self.protective = protective
        self.memoize = memoize
        self.last_metrics: Optional[Stage2Metrics] = None

    def classify(
        self, records: Iterable[UndelegatedRecord], now: float = 0.0
    ) -> SuspicionOutcome:
        """Label every UR protective / correct / unknown (=suspicious)."""
        records = list(records)
        metrics = Stage2Metrics()
        started = time.perf_counter()
        if self.memoize and self.checker.memoizable:
            metrics.memoized = True
            classified = self._classify_grouped(records, now, metrics)
        else:
            classified = [
                self._classify_one(record, now) for record in records
            ]
        metrics.records = len(records)
        metrics.protective_matches = sum(
            1
            for entry in classified
            if entry.category is URCategory.PROTECTIVE
        )
        metrics.wall_s = time.perf_counter() - started
        self._harvest_store_caches(metrics)
        self.last_metrics = metrics
        return SuspicionOutcome(classified=classified)

    # -- the grouped fast path ---------------------------------------------

    def _classify_grouped(
        self,
        records: List[UndelegatedRecord],
        now: float,
        metrics: Stage2Metrics,
    ) -> List[ClassifiedUR]:
        # pass 1: protective short-circuits, and the distinct keys that
        # still need a uniformity verdict (first-occurrence order)
        pending: Dict[UrKey, UndelegatedRecord] = {}
        needs_verdict: List[bool] = []
        for record in records:
            fingerprint = self.protective.get(record.nameserver_ip)
            protective = fingerprint is not None and fingerprint.matches(
                record.rrtype, record.rdata_text
            )
            needs_verdict.append(not protective)
            if not protective:
                key = (record.domain, record.rrtype, record.rdata_text)
                pending.setdefault(key, record)
        metrics.distinct_keys = len(pending)

        # pass 2: one evaluation per distinct key, in first-occurrence
        # order; cross-call memo hits (e.g. the FN validation re-using
        # the main pass's verdicts) are counted by the checker itself
        hits_before = self.checker.memo_hits
        misses_before = self.checker.memo_misses
        verdicts: Dict[UrKey, CorrectnessVerdict] = {}
        for key, record in pending.items():
            started = time.perf_counter()
            verdict = verdicts[key] = self.checker.check_cached(record, now)
            metrics.attribute(
                verdict.matched_condition or "survived-exclusion",
                time.perf_counter() - started,
            )
        metrics.cache_misses = self.checker.memo_misses - misses_before
        metrics.cache_hits = (self.checker.memo_hits - hits_before) + (
            sum(needs_verdict) - len(pending)
        )

        # pass 3: fan-out in the original record order
        classified: List[ClassifiedUR] = []
        for record, checked in zip(records, needs_verdict):
            txt_category: Optional[str] = None
            if record.rrtype == RRType.TXT:
                txt_category = classify_txt(record.rdata_text)
            if not checked:
                classified.append(
                    ClassifiedUR(
                        record=record,
                        category=URCategory.PROTECTIVE,
                        reasons=("protective-fingerprint",),
                        txt_category=txt_category,
                    )
                )
                continue
            verdict = verdicts[
                (record.domain, record.rrtype, record.rdata_text)
            ]
            classified.append(
                self._from_verdict(record, verdict, txt_category)
            )
        return classified

    def _harvest_store_caches(self, metrics: Stage2Metrics) -> None:
        """Copy auxiliary-store cache counters when the stores keep them."""
        pdns = self.checker.pdns
        if pdns is not None:
            metrics.pdns_cache_hits = getattr(pdns, "cache_hits", 0)
            metrics.pdns_cache_misses = getattr(pdns, "cache_misses", 0)
        ipinfo = self.checker.ipinfo
        metrics.ipinfo_cache_hits = getattr(ipinfo, "cache_hits", 0)
        metrics.ipinfo_cache_misses = getattr(ipinfo, "cache_misses", 0)

    # -- the naive per-record path -----------------------------------------

    def _classify_one(
        self, record: UndelegatedRecord, now: float
    ) -> ClassifiedUR:
        txt_category: Optional[str] = None
        if record.rrtype == RRType.TXT:
            txt_category = classify_txt(record.rdata_text)

        fingerprint = self.protective.get(record.nameserver_ip)
        if fingerprint is not None and fingerprint.matches(
            record.rrtype, record.rdata_text
        ):
            return ClassifiedUR(
                record=record,
                category=URCategory.PROTECTIVE,
                reasons=("protective-fingerprint",),
                txt_category=txt_category,
            )

        verdict = self.checker.check(record, now)
        return self._from_verdict(record, verdict, txt_category)

    @staticmethod
    def _from_verdict(
        record: UndelegatedRecord,
        verdict: CorrectnessVerdict,
        txt_category: Optional[str],
    ) -> ClassifiedUR:
        """One verdict → one classified UR (shared by both paths)."""
        if verdict.is_correct:
            reason = verdict.matched_condition or "uniformity"
            return ClassifiedUR(
                record=record,
                category=URCategory.CORRECT,
                reasons=(reason,),
                txt_category=txt_category,
            )
        reasons = ["survived-exclusion"]
        if verdict.degraded_conditions:
            # the record survived, but some enabled conditions never ran:
            # a downgraded, unverifiable verdict the report must flag
            reasons.append(
                "unverifiable:" + "+".join(sorted(verdict.degraded_conditions))
            )
        return ClassifiedUR(
            record=record,
            category=URCategory.UNKNOWN,
            reasons=tuple(reasons),
            txt_category=txt_category,
        )

    def false_negative_rate(
        self,
        delegated_records: Iterable[UndelegatedRecord],
        now: float = 0.0,
    ) -> float:
        """§4.2's validation: feed *delegated* records through the same
        exclusion; any labeled suspicious is a false negative.

        Returns the FN rate in [0, 1] (the paper measured 0.0).
        """
        outcome = self.classify(delegated_records, now)
        total = len(outcome.classified)
        if total == 0:
            return 0.0
        return len(outcome.suspicious) / total

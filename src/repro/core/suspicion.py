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
from .records import (
    ClassifiedUR,
    URCategory,
    URTable,
    URVerdicts,
    UndelegatedRecord,
    is_unverifiable,
)
from .txt import classify_txt


@dataclass
class SuspicionOutcome:
    """Stage-2 output: every UR labeled, suspicious ones surfaced.

    ``classified`` is the verdict columns beside the classified rows
    (:class:`~repro.core.records.URVerdicts`); the partitions build
    only their own entries.
    """

    classified: URVerdicts

    @property
    def suspicious(self) -> List[ClassifiedUR]:
        return self.classified.select(_SUSPICIOUS)

    @property
    def correct(self) -> List[ClassifiedUR]:
        return self.classified.select((URCategory.CORRECT,))

    @property
    def protective(self) -> List[ClassifiedUR]:
        return self.classified.select((URCategory.PROTECTIVE,))

    @property
    def unverifiable(self) -> List[ClassifiedUR]:
        """Suspicious URs whose exclusion could not be fully evaluated
        (a condition's data source was down) — degraded, not definitive."""
        return [
            entry
            for entry in self.suspicious
            if is_unverifiable(entry.reasons)
        ]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for category in self.classified.categories():
            out[category.value] = out.get(category.value, 0) + 1
        return out


_SUSPICIOUS = tuple(
    category for category in URCategory if category.is_suspicious
)
_PROTECTIVE = (URCategory.PROTECTIVE, ("protective-fingerprint",))

#: the memoization identity of one UR: every record sharing it receives
#: the same uniformity verdict (the nameserver is deliberately absent —
#: protective fingerprints are checked per server, before this key)
UrKey = Tuple[Name, int, str]

#: one row's verdict: category, reasons, TXT category
_Verdict = Tuple[URCategory, Tuple[str, ...], Optional[str]]


class SuspicionFilter:
    """Applies the exclusion pipeline to collected URs.

    Two execution strategies produce byte-identical output:

    * the **naive path** evaluates every record independently — always
      used when a data source is fault-injected (non-deterministic), so
      chaos runs behave exactly as they would without the fast path;
    * the **grouped path** (``memoize=True`` and deterministic sources)
      deduplicates the table's rows by :data:`UrKey`, evaluates each
      distinct key once, in first-occurrence order, and fans the
      verdict back out in row order (every row of one key shares its
      reasons tuple).

    A run selects between them from what it can observe
    (``checker.memoizable``); ``memoize=False`` forces the naive path —
    the reference tests hold the grouped one to.  Either fills the
    verdict columns of one :class:`~repro.core.records.URVerdicts`.

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
        """Label every UR protective / correct / unknown (=suspicious).

        ``records`` is read as a :class:`~repro.core.records.URTable`
        (stage 1's is used as it is; any other iterable is tabled
        first).
        """
        table = records if isinstance(records, URTable) else URTable(records)
        verdicts = URVerdicts(table)
        metrics = Stage2Metrics()
        started = time.perf_counter()
        if self.memoize and self.checker.memoizable:
            metrics.memoized = True
            self._classify_grouped(table, verdicts, now, metrics)
        else:
            for record in table:
                verdicts.append(*self._classify_one(record, now))
        metrics.records = len(table)
        metrics.protective_matches = len(
            verdicts.rows_in((URCategory.PROTECTIVE,))
        )
        metrics.wall_s = time.perf_counter() - started
        self._harvest_store_caches(metrics)
        self.last_metrics = metrics
        return SuspicionOutcome(classified=verdicts)

    # -- the grouped fast path ---------------------------------------------

    def _classify_grouped(
        self,
        table: URTable,
        verdicts: URVerdicts,
        now: float,
        metrics: Stage2Metrics,
    ) -> None:
        rdatas = table.rdatas
        fingerprints = [
            self.protective.get(address) for address, _, _ in table.servers
        ]
        # a key's domain is its Name-equality class (the row of the
        # first table domain equal to it, whatever its case), its rdata
        # the exact text
        canonical: Dict[Name, int] = {}
        domain_keys = [
            canonical.setdefault(domain, row)
            for row, domain in enumerate(table.domains)
        ]
        columns = (
            table.domain_index,
            table.server_index,
            table.rrtypes,
            table.rdata_index,
        )

        # pass 1: protective short-circuits, and the distinct keys that
        # still need a uniformity verdict (first-occurrence rows)
        pending: Dict[Tuple[int, int, int], int] = {}
        protective = bytearray()
        for row, (domain, server, rrtype, rdata) in enumerate(zip(*columns)):
            fingerprint = fingerprints[server]
            if fingerprint is not None and fingerprint.matches(
                rrtype, rdatas[rdata]
            ):
                protective.append(1)
                continue
            protective.append(0)
            pending.setdefault((domain_keys[domain], rrtype, rdata), row)
        metrics.distinct_keys = len(pending)

        # pass 2: one evaluation per distinct key, in first-occurrence
        # order; cross-call memo hits (e.g. the FN validation re-using
        # the main pass's verdicts) are counted by the checker itself
        hits_before = self.checker.memo_hits
        misses_before = self.checker.memo_misses
        by_key: Dict[Tuple[int, int, int], Tuple] = {}
        for key, row in pending.items():
            started = time.perf_counter()
            verdict = self.checker.check_cached(table[row], now)
            metrics.attribute(
                verdict.matched_condition or "survived-exclusion",
                time.perf_counter() - started,
            )
            by_key[key] = self._from_verdict(verdict)
        metrics.cache_misses = self.checker.memo_misses - misses_before
        metrics.cache_hits = (self.checker.memo_hits - hits_before) + (
            len(protective) - sum(protective) - len(pending)
        )

        # pass 3: fan-out in row order
        txt_categories: Dict[int, str] = {}
        for (domain, _, rrtype, rdata), is_protective in zip(
            zip(*columns), protective
        ):
            txt_category: Optional[str] = None
            if rrtype == RRType.TXT:
                txt_category = txt_categories.get(rdata)
                if txt_category is None:
                    txt_category = txt_categories[rdata] = classify_txt(
                        rdatas[rdata]
                    )
            category, reasons = (
                _PROTECTIVE
                if is_protective
                else by_key[(domain_keys[domain], rrtype, rdata)]
            )
            verdicts.append(category, reasons, txt_category)

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
    ) -> _Verdict:
        txt_category: Optional[str] = None
        if record.rrtype == RRType.TXT:
            txt_category = classify_txt(record.rdata_text)

        fingerprint = self.protective.get(record.nameserver_ip)
        if fingerprint is not None and fingerprint.matches(
            record.rrtype, record.rdata_text
        ):
            return (*_PROTECTIVE, txt_category)

        verdict = self.checker.check(record, now)
        return (*self._from_verdict(verdict), txt_category)

    @staticmethod
    def _from_verdict(
        verdict: CorrectnessVerdict,
    ) -> Tuple[URCategory, Tuple[str, ...]]:
        """One verdict → a category and its reasons (shared by both
        paths)."""
        if verdict.is_correct:
            return (
                URCategory.CORRECT,
                (verdict.matched_condition or "uniformity",),
            )
        reasons = ["survived-exclusion"]
        if verdict.degraded_conditions:
            # the record survived, but some enabled conditions never ran:
            # a downgraded, unverifiable verdict the report must flag
            reasons.append(
                "unverifiable:" + "+".join(sorted(verdict.degraded_conditions))
            )
        return URCategory.UNKNOWN, tuple(reasons)

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

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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..dns.name import Name
from ..dns.rdata import RRType
from .collector import ProtectiveFingerprint
from .correctness import CorrectnessVerdict, UniformityChecker
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
class Stage2Metrics:
    """What stage 2 did: volume, dedup, timing.

    The deterministic/timing split is load-bearing: ``to_dict()`` and
    ``summary()`` carry only counters that are byte-identical between a
    live and a resumed run, while ``timing_dict()`` carries the wall
    clock.
    """

    #: candidate URs classified (including protective short-circuits)
    records: int = 0
    #: records answered by a protective-fingerprint match
    protective_matches: int = 0
    #: distinct (domain, rrtype, rdata) keys among the checked records
    distinct_keys: int = 0
    #: checked records answered by their key's one evaluation:
    #: checked records minus ``distinct_keys`` with the memo
    cache_hits: int = 0
    #: evaluations performed with the memo: ``distinct_keys``
    cache_misses: int = 0
    #: whether the memo was kept (deterministic sources)
    memoized: bool = False
    #: wall-clock seconds of the whole classification pass
    wall_s: float = 0.0
    #: wall-clock seconds attributed per matched Appendix-B condition
    #: (plus ``survived-exclusion`` for records no condition excluded)
    condition_s: Dict[str, float] = field(default_factory=dict)

    @property
    def dedup_factor(self) -> float:
        """Records per distinct key (1.0 = no sharing across servers)."""
        checked = self.records - self.protective_matches
        if not self.distinct_keys:
            return 1.0
        return checked / self.distinct_keys

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def records_per_s(self) -> float:
        return self.records / self.wall_s if self.wall_s > 0 else 0.0

    def attribute(self, condition: str, seconds: float) -> None:
        self.condition_s[condition] = (
            self.condition_s.get(condition, 0.0) + seconds
        )

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic counters only (see class docstring)."""
        return {
            "records": self.records,
            "protective_matches": self.protective_matches,
            "distinct_keys": self.distinct_keys,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "memoized": self.memoized,
            "dedup_factor": self.dedup_factor,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def timing_dict(self) -> Dict[str, Any]:
        """Wall-clock figures — never byte-compared."""
        return {
            "wall_s": self.wall_s,
            "records_per_s": self.records_per_s,
            "condition_s": dict(sorted(self.condition_s.items())),
        }

    def summary(self, indent: str = "") -> str:
        """Deterministic counters only — safe for byte-compared reports.

        Wall-clock figures live in :meth:`timing_dict` instead, so this
        text is byte-identical across live and resumed runs.
        """
        mode = "on" if self.memoized else "off"
        return "\n".join(
            [
                f"{indent}records: {self.records:,}  protective: "
                f"{self.protective_matches:,}  distinct keys: "
                f"{self.distinct_keys:,}  dedup: {self.dedup_factor:.2f}x",
                f"{indent}verdict cache: hits={self.cache_hits:,} "
                f"misses={self.cache_misses:,} "
                f"(rate {self.cache_hit_rate:.2f})  "
                f"memoization: {mode}",
            ]
        )


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


_SUSPICIOUS = tuple(
    category for category in URCategory if category.is_suspicious
)
_PROTECTIVE = (URCategory.PROTECTIVE, ("protective-fingerprint",))

#: the dedup identity of one UR row: its domain's Name-equality class
#: (the table row of the first domain equal to it), its rrtype and its
#: rdata's table index.  Every row sharing it receives the same
#: uniformity verdict (the nameserver is deliberately absent —
#: protective fingerprints are checked per server, before this key)
UrKey = Tuple[int, int, int]


class SuspicionFilter:
    """Applies the exclusion pipeline to collected URs.

    One pass labels the table's rows in order.  A protective-fingerprint
    match short-circuits a row; any other row needs a uniformity
    verdict.  With ``memoize=True`` and deterministic sources
    (``checker.memoizable``) the pass keeps a memo by :data:`UrKey`:
    each distinct key is checked once, at its first row, and every row
    of one key shares its reasons tuple.  Otherwise every row is checked
    on its own: when a data source is fault-injected, so a chaos run
    behaves exactly as it would without the memo, and with
    ``memoize=False``, the reference the tests hold the memo to.  Either
    way the pass fills the verdict columns of one
    :class:`~repro.core.records.URVerdicts`.

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
        metrics = Stage2Metrics(
            records=len(table),
            memoized=self.memoize and self.checker.memoizable,
        )
        started = time.perf_counter()
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
        memo: Optional[Dict[UrKey, Tuple]] = (
            {} if metrics.memoized else None
        )
        txt_categories: Dict[int, str] = {}
        for row, (domain, server, rrtype, rdata) in enumerate(
            zip(
                table.domain_index,
                table.server_index,
                table.rrtypes,
                table.rdata_index,
            )
        ):
            txt_category: Optional[str] = None
            if rrtype == RRType.TXT:
                txt_category = txt_categories.get(rdata)
                if txt_category is None:
                    txt_category = txt_categories[rdata] = classify_txt(
                        rdatas[rdata]
                    )
            fingerprint = fingerprints[server]
            if fingerprint is not None and fingerprint.matches(
                rrtype, rdatas[rdata]
            ):
                metrics.protective_matches += 1
                verdicts.append(*_PROTECTIVE, txt_category)
                continue
            key = (domain_keys[domain], rrtype, rdata)
            verdict = None if memo is None else memo.get(key)
            if verdict is None:
                checked = time.perf_counter()
                correctness = self.checker.check(table[row], now)
                metrics.attribute(
                    correctness.matched_condition or "survived-exclusion",
                    time.perf_counter() - checked,
                )
                verdict = self._from_verdict(correctness)
                if memo is not None:
                    memo[key] = verdict
            verdicts.append(*verdict, txt_category)
        if memo is not None:
            metrics.distinct_keys = metrics.cache_misses = len(memo)
            metrics.cache_hits = (
                metrics.records - metrics.protective_matches - len(memo)
            )
        metrics.wall_s = time.perf_counter() - started
        self.last_metrics = metrics
        return SuspicionOutcome(classified=verdicts)

    @staticmethod
    def _from_verdict(
        verdict: CorrectnessVerdict,
    ) -> Tuple[URCategory, Tuple[str, ...]]:
        """One verdict → a category and its reasons."""
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

"""Stage 2's observability block.

:class:`Stage2Metrics` mirrors the engine's
:class:`~repro.engine.metrics.ScanMetrics` idiom for stage 2: dedup
factor, verdict/auxiliary cache hit rates, throughput, and
per-condition timings.  ``summary()`` deliberately prints only the
deterministic counters — wall-clock figures would break the resume
byte-identity guarantee the pipeline tests enforce — the timing fields
ride in the dataclass (and the metrics document's timing section)
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict


@dataclass
class Stage2Metrics:
    """What stage 2 did: volume, dedup, caching, timing.

    Implements the :class:`repro.obs.metrics.MetricsSnapshot` protocol.
    The deterministic/timing split is load-bearing: ``to_dict()`` and
    ``summary()`` carry only counters that are byte-identical between a
    live and a resumed run, while ``timing_dict()`` and
    ``timing_summary()`` carry the wall clock and the store-cache
    counters.
    """

    #: MetricsSnapshot protocol identity
    name: ClassVar[str] = "stage2-exclusion"
    #: heading the unified renderer prints (legacy report text)
    heading: ClassVar[str] = "stage-2 exclusion metrics:"

    #: candidate URs classified (including protective short-circuits)
    records: int = 0
    #: records answered by a protective-fingerprint match
    protective_matches: int = 0
    #: distinct (domain, rrtype, rdata) keys among the checked records
    distinct_keys: int = 0
    #: verdicts served from the memo instead of re-evaluated
    cache_hits: int = 0
    #: distinct evaluations actually performed
    cache_misses: int = 0
    #: whether the memoized fast path was eligible (deterministic sources)
    memoized: bool = False
    #: wall-clock seconds of the whole classification pass
    wall_s: float = 0.0
    #: wall-clock seconds attributed per matched Appendix-B condition
    #: (plus ``survived-exclusion`` for records no condition excluded)
    condition_s: Dict[str, float] = field(default_factory=dict)
    #: auxiliary-store cache accounting, when the stores expose it
    pdns_cache_hits: int = 0
    pdns_cache_misses: int = 0
    ipinfo_cache_hits: int = 0
    ipinfo_cache_misses: int = 0

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

    def merge(self, other: "Stage2Metrics") -> None:
        """Fold another pass's counters into this one."""
        self.records += other.records
        self.protective_matches += other.protective_matches
        self.distinct_keys += other.distinct_keys
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        # a merged pass is memoized only if every constituent was
        self.memoized = self.memoized and other.memoized
        self.wall_s += other.wall_s
        for condition, seconds in other.condition_s.items():
            self.attribute(condition, seconds)
        self.pdns_cache_hits += other.pdns_cache_hits
        self.pdns_cache_misses += other.pdns_cache_misses
        self.ipinfo_cache_hits += other.ipinfo_cache_hits
        self.ipinfo_cache_misses += other.ipinfo_cache_misses

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
        """Wall-clock and store-cache counters — never byte-compared."""
        return {
            "wall_s": self.wall_s,
            "records_per_s": self.records_per_s,
            "condition_s": dict(sorted(self.condition_s.items())),
            "pdns_cache_hits": self.pdns_cache_hits,
            "pdns_cache_misses": self.pdns_cache_misses,
            "ipinfo_cache_hits": self.ipinfo_cache_hits,
            "ipinfo_cache_misses": self.ipinfo_cache_misses,
        }

    def summary(self, indent: str = "") -> str:
        """Deterministic counters only — safe for byte-compared reports.

        Wall-clock figures and the store-cache counters live in
        :meth:`timing_summary` instead, so this text is byte-identical
        across live and resumed runs.
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

    def timing_summary(self, indent: str = "") -> str:
        """Wall-clock and store-cache view — diagnostics only."""
        lines = [
            f"{indent}wall: {self.wall_s * 1000:.1f}ms  throughput: "
            f"{self.records_per_s:,.0f} records/s"
        ]
        aux_total = (
            self.pdns_cache_hits
            + self.pdns_cache_misses
            + self.ipinfo_cache_hits
            + self.ipinfo_cache_misses
        )
        if aux_total:
            lines.append(
                f"{indent}store caches: pdns {self.pdns_cache_hits:,}"
                f"/{self.pdns_cache_hits + self.pdns_cache_misses:,}  "
                f"ipinfo {self.ipinfo_cache_hits:,}"
                f"/{self.ipinfo_cache_hits + self.ipinfo_cache_misses:,}"
                " (hits/calls)"
            )
        for condition in sorted(self.condition_s):
            lines.append(
                f"{indent}  [{condition}] "
                f"{self.condition_s[condition] * 1000:.2f}ms"
            )
        return "\n".join(lines)

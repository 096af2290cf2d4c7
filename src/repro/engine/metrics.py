"""Scan observability: counters and latency distributions.

At the paper's scale (~17.8M queries), loss accounting *is* result
quality: a silent 2% giveup rate on one provider skews every per-provider
statistic downstream.  :class:`ScanMetrics` therefore tallies, per
stage-1 collection, everything the engine did — queries, responses,
timeouts, retries, giveups, circuit-breaker skips, pacing waits — plus a
histogram of per-query virtual latency and the run-level counters of
the resilience layer (hedges, AIMD, spurious retransmits, shed by
reason).  It is the one ledger an engine writes and a group hands back;
:class:`~repro.resilience.metrics.ResilienceMetrics` is a read-only
view of its resilience counters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

#: histogram bucket upper bounds in seconds (last bucket is +inf)
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram over virtual seconds.

    Percentiles are estimated at bucket upper bounds, which is exact
    enough for scan diagnostics and keeps memory constant regardless of
    query volume.
    """

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def record(self, seconds: float) -> None:
        self.total += 1
        self.sum += seconds
        self.counts[bisect_left(self.bounds, seconds)] += 1

    def percentile(self, pct: float) -> float:
        """The upper bound of the bucket holding the ``pct`` percentile.

        Percentiles are **bucket-upper-bound estimates**: the true value
        lies somewhere at or below the returned bound (a value exactly
        equal to a bound is counted in the bucket whose upper bound it
        is).  Edge semantics:

        * an empty histogram returns ``0.0`` for every ``pct``;
        * ``pct=0`` returns the bound of the smallest **non-empty**
          bucket (the minimum observation's bucket), never the bound of
          an empty leading bucket;
        * observations above the largest bound live in the overflow
          bucket, whose estimate is ``inf``.
        """
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self.total == 0:
            return 0.0
        threshold = pct / 100.0 * self.total
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            # ``running > 0`` keeps pct=0 (threshold 0) off empty
            # leading buckets: the answer is the first occupied bucket
            if running > 0 and running >= threshold:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum


@dataclass
class StageCounters:
    """Everything one stage-1 collection did on the wire."""

    #: attempts actually sent (retries included)
    queries: int = 0
    #: attempts that came back with a response (any rcode)
    responses: int = 0
    #: attempts that timed out
    timeouts: int = 0
    #: re-sends after a timeout
    retries: int = 0
    #: tasks abandoned after exhausting the retry budget
    giveups: int = 0
    #: tasks never sent because the server's circuit was open
    skipped: int = 0
    #: tasks never sent because a deadline budget shed them
    shed: int = 0
    #: virtual seconds spent honoring the per-server pacing interval
    rate_limit_wait: float = 0.0

    def merge(self, other: "StageCounters") -> None:
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: the run-level resilience counters of :class:`ScanMetrics` — summed by
#: a merge, kept by a result-store slot
RUN_COUNTERS = (
    "hedges_fired",
    "hedges_won",
    "hedges_wasted",
    "aimd_cuts",
    "aimd_wait",
    "spurious_retransmits",
)


@dataclass
class ScanMetrics:
    """Per-stage counters, a global latency histogram and the
    resilience counters.

    ``to_dict()`` exposes only deterministic counters (latency is over
    *virtual* seconds, so it is deterministic too) and ``summary()``
    renders the block the byte-compared report embeds; neither shows
    the resilience counters, which the report renders through
    :class:`~repro.resilience.metrics.ResilienceMetrics`.
    """

    stages: Dict[str, StageCounters] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    hedges_fired: int = field(default=0, init=False)
    hedges_won: int = field(default=0, init=False)
    hedges_wasted: int = field(default=0, init=False)
    aimd_cuts: int = field(default=0, init=False)
    #: virtual seconds AIMD held a send back beyond the pacing gap
    aimd_wait: float = field(default=0.0, init=False)
    #: answered attempts whose round trip outlasted the timer they
    #: were sent under — a real scanner would have re-sent
    spurious_retransmits: int = field(default=0, init=False)
    #: tasks a deadline shed, keyed ``shed:<reason>``
    shed_by_reason: Dict[str, int] = field(default_factory=dict, init=False)

    def stage(self, name: str) -> StageCounters:
        counters = self.stages.get(name)
        if counters is None:
            counters = self.stages[name] = StageCounters()
        return counters

    # -- totals -----------------------------------------------------------

    def _total(self, attribute: str) -> float:
        return sum(
            getattr(counters, attribute) for counters in self.stages.values()
        )

    @property
    def queries(self) -> int:
        return int(self._total("queries"))

    @property
    def responses(self) -> int:
        return int(self._total("responses"))

    @property
    def timeouts(self) -> int:
        return int(self._total("timeouts"))

    @property
    def retries(self) -> int:
        return int(self._total("retries"))

    @property
    def giveups(self) -> int:
        return int(self._total("giveups"))

    @property
    def skipped(self) -> int:
        return int(self._total("skipped"))

    @property
    def shed(self) -> int:
        return int(self._total("shed"))

    @property
    def loss_rate(self) -> float:
        """Fraction of sent attempts that timed out."""
        return self.timeouts / self.queries if self.queries else 0.0

    def note_shed(self, reason: str) -> None:
        key = f"shed:{reason}"
        self.shed_by_reason[key] = self.shed_by_reason.get(key, 0) + 1

    def merge(self, other: "ScanMetrics") -> None:
        for name, counters in other.stages.items():
            self.stage(name).merge(counters)
        self.latency.merge(other.latency)
        for name in RUN_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, count in other.shed_by_reason.items():
            self.shed_by_reason[key] = self.shed_by_reason.get(key, 0) + count

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic counters for the consolidated metrics document.

        Latency percentiles are bucket-upper-bound estimates (see
        :meth:`LatencyHistogram.percentile`); the overflow bucket's
        ``inf`` estimate serializes as ``None``.
        """
        def _finite(value: float) -> Optional[float]:
            return None if value == float("inf") else value

        return {
            "queries": self.queries,
            "responses": self.responses,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "giveups": self.giveups,
            "skipped": self.skipped,
            "shed": self.shed,
            "loss_rate": self.loss_rate,
            "stages": {
                name: asdict(counters)
                for name, counters in sorted(self.stages.items())
            },
            "latency": {
                "total": self.latency.total,
                "mean": self.latency.mean,
                "p50": _finite(self.latency.percentile(50)),
                "p90": _finite(self.latency.percentile(90)),
                "p99": _finite(self.latency.percentile(99)),
                "estimate": "bucket-upper-bound",
            },
        }

    # -- presentation ------------------------------------------------------

    def summary(self, indent: str = "") -> str:
        """Multi-line human-readable scan accounting."""
        lines = [
            f"{indent}queries: {self.queries:,}  responses: "
            f"{self.responses:,}  timeouts: {self.timeouts:,}",
            f"{indent}retries: {self.retries:,}  giveups: "
            f"{self.giveups:,}  circuit-skips: {self.skipped:,}",
        ]
        # shed only renders when nonzero so healthy-run report text is
        # unchanged from pre-resilience output
        if self.shed:
            lines.append(f"{indent}shed: {self.shed:,}")
        if self.latency.total:
            lines.append(
                f"{indent}latency p50/p90/p99: "
                f"{_fmt_s(self.latency.percentile(50))}/"
                f"{_fmt_s(self.latency.percentile(90))}/"
                f"{_fmt_s(self.latency.percentile(99))}"
                f"  mean: {_fmt_s(self.latency.mean)}"
            )
        for name in sorted(self.stages):
            counters = self.stages[name]
            lines.append(
                f"{indent}  [{name}] q={counters.queries:,} "
                f"r={counters.responses:,} t={counters.timeouts:,} "
                f"retry={counters.retries:,} giveup={counters.giveups:,} "
                f"skip={counters.skipped:,}"
                + (f" shed={counters.shed:,}" if counters.shed else "")
            )
        return "\n".join(lines)


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds == float("inf"):
        return "inf"
    if seconds < 1.0:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds:.2f}s"

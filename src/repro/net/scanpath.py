"""Scan-path fast-lane counters.

The fast lane (compiled zone answers, wire-codec memoization) is a pure
re-expression of the naive query path:
reports, traces, and deterministic metrics are byte-identical with the
lane on or off.  Its *effectiveness*, however, legitimately varies with
the cache settings — hit counts differ between a fast and a naive run
by construction — so these counters live exclusively in the ``timing``
section of the metrics document and are never registered on the
byte-compared report surface.

:class:`ScanPathMetrics` has ``to_dict`` and ``merge``; the live
instance hangs off
:class:`~repro.net.network.SimulatedInternet` and is incremented by the
wire codec, the authoritative servers and the transport (one
``flows_recorded`` per row written into an open tap); ``flows_skipped``
is derived at snapshot time.
"""

from __future__ import annotations

from typing import Any, Dict

_COUNTERS = (
    "compiled_hits",
    "compiled_misses",
    "query_hits",
    "query_misses",
    "encode_hits",
    "encode_misses",
    "flows_recorded",
    "flows_skipped",
)


class ScanPathMetrics:
    """Hit/miss counters of the scan-path fast lane.

    * ``compiled_*`` — prebuilt authoritative answers served from the
      per-server compiled cache vs. built from a zone lookup;
    * ``query_*`` — query-side encode→decode round trips served from
      the wire codec's structural cache;
    * ``encode_*`` — response encodes served from the structural
      id-agnostic answer cache (a hit is the wire and its decode);
    * ``flows_*`` — flows written into a capture a reader opened
      (``SimulatedInternet.capturing``) vs. the rest of the DNS
      transactions and TCP connects, which are only counted.
    """

    __slots__ = _COUNTERS

    def __init__(self) -> None:
        for counter in _COUNTERS:
            setattr(self, counter, 0)

    @classmethod
    def from_network(cls, network: Any) -> "ScanPathMetrics":
        """Snapshot the live counters of a simulated internet.

        Duck-typed so the CLI can hand in anything network-shaped; a
        network without a fast lane yields an all-zero snapshot.
        """
        snapshot = cls()
        live = getattr(network, "scanpath", None)
        if live is not None:
            snapshot.merge(live)
        stats = getattr(network, "stats", None)
        if stats is not None:
            observed = stats["dns_queries"] + stats["tcp_connects"]
            snapshot.flows_skipped = observed - snapshot.flows_recorded
        return snapshot

    def to_dict(self) -> Dict[str, Any]:
        return {counter: getattr(self, counter) for counter in _COUNTERS}

    def merge(self, other: Any) -> None:
        for counter in _COUNTERS:
            setattr(
                self,
                counter,
                getattr(self, counter) + getattr(other, counter, 0),
            )

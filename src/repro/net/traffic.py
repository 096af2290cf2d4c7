"""Network flow records and capture logs.

The malware sandbox and the IDS both consume :class:`FlowRecord` streams;
a :class:`TrafficCapture` is the pcap-equivalent the paper's sandbox
pipeline analyzes ("all network traffic generated by each malware was
collected and analyzed").

A capture holds what a reader asked to see: the network writes flows
only into the capture named by an open
:meth:`~repro.net.network.SimulatedInternet.capturing` tap, and only
counts the rest (DESIGN §13).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Collection, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)  # fmt: skip


class Protocol(enum.Enum):
    """Transport / application protocol of a flow."""

    DNS = "dns"
    TCP = "tcp"
    HTTP = "http"
    HTTPS = "https"
    SMTP = "smtp"
    UDP = "udp"


DNS_PORT = 53


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One captured flow (or DNS transaction).

    ``metadata`` carries protocol-specific detail: DNS flows record
    ``qname``/``qtype`` and, when a response came back,
    ``rcode``/``answers``; SMTP flows record ``commands``; HTTP flows
    record ``host``/``path``.
    """

    timestamp: float
    src: str
    dst: str
    protocol: Protocol
    dst_port: int
    payload_size: int = 0
    success: bool = True
    metadata: Dict[str, object] = field(default_factory=dict, hash=False)

    def describe(self) -> str:
        extra = ""
        if self.protocol is Protocol.DNS:
            extra = f" qname={self.metadata.get('qname')}"
        return (
            f"[{self.timestamp:10.3f}] {self.src} -> {self.dst}:"
            f"{self.dst_port} {self.protocol.value}{extra}"
        )


class TrafficCapture:
    """An append-only list of flows with simple query helpers.

    Flows are stored as given: a record's ``metadata`` dict is the
    caller's own, shared by every reader of the row.
    """

    def __init__(self) -> None:
        self._flows: List[FlowRecord] = []

    def record(self, flow: FlowRecord) -> None:
        self._flows.append(flow)

    def extend(self, flows: Iterable[FlowRecord]) -> None:
        self._flows.extend(flows)

    def clear(self) -> None:
        self._flows.clear()

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._flows)

    @property
    def flows(self) -> List[FlowRecord]:
        return list(self._flows)

    def filter(
        self,
        protocol: Optional[Protocol] = None,
        dst: Union[str, Collection[str], None] = None,
    ) -> List[FlowRecord]:
        """Flows matching every supplied criterion; ``dst`` is one
        address or a collection of them."""
        if isinstance(dst, str):
            dst = (dst,)
        return [
            flow
            for flow in self._flows
            if (protocol is None or flow.protocol is protocol)
            and (dst is None or flow.dst in dst)
        ]

    def destinations(self) -> List[str]:
        """Distinct destination IPs of every flow, in first-seen order."""
        return list(dict.fromkeys(flow.dst for flow in self._flows))

    def dns_questions(self) -> Iterator[Tuple[str, str]]:
        """``(dst, qname text)`` of every DNS flow, in order."""
        for flow in self._flows:
            if flow.protocol is Protocol.DNS:
                yield flow.dst, str(flow.metadata.get("qname"))

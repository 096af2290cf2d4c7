"""The pre-columnar eager capture, kept as a test-only oracle.

Before the columnar log, every transaction built a frozen
:class:`FlowRecord` with a fresh metadata dict, a fresh ``str(qname)``
and a fresh answers list, and the capture appended it to a Python list.
:class:`EagerCapture` still does exactly that *beside* the columns, from
the decoded response itself rather than from the memoised summary, so
the views a columnar capture materialises can be compared field for
field with what the old store would have held.
"""

from typing import List, Optional

from repro.dns.message import Message, Rcode
from repro.net.network import SimulatedInternet
from repro.net.traffic import DNS_PORT, FlowRecord, Protocol, TrafficCapture


class EagerCapture(TrafficCapture):
    """A columnar capture that also keeps the eager ``FlowRecord`` list."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.eager: List[FlowRecord] = []
        #: the decoded response of the transaction being recorded
        self.decoded: Optional[Message] = None

    def record_dns(
        self, timestamp, src, dst, qname, qtype, payload_size=0, summary=None
    ):
        super().record_dns(
            timestamp, src, dst, qname, qtype, payload_size, summary
        )
        metadata = {
            "qname": None if qname is None else str(qname),
            "qtype": qtype,
        }
        if summary is not None:
            decoded = self.decoded
            metadata = {
                **metadata,
                "rcode": Rcode.to_text(decoded.header.rcode),
                "answers": [
                    record.rdata.to_text() for record in decoded.answers
                ],
            }
        self.eager.append(
            FlowRecord(
                timestamp=timestamp,
                src=src,
                dst=dst,
                protocol=Protocol.DNS,
                dst_port=DNS_PORT,
                payload_size=payload_size,
                success=summary is not None,
                metadata=metadata,
            )
        )

    def record_fields(
        self, timestamp, src, dst, protocol, dst_port,
        payload_size=0, success=True, metadata=None,
    ):  # fmt: skip
        super().record_fields(
            timestamp, src, dst, protocol, dst_port,
            payload_size, success, metadata,
        )  # fmt: skip
        self.eager.append(
            FlowRecord(
                timestamp=timestamp,
                src=src,
                dst=dst,
                protocol=protocol,
                dst_port=dst_port,
                payload_size=payload_size,
                success=success,
                metadata={} if metadata is None else metadata,
            )
        )

    def clear(self) -> None:
        super().clear()
        self.eager.clear()


def install_eager_oracle(network: SimulatedInternet) -> EagerCapture:
    """Swap ``network``'s capture for an :class:`EagerCapture` (same
    mode and interval, empty) and hand it the decoded response of every
    transaction the network summarises."""
    capture = EagerCapture(
        network.capture.mode, network.capture.sample_interval
    )
    network.capture = capture
    summarise = network._flow_summary

    def spying(wire, decoded):
        capture.decoded = decoded
        return summarise(wire, decoded)

    network._flow_summary = spying
    return capture

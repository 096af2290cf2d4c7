"""Tests for repro.net.traffic."""

from repro.net.traffic import FlowRecord, Protocol, TrafficCapture


def _flow(dst="10.0.0.1", protocol=Protocol.TCP, src="10.9.9.9", ts=1.0):
    return FlowRecord(
        timestamp=ts,
        src=src,
        dst=dst,
        protocol=protocol,
        dst_port=80,
    )


class TestFlowRecord:
    def test_describe_contains_endpoints(self):
        text = _flow().describe()
        assert "10.9.9.9" in text and "10.0.0.1" in text

    def test_describe_dns_includes_qname(self):
        flow = FlowRecord(
            timestamp=0.0,
            src="a",
            dst="b",
            protocol=Protocol.DNS,
            dst_port=53,
            metadata={"qname": "example.com"},
        )
        assert "example.com" in flow.describe()

    def test_default_success(self):
        assert _flow().success


class TestTrafficCapture:
    def test_record_and_len(self):
        capture = TrafficCapture()
        capture.record(_flow())
        assert len(capture) == 1

    def test_iteration_order(self):
        capture = TrafficCapture()
        first, second = _flow(ts=1.0), _flow(ts=2.0)
        capture.record(first)
        capture.record(second)
        assert list(capture) == [first, second]

    def test_filter_by_protocol(self):
        capture = TrafficCapture()
        capture.record(_flow(protocol=Protocol.TCP))
        capture.record(_flow(protocol=Protocol.SMTP))
        assert len(capture.filter(protocol=Protocol.SMTP)) == 1

    def test_filter_by_endpoints(self):
        capture = TrafficCapture()
        capture.record(_flow(dst="1.1.1.1"))
        capture.record(_flow(dst="2.2.2.2"))
        assert len(capture.filter(dst="1.1.1.1")) == 1
        assert len(capture.filter(src="10.9.9.9")) == 2

    def test_filter_by_predicate(self):
        capture = TrafficCapture()
        capture.record(_flow(ts=1.0))
        capture.record(_flow(ts=5.0))
        late = capture.filter(predicate=lambda flow: flow.timestamp > 2)
        assert len(late) == 1

    def test_destinations_deduped_in_order(self):
        capture = TrafficCapture()
        capture.record(_flow(dst="1.1.1.1"))
        capture.record(_flow(dst="2.2.2.2"))
        capture.record(_flow(dst="1.1.1.1"))
        assert capture.destinations() == ["1.1.1.1", "2.2.2.2"]

    def test_destinations_filtered_by_protocol(self):
        capture = TrafficCapture()
        capture.record(_flow(dst="1.1.1.1", protocol=Protocol.DNS))
        capture.record(_flow(dst="2.2.2.2", protocol=Protocol.TCP))
        assert capture.destinations(Protocol.DNS) == ["1.1.1.1"]

    def test_dns_lookups(self):
        capture = TrafficCapture()
        capture.record(
            FlowRecord(
                1.0, "10.9.9.9", "10.0.0.1", Protocol.DNS, 53,
                metadata={"qname": "example.com"},
            )  # fmt: skip
        )
        capture.record(_flow(protocol=Protocol.TCP))
        assert list(capture.dns_questions()) == [("10.0.0.1", "example.com")]

    def test_extend_and_clear(self):
        capture = TrafficCapture()
        capture.extend([_flow(), _flow()])
        assert len(capture) == 2
        capture.clear()
        assert len(capture) == 0

    def test_flows_returns_copy(self):
        capture = TrafficCapture()
        capture.record(_flow())
        snapshot = capture.flows
        snapshot.append(_flow())
        assert len(capture) == 1

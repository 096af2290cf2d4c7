"""Tests for repro.net.network: transport, clock, failure injection."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.name import name
from repro.dns.rdata import A, RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.net.network import NetworkError, SimulatedInternet
from repro.net.traffic import Protocol, TrafficCapture


@pytest.fixture
def network():
    return SimulatedInternet()


@pytest.fixture
def network_with_server(network):
    server = AuthoritativeServer("ns1.test.net")
    zone = zone_from_records("test.net", [("test.net", "A", "192.0.2.1")])
    server.load_zone(zone)
    network.register_dns_host("10.0.0.1", server)
    return network, server


class TestClock:
    def test_starts_at_zero(self, network):
        assert network.now == 0.0

    def test_tick_advances(self, network):
        network.tick(5.0)
        assert network.now == 5.0

    def test_negative_tick_rejected(self, network):
        with pytest.raises(ValueError):
            network.tick(-1)

    def test_queries_charge_latency(self, network_with_server):
        network, _ = network_with_server
        before = network.now
        network.query_dns(
            "10.9.9.9", "10.0.0.1", Message.make_query("test.net", RRType.A)
        )
        assert network.now > before


class TestDnsTransport:
    def test_query_response(self, network_with_server):
        network, _ = network_with_server
        response = network.query_dns(
            "10.9.9.9", "10.0.0.1", Message.make_query("test.net", RRType.A)
        )
        assert response.answers[0].rdata == A("192.0.2.1")

    def test_unknown_host_raises(self, network):
        with pytest.raises(NetworkError):
            network.query_dns(
                "10.9.9.9",
                "10.255.255.1",
                Message.make_query("x.net", RRType.A),
            )

    def test_offline_host_raises(self, network_with_server):
        network, _ = network_with_server
        network.set_online("10.0.0.1", False)
        with pytest.raises(NetworkError):
            network.query_dns(
                "10.9.9.9",
                "10.0.0.1",
                Message.make_query("test.net", RRType.A),
            )

    def test_host_can_come_back(self, network_with_server):
        network, _ = network_with_server
        network.set_online("10.0.0.1", False)
        network.set_online("10.0.0.1", True)
        response = network.query_dns(
            "10.9.9.9", "10.0.0.1", Message.make_query("test.net", RRType.A)
        )
        assert response.header.rcode == Rcode.NOERROR

    def test_set_online_unknown_host(self, network):
        with pytest.raises(NetworkError):
            network.set_online("1.2.3.4", True)

    def test_stats_counted(self, network_with_server):
        network, _ = network_with_server
        network.query_dns(
            "10.9.9.9", "10.0.0.1", Message.make_query("test.net", RRType.A)
        )
        try:
            network.query_dns(
                "10.9.9.9", "10.0.0.2", Message.make_query("x.net", RRType.A)
            )
        except NetworkError:
            pass
        assert network.stats["dns_queries"] == 2
        assert network.stats["dns_timeouts"] == 1

    def test_flows_captured_with_metadata(self, network_with_server):
        network, _ = network_with_server
        with network.capturing(TrafficCapture()) as capture:
            network.query_dns(
                "10.9.9.9",
                "10.0.0.1",
                Message.make_query("test.net", RRType.A),
            )
        flows = capture.flows
        assert len(flows) == 1
        assert flows[0].metadata["qname"] == "test.net"
        assert flows[0].metadata["rcode"] == "NOERROR"
        assert flows[0].metadata["answers"] == ["192.0.2.1"]

    def test_failed_flow_marked_unsuccessful(self, network):
        network.register_stub("10.0.0.9")
        with network.capturing(TrafficCapture()) as capture:
            with pytest.raises(NetworkError):
                network.query_dns(
                    "10.9.9.9",
                    "10.0.0.9",
                    Message.make_query("x.net", RRType.A),
                )
        assert not capture.flows[-1].success

    def test_registry_introspection(self, network_with_server):
        network, server = network_with_server
        assert network.knows("10.0.0.1")
        assert network.is_online("10.0.0.1")
        assert not network.knows("10.0.0.99")
        assert network.dns_hosts() == {"10.0.0.1": server}


class TestQueryMessage:
    """``query_message`` keeps one message per (qname as spelled, qtype,
    rd)."""

    def test_an_equal_question_gets_the_same_message(self, network):
        first = network.query_message(name("test.net"), RRType.A, False)
        again = network.query_message(name("test.net."), RRType.A, False)
        assert again is first
        assert first.question.qname == name("test.net")
        assert first.question.qtype == RRType.A
        assert not first.header.recursion_desired

    def test_a_respelled_question_goes_out_as_spelled(self, network):
        first = network.query_message(name("ex.com"), RRType.A, False)
        respelled = network.query_message(name("Ex.COM"), RRType.A, False)
        assert respelled is not first
        assert respelled.question.qname.labels == ("Ex", "COM")
        assert first.question.qname.labels == ("ex", "com")
        again = network.query_message(name("Ex.COM"), RRType.A, False)
        assert again is respelled

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param(("other.net", RRType.A, False), id="qname"),
            pytest.param(("test.net", RRType.NS, False), id="qtype"),
            pytest.param(("test.net", RRType.A, True), id="rd"),
        ],
    )
    def test_each_part_of_the_question_keys_its_message(
        self, network, other
    ):
        qname, qtype, recursion_desired = other
        base = network.query_message(name("test.net"), RRType.A, False)
        query = network.query_message(name(qname), qtype, recursion_desired)
        assert query is not base
        assert query.question.qname == name(qname)
        assert query.question.qtype == qtype
        assert query.header.recursion_desired is recursion_desired
        again = network.query_message(name(qname), qtype, recursion_desired)
        assert again is query

    def test_a_resent_message_is_answered_each_time(
        self, network_with_server
    ):
        network, _ = network_with_server
        query = network.query_message(name("test.net"), RRType.A, False)
        for _ in range(2):
            response = network.query_dns("10.9.9.9", "10.0.0.1", query)
            assert response.header.message_id == query.header.message_id
            assert response.answers[0].rdata == A("192.0.2.1")
        assert network.stats["dns_queries"] == 2

    def test_each_network_builds_its_own_messages(self, network):
        other = SimulatedInternet()
        mine = network.query_message(name("test.net"), RRType.A, True)
        theirs = other.query_message(name("test.net"), RRType.A, True)
        assert theirs is not mine
        assert theirs.question == mine.question


class _Echo:
    def handle_tcp_connect(self, src_ip, dst_port, payload, network):
        return b"echo:" + payload


class TestTcpTransport:
    def test_connect_success(self, network):
        network.register_tcp_host("10.1.1.1", _Echo())
        result = network.connect_tcp("10.9.9.9", "10.1.1.1", 80, b"hello")
        assert result == b"echo:hello"

    def test_connect_to_nothing_returns_none(self, network):
        assert network.connect_tcp("10.9.9.9", "10.8.8.8", 80, b"x") is None
        assert network.stats["tcp_failures"] == 1

    def test_failed_connect_still_captured(self, network):
        with network.capturing(TrafficCapture()) as capture:
            network.connect_tcp("10.9.9.9", "10.8.8.8", 80, b"x")
        flow = capture.flows[-1]
        assert flow.dst == "10.8.8.8"
        assert not flow.success

    def test_payload_excerpt_in_metadata(self, network):
        network.register_tcp_host("10.1.1.1", _Echo())
        with network.capturing(TrafficCapture()) as capture:
            network.connect_tcp("10.9.9.9", "10.1.1.1", 80, b"A" * 500)
        flow = capture.flows[-1]
        assert flow.metadata["payload"] == b"A" * 256
        assert flow.payload_size == 500

    def test_tcp_metadata_is_the_payload_excerpt(self, network):
        network.register_tcp_host("10.1.1.1", _Echo())
        with network.capturing(TrafficCapture()) as capture:
            network.connect_tcp("10.9.9.9", "10.1.1.1", 80, b"x")
        assert capture.flows[-1].metadata == {"payload": b"x"}

    def test_protocol_tagging(self, network):
        network.register_tcp_host("10.1.1.1", _Echo())
        with network.capturing(TrafficCapture()) as capture:
            network.connect_tcp(
                "10.9.9.9", "10.1.1.1", 25, b"EHLO", protocol=Protocol.SMTP
            )
        assert capture.flows[-1].protocol is Protocol.SMTP


def _fault_query():
    return Message.make_query(
        "test.net", RRType.A, recursion_desired=False
    )


class TestFaultProfileValidation:
    def test_negative_window_rejected(self):
        from repro.net.network import FaultProfile

        with pytest.raises(ValueError):
            FaultProfile(start=-1.0)
        with pytest.raises(ValueError):
            FaultProfile(loss_rate=0.5, duration=-1.0)

    def test_window_activity(self):
        from repro.net.network import FaultProfile

        profile = FaultProfile(loss_rate=1.0, start=100.0, duration=50.0)
        assert not profile.active_at(99.0)
        assert profile.active_at(100.0)
        assert profile.active_at(149.0)
        assert not profile.active_at(150.0)
        open_ended = FaultProfile(loss_rate=1.0, start=100.0)
        assert open_ended.active_at(1e9)


class TestFaultWindows:
    def test_window_only_bites_inside_its_span(self, network_with_server):
        from repro.net.network import FaultProfile, NetworkError

        network, _ = network_with_server
        network.add_fault_window(
            "10.0.0.1",
            FaultProfile(loss_rate=1.0, start=10.0, duration=20.0),
        )
        # before the window: clean
        assert network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())
        network.tick(10.0)
        with pytest.raises(NetworkError):
            network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())
        network.tick(25.0)
        # after the window: clean again
        assert network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())

    def test_windows_stack_on_one_address(self, network_with_server):
        from repro.net.network import FaultProfile, NetworkError

        network, _ = network_with_server
        network.add_fault_window(
            "10.0.0.1", FaultProfile(loss_rate=1.0, duration=5.0)
        )
        network.add_fault_window(
            "10.0.0.1",
            FaultProfile(loss_rate=1.0, start=5.0, duration=5.0),
        )
        with pytest.raises(NetworkError):
            network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())
        network.tick(6.0)
        with pytest.raises(NetworkError):
            network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())
        network.tick(6.0)
        assert network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())

    def test_seed_faults_is_deterministic(self, network_with_server):
        from repro.net.network import FaultProfile, NetworkError

        def drops(seed):
            net, _ = (
                lambda: (SimulatedInternet(), None)
            )()
            server = AuthoritativeServer("ns1.test.net")
            server.load_zone(
                zone_from_records(
                    "test.net", [("test.net", "A", "192.0.2.1")]
                )
            )
            net.register_dns_host("10.0.0.1", server)
            net.add_fault_window(
                "10.0.0.1", FaultProfile(loss_rate=0.5)
            )
            net.seed_faults(seed)
            outcomes = []
            for _ in range(20):
                try:
                    net.query_dns("10.9.9.9", "10.0.0.1", _fault_query())
                    outcomes.append(True)
                except NetworkError:
                    outcomes.append(False)
            return outcomes

        assert drops(3) == drops(3)
        assert drops(3) != drops(4)

    def test_clear_faults_drops_windows(self, network_with_server):
        from repro.net.network import FaultProfile

        network, _ = network_with_server
        network.add_fault_window(
            "10.0.0.1", FaultProfile(loss_rate=1.0)
        )
        network.clear_faults()
        assert network.query_dns("10.9.9.9", "10.0.0.1", _fault_query())

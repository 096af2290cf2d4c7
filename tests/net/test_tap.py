"""Flows are recorded for whoever opened a tap; the rest are counted.

``SimulatedInternet.capturing(capture)`` names the one capture that
receives every flow observed while the block runs.  The sandbox opens
it around each of the victim's operations; the scanner never does, so
its packets only move the ``stats`` counters.  The per-family digests
below were taken at the parent commit, where flows went into one
always-on columnar log and the sandbox copied out the rows between two
position markers: equal digests are the proof that the list-backed
capture and the tap are row-identical to that.
"""

import dataclasses
import hashlib
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import URHunter
from repro.dns.message import Message
from repro.dns.rdata import RRType
from repro.net.network import NetworkError
from repro.net.scanpath import ScanPathMetrics
from repro.net.traffic import FlowRecord, Protocol, TrafficCapture
from repro.sandbox.families import (
    UrTarget,
    make_generic_badtraffic,
    make_generic_c2,
    make_generic_exfil,
    make_generic_scanner,
    make_generic_trojan,
)
from repro.sandbox.sandbox import Sandbox
from repro.scenario import ScenarioConfig, build_world, small_config

# -- detonations, pinned to the parent's rows ------------------------------

#: family -> (runs, flows, alerts, sha256[:16] of every row and alert),
#: seed 7, the world's own detonations plus one of each generic family
PARENT_DETONATIONS = {
    "small": {
        "AgentTesla": (4, 8, 8, "14ef3464fab61b65"),
        "BenignUpdater": (2, 12, 2, "a29d610e6e2f0137"),
        "Dark.IoT": (3, 11, 14, "cdbd40c64a194257"),
        "GenericBot": (1, 3, 4, "563345777f38771d"),
        "GenericBroken": (1, 2, 1, "cb5fdac893018d40"),
        "GenericScanner": (1, 12, 12, "7eba21277ecb3c2a"),
        "GenericStealer": (1, 2, 1, "cad723f57bf420ac"),
        "GenericTrojan": (2, 4, 2, "63f47270cc305b8f"),
        "Micropsia": (2, 4, 2, "096bab73d0e46445"),
        "Specter": (3, 9, 12, "5c4b263f173f7f34"),
    },
    "default": {
        "AgentTesla": (4, 8, 8, "3c0cfee64a3393b6"),
        "BenignUpdater": (6, 33, 6, "0f51976ad3acb9b8"),
        "Dark.IoT": (3, 11, 14, "07e22c819b0c24d5"),
        "GenericBot": (2, 6, 8, "ca4cf22c18a55d70"),
        "GenericBroken": (1, 2, 1, "34e2ff3fd8b68f62"),
        "GenericScanner": (2, 24, 24, "cc68245150e911b6"),
        "GenericStealer": (2, 4, 2, "115e0057332a101c"),
        "GenericTrojan": (3, 6, 3, "a5418763a4e64d6e"),
        "Micropsia": (2, 4, 2, "f222b8de0c99495e"),
        "Specter": (3, 9, 12, "3b4b0fe6421134da"),
    },
}


def detonate_generic_families(world):
    """One sample of each generic family — a small world does not draw
    them all — on a fresh sandbox at the world's victim address."""
    built = world.sandbox
    target = UrTarget(
        "ibm.com", world.case_studies["Specter"].nameserver_ips()
    )
    sandbox = Sandbox(
        world.network,
        victim_ip=built.victim_ip,
        default_resolver_ip=built.default_resolver_ip,
    )
    return sandbox.run_all(
        [
            make_generic_trojan(900, target),
            make_generic_scanner(901, target),
            make_generic_exfil(902, target),
            make_generic_c2(903, target),
            make_generic_badtraffic(904, target),
        ]
    )


def report_rows(report):
    """Everything a detonation recorded, field for field — key order
    of the metadata and the answers' list type included."""
    flows = [dataclasses.astuple(flow) for flow in report.capture.flows]
    alerts = [
        (
            alert.sid,
            alert.message,
            alert.category,
            alert.severity.name,
            dataclasses.astuple(alert.flow),
        )
        for alert in report.alerts
    ]
    return report.sample.sample_id, flows, alerts


def detonation_digests(reports):
    by_family = {}
    for report in reports:
        by_family.setdefault(report.sample.family, []).append(
            report_rows(report)
        )
    return {
        family: (
            len(runs),
            sum(len(flows) for _, flows, _ in runs),
            sum(len(alerts) for _, _, alerts in runs),
            hashlib.sha256(repr(runs).encode()).hexdigest()[:16],
        )
        for family, runs in by_family.items()
    }


@pytest.mark.parametrize(
    "scale, config",
    [("small", small_config(seed=7)), ("default", ScenarioConfig(seed=7))],
    ids=["small", "default"],
)
def test_every_familys_detonation_equals_the_parents(scale, config):
    world = build_world(config)
    reports = world.sandbox_reports + detonate_generic_families(world)
    assert detonation_digests(reports) == PARENT_DETONATIONS[scale]


def test_detonation_views_equal_the_eager_list():
    world = build_world(small_config(seed=7))
    reports = world.sandbox_reports + detonate_generic_families(world)
    assert {report.sample.family for report in reports} == set(
        PARENT_DETONATIONS["small"]
    )
    for report in reports:
        flows = list(report.capture)
        assert flows == report.capture.flows
        assert report.contacted_ips() == {
            flow.dst for flow in flows if flow.protocol is not Protocol.DNS
        }
        lookups = [flow for flow in flows if flow.protocol is Protocol.DNS]
        assert report.dns_queries() == [
            str(flow.metadata.get("qname")) for flow in lookups
        ]
        assert report.queried_nameservers() == {flow.dst for flow in lookups}
    every_flow = [flow for report in reports for flow in report.capture]
    failures = [flow for flow in every_flow if not flow.success]
    assert failures, "no failure row exercised"
    assert all(
        flow.payload_size == 0
        for flow in failures
        if flow.protocol is Protocol.DNS
    )
    assert any(flow.protocol is not Protocol.DNS for flow in every_flow)


# -- the tap -----------------------------------------------------------------


@pytest.fixture
def network(big_zone_network):
    """One authoritative server; its TXT RRset overflows a UDP answer."""
    return big_zone_network


def _ask(network, dst="10.0.0.1", qtype=RRType.A):
    query = Message.make_query("big.example", qtype, recursion_desired=False)
    return network.query_dns_auto("10.9.9.9", dst, query)


def test_no_tap_no_rows(network):
    _ask(network)
    network.connect_tcp("10.9.9.9", "10.0.0.1", 80, b"x")
    snapshot = ScanPathMetrics.from_network(network)
    assert (snapshot.flows_recorded, snapshot.flows_skipped) == (0, 2)


def test_tap_is_restored_when_the_body_raises(network):
    outer = TrafficCapture()
    with network.capturing(outer):
        with pytest.raises(NetworkError):
            with network.capturing(TrafficCapture()) as inner:
                _ask(network, dst="10.0.0.99")
        assert len(inner) == 1
        _ask(network)
    assert len(outer) == 1
    _ask(network)
    assert len(outer) == 1


def test_inner_tap_hands_back_to_the_outer(network):
    with network.capturing(TrafficCapture()) as outer:
        _ask(network)
        with network.capturing(TrafficCapture()) as inner:
            _ask(network)
            network.connect_tcp("10.9.9.9", "10.0.0.1", 80, b"x")
        _ask(network)
    assert [flow.protocol for flow in inner] == [Protocol.DNS, Protocol.TCP]
    assert [flow.timestamp for flow in outer] == [
        pytest.approx(0.01),
        pytest.approx(0.04),
    ]
    snapshot = ScanPathMetrics.from_network(network)
    assert (snapshot.flows_recorded, snapshot.flows_skipped) == (4, 0)


def test_failed_dns_row_has_no_response_keys(network):
    with network.capturing(TrafficCapture()) as capture:
        with pytest.raises(NetworkError):
            _ask(network, dst="10.0.0.99", qtype=RRType.TXT)
        with pytest.raises(NetworkError):
            network.query_dns("10.9.9.9", "10.0.0.99", Message())
    first, second = capture
    assert first == FlowRecord(
        timestamp=0.01,
        src="10.9.9.9",
        dst="10.0.0.99",
        protocol=Protocol.DNS,
        dst_port=53,
        payload_size=0,
        success=False,
        metadata={"qname": "big.example", "qtype": 16},
    )
    assert second.metadata == {"qname": None, "qtype": None}


def test_truncated_answer_leaves_its_udp_and_its_tcp_leg(network):
    with network.capturing(TrafficCapture()) as capture:
        response = _ask(network, qtype=RRType.TXT)
    assert len(response.answers) == 6
    udp, tcp = capture
    assert udp.success and udp.metadata["answers"] == []
    assert udp.payload_size <= 512 < tcp.payload_size
    assert list(tcp.metadata) == ["qname", "qtype", "rcode", "answers"]
    assert len(tcp.metadata["answers"]) == 6
    assert type(tcp.metadata["answers"]) is list


def test_record_keeps_the_callers_metadata_dict():
    capture = TrafficCapture()
    metadata = {"payload": b"x"}
    capture.record(
        FlowRecord(0.0, "a", "b", Protocol.TCP, 80, metadata=metadata)
    )
    assert next(iter(capture)).metadata is metadata


def test_a_dict_subclass_is_still_the_callers_metadata():
    metadata = OrderedDict(qname="x.example")
    capture = TrafficCapture()
    capture.record(
        FlowRecord(0.0, "a", "b", Protocol.DNS, 53, metadata=metadata)
    )
    assert capture.flows[0].metadata is metadata
    assert list(capture.dns_questions()) == [("b", "x.example")]


# -- random operation sequences against a list model ----------------------

_ADDRESSES = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"])
_flow = st.builds(
    FlowRecord,
    timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    src=_ADDRESSES,
    dst=_ADDRESSES,
    protocol=st.sampled_from(list(Protocol)),
    dst_port=st.integers(0, 65535),
    payload_size=st.integers(0, 2**32 - 1),
    success=st.booleans(),
    metadata=st.dictionaries(
        st.sampled_from(["qname", "payload"]), st.integers(), max_size=2
    ),
)
_operation = st.one_of(
    st.tuples(st.just("record"), _flow),
    st.tuples(st.just("extend"), st.lists(_flow, max_size=3)),
    st.tuples(st.just("clear"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, max_size=25))
def test_random_operations_match_a_list_model(operations):
    capture = TrafficCapture()
    model = []
    for kind, argument in operations:
        if kind == "record":
            capture.record(argument)
            model.append(argument)
        elif kind == "extend":
            capture.extend(argument)
            model.extend(argument)
        else:
            capture.clear()
            model.clear()
        assert list(capture) == capture.flows == model
        assert len(capture) == len(model)
    assert capture.destinations() == list(
        dict.fromkeys(flow.dst for flow in model)
    )
    assert capture.destinations(exclude=Protocol.DNS) == list(
        dict.fromkeys(
            flow.dst for flow in model if flow.protocol is not Protocol.DNS
        )
    )
    lookups = [flow for flow in model if flow.protocol is Protocol.DNS]
    assert capture.filter(protocol=Protocol.DNS, src="10.0.0.1") == [
        flow for flow in lookups if flow.src == "10.0.0.1"
    ]
    assert capture.filter(dst={"10.0.0.1", "10.0.0.2"}) == [
        flow for flow in model if flow.dst != "10.0.0.3"
    ]
    assert list(capture.dns_questions()) == [
        (flow.dst, str(flow.metadata.get("qname"))) for flow in lookups
    ]


# -- the ledger ----------------------------------------------------------


def test_a_scan_stores_no_row_and_the_ledger_balances():
    world = build_world(small_config(seed=7))
    network = world.network
    sandbox_rows = sum(len(report.capture) for report in world.sandbox_reports)
    for _ in range(2):
        URHunter.from_world(world).run()
        assert network._tap is None
        ledger = ScanPathMetrics.from_network(network).to_dict()
        assert ledger["flows_recorded"] == sandbox_rows
        assert ledger["flows_recorded"] + ledger["flows_skipped"] == (
            network.stats["dns_queries"] + network.stats["tcp_connects"]
        )
    assert ledger["flows_skipped"] > 30_000

"""The columnar flow log against the eager list it replaced.

``tests/net/oracle.py`` keeps the pre-columnar construction (one frozen
``FlowRecord`` + metadata dict per transaction, appended to a list).
Everything a reader can get out of a columnar capture must equal what
that list would have given: field for field, in order, under every
capture mode.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HunterConfig, URHunter
from repro.dns.name import name
from repro.net.traffic import (
    CaptureMode,
    FlowRecord,
    Protocol,
    TrafficCapture,
)
from repro.sandbox.families import (
    UrTarget,
    make_generic_badtraffic,
    make_generic_c2,
    make_generic_exfil,
    make_generic_scanner,
    make_generic_trojan,
)
from repro.sandbox.sandbox import Sandbox
from repro.scenario import build_world, small_config

from .oracle import install_eager_oracle

MODES = [
    pytest.param(CaptureMode.FULL, 100, id="full"),
    pytest.param(CaptureMode.SAMPLED, 7, id="sampled-7"),
    pytest.param(CaptureMode.OFF, 100, id="off"),
]

ALL_FAMILIES = {
    "Dark.IoT",
    "Specter",
    "Micropsia",
    "AgentTesla",
    "GenericTrojan",
    "GenericScanner",
    "GenericStealer",
    "GenericBot",
    "GenericBroken",
    "BenignUpdater",
}


def assert_same_flows(views, eager):
    """Field-for-field equality, including what ``==`` would let slide:
    metadata key order and the answers' list type."""
    views = list(views)
    assert len(views) == len(eager)
    for view, flow in zip(views, eager):
        assert dataclasses.astuple(view) == dataclasses.astuple(flow)
        assert type(view.timestamp) is float
        assert type(view.success) is bool
        assert list(view.metadata) == list(flow.metadata)
        if "answers" in flow.metadata:
            assert type(view.metadata["answers"]) is list


def assert_counts_agree(capture, eager):
    assert len(capture) == capture.count() == len(eager)
    assert bool(capture) == bool(eager)
    for protocol in Protocol:
        assert capture.count(protocol) == sum(
            flow.protocol is protocol for flow in eager
        )


@pytest.mark.parametrize("mode, interval", MODES)
def test_small_scan_views_equal_the_eager_list(mode, interval):
    world = build_world(small_config(seed=7))
    hunter = URHunter.from_world(
        world, HunterConfig(capture_mode=mode.value)
    )
    world.network.capture.sample_interval = interval
    capture = install_eager_oracle(world.network)
    exchanges = world.network.stats["dns_queries"]
    marker = len(capture)
    hunter.collector.collect_protective_records(hunter.plan)
    midway = len(capture)
    hunter.stage1_collect()
    exchanges = world.network.stats["dns_queries"] - exchanges

    eager = capture.eager
    assert_same_flows(capture, eager)
    assert_same_flows(capture.flows, eager)
    assert_same_flows(capture.since(marker), eager[marker:])
    assert_same_flows(capture.since(midway), eager[midway:])
    assert_counts_agree(capture, eager)
    # one admit per exchange: stored + skipped is everything observed
    assert len(capture) + capture.skipped() == exchanges
    assert capture.skipped(Protocol.DNS) == capture.skipped()
    if mode is CaptureMode.FULL:
        assert capture.skipped() == 0 and len(capture) == exchanges
    elif mode is CaptureMode.OFF:
        assert len(capture) == 0
    else:
        # roughly one in ``interval`` (a recursion's upstream flows are
        # admitted before the flow that caused them is stored)
        assert exchanges // interval <= len(capture) < exchanges // 2
    assert_same_flows(
        capture.dns_lookups(),
        [flow for flow in eager if flow.protocol is Protocol.DNS],
    )


def _samples_of_every_family(world):
    """The world's own samples plus the generic families its small
    scale did not happen to draw."""
    samples = list(world.samples)
    specter = world.case_studies["Specter"]
    target = UrTarget("ibm.com", specter.nameserver_ips())
    samples += [
        make_generic_trojan(900, target),
        make_generic_scanner(901, target),
        make_generic_exfil(902, target),
        make_generic_c2(903, target),
        make_generic_badtraffic(904, target),
    ]
    assert {sample.family for sample in samples} == ALL_FAMILIES
    return samples


@pytest.mark.parametrize("mode, interval", MODES)
def test_detonation_views_equal_the_eager_list(mode, interval):
    world = build_world(small_config(seed=7))
    world.network.capture.mode = mode
    world.network.capture.sample_interval = interval
    capture = install_eager_oracle(world.network)
    sandbox = Sandbox(
        world.network,
        victim_ip="198.18.50.10",
        default_resolver_ip=world.open_resolver_ips[0],
    )
    for sample in _samples_of_every_family(world):
        marker = len(capture)
        report = sandbox.run(sample)
        adopted = capture.eager[marker:]
        # the sandbox copies the rows the run added, nothing else
        assert_same_flows(report.capture, adopted)
        assert_counts_agree(report.capture, adopted)
        assert report.contacted_ips() == {
            flow.dst for flow in adopted if flow.protocol is not Protocol.DNS
        }
        lookups = [flow for flow in adopted if flow.protocol is Protocol.DNS]
        assert report.dns_queries() == [
            str(flow.metadata.get("qname")) for flow in lookups
        ]
        assert report.queried_nameservers() == {flow.dst for flow in lookups}
    assert_same_flows(capture, capture.eager)
    if mode is CaptureMode.FULL:
        failures = [flow for flow in capture.eager if not flow.success]
        assert failures, "no failure row exercised"
        assert all(
            flow.payload_size == 0
            for flow in failures
            if flow.protocol is Protocol.DNS
        )
        assert any(
            flow.protocol is not Protocol.DNS for flow in capture.eager
        )


def test_failed_dns_row_has_no_response_keys():
    capture = TrafficCapture()
    capture.record_dns(1.5, "10.0.0.1", "10.0.0.2", name("a.example"), 16)
    capture.record_dns(2.5, "10.0.0.1", "10.0.0.2", None, None)
    first, second = capture
    assert first == FlowRecord(
        timestamp=1.5,
        src="10.0.0.1",
        dst="10.0.0.2",
        protocol=Protocol.DNS,
        dst_port=53,
        payload_size=0,
        success=False,
        metadata={"qname": "a.example", "qtype": 16},
    )
    assert second.metadata == {"qname": None, "qtype": None}


def test_record_keeps_the_callers_metadata_dict():
    capture = TrafficCapture()
    metadata = {"payload": b"x"}
    capture.record(
        FlowRecord(0.0, "a", "b", Protocol.TCP, 80, metadata=metadata)
    )
    assert next(iter(capture)).metadata is metadata


def test_filter_prefilters_on_columns(monkeypatch):
    capture = TrafficCapture()
    for index in range(10):
        capture.record_dns(
            float(index), "s", f"10.0.0.{index % 3}", name("a.example"), 1
        )
    capture.record_fields(11.0, "s", "10.0.0.1", Protocol.TCP, 80)
    built = []
    view = TrafficCapture._view
    monkeypatch.setattr(
        TrafficCapture,
        "_view",
        lambda self, index: built.append(index) or view(self, index),
    )
    hits = capture.filter(protocol=Protocol.DNS, dst="10.0.0.1")
    assert [flow.timestamp for flow in hits] == [1.0, 4.0, 7.0]
    assert built == [1, 4, 7]
    assert len(capture.filter(dst={"10.0.0.1", "10.0.0.2"})) == 7
    del built[:]
    assert capture.destinations(Protocol.TCP) == ["10.0.0.1"]
    assert capture.destinations(exclude=Protocol.TCP) == [
        "10.0.0.0",
        "10.0.0.1",
        "10.0.0.2",
    ]
    assert list(capture.dns_questions())[:2] == [
        ("10.0.0.0", "a.example"),
        ("10.0.0.1", "a.example"),
    ]
    assert built == []


# -- random operation sequences against a list model ----------------------

_ADDRESSES = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"])
_NAMES = st.sampled_from([name("a.example"), name("B.example"), None])
_SUMMARIES = st.sampled_from(
    [None, ("NOERROR", ("192.0.2.1",)), ("REFUSED", ()), ("NOERROR", ("a", "b"))]
)
_TIMES = st.floats(min_value=0, max_value=1e9, allow_nan=False)

_flow = st.builds(
    FlowRecord,
    timestamp=_TIMES,
    src=_ADDRESSES,
    dst=_ADDRESSES,
    protocol=st.sampled_from(list(Protocol)),
    dst_port=st.integers(0, 65535),
    payload_size=st.integers(0, 2**32 - 1),
    success=st.booleans(),
    metadata=st.dictionaries(st.sampled_from("abc"), st.integers(), max_size=2),
)
_dns = st.tuples(
    _TIMES,
    _ADDRESSES,
    _ADDRESSES,
    _NAMES,
    st.sampled_from([1, 16, 255, None]),
    st.integers(0, 65535),
    _SUMMARIES,
)
_operation = st.one_of(
    st.tuples(st.just("record"), _flow),
    st.tuples(st.just("record_dns"), _dns),
    st.tuples(st.just("extend"), st.lists(_flow, max_size=3)),
    st.tuples(st.just("extend_from"), st.integers(0, 6)),
    st.tuples(st.just("clear"), st.none()),
)


def _dns_model(timestamp, src, dst, qname, qtype, size, summary):
    metadata = {
        "qname": None if qname is None else str(qname),
        "qtype": qtype,
    }
    if summary is not None:
        metadata["rcode"] = summary[0]
        metadata["answers"] = list(summary[1])
    return FlowRecord(
        timestamp, src, dst, Protocol.DNS, 53, size, summary is not None,
        metadata,
    )  # fmt: skip


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, max_size=25))
def test_random_operations_match_a_list_model(operations):
    capture = TrafficCapture()
    model = []
    for kind, argument in operations:
        if kind == "record":
            capture.record(argument)
            model.append(argument)
        elif kind == "record_dns":
            capture.record_dns(*argument)
            model.append(_dns_model(*argument))
        elif kind == "extend":
            capture.extend(argument)
            model.extend(argument)
        elif kind == "extend_from":
            # adopt our own tail into a second capture and back again
            marker = min(argument, len(capture))
            other = TrafficCapture()
            other.extend_from(capture, marker)
            assert_same_flows(other, model[marker:])
            assert_counts_agree(other, model[marker:])
            capture.extend_from(other)
            model.extend(model[marker:])
        else:
            capture.clear()
            model.clear()
        assert_same_flows(capture, model)
        assert_counts_agree(capture, model)
    for marker in (0, len(model) // 2, len(model)):
        assert_same_flows(capture.since(marker), model[marker:])
    assert capture.destinations() == list(
        dict.fromkeys(flow.dst for flow in model)
    )
    assert_same_flows(
        capture.filter(protocol=Protocol.DNS, src="10.0.0.1"),
        [
            flow
            for flow in model
            if flow.protocol is Protocol.DNS and flow.src == "10.0.0.1"
        ],
    )
    assert capture.skipped() == 0


# -- memory ceilings -------------------------------------------------------

#: bytes a stored DNS flow may retain (the eager list kept ~486)
FLOW_BYTES_CEILING = 80
#: tracemalloc peak of the small-scale stage 1 (seed 7, 17,430 flows,
#: capture full) with the columnar log, the streamed folds and the
#: index-only engine lanes, plus 15 %; the eager flow list + outcome
#: list peaked at 21.57 MiB, the task list + tuple lanes at 8.96 MiB
STAGE1_PEAK_CEILING = 7.70 * 1.15 * 2**20


def test_stored_dns_flow_stays_under_the_byte_ceiling():
    flows = 50_000
    names = [name(f"domain{index}.example") for index in range(200)]
    servers = [f"10.1.{index // 250}.{index % 250}" for index in range(500)]
    summaries = [("NOERROR", (f"192.0.2.{index}",)) for index in range(100)]
    capture = TrafficCapture()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(flows):
            capture.record_dns(
                index * 0.01,
                "203.0.113.53",
                servers[index % 500],
                names[index % 200],
                1 + 15 * (index % 2),
                60 + index % 40,
                summaries[index % 100],
            )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(capture) == flows
    assert retained / flows <= FLOW_BYTES_CEILING


def test_small_scale_stage1_peak_stays_under_its_ceiling():
    world = build_world(small_config(seed=7))
    hunter = URHunter.from_world(world, HunterConfig(capture_mode="full"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        hunter.stage1_collect()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert world.network.capture.skipped() == 0
    assert peak <= STAGE1_PEAK_CEILING


def test_a_value_a_column_cannot_hold_leaves_no_torn_row():
    capture = TrafficCapture()
    capture.record_fields(0.0, "a", "b", Protocol.TCP, 80)
    for bad in (
        dict(dst_port=70_000),
        dict(dst_port=None),
        dict(dst_port=80, payload_size=-1),
    ):
        with pytest.raises((TypeError, OverflowError)):
            capture.record_fields(1.0, "a", "b", Protocol.TCP, **bad)
    with pytest.raises(TypeError):
        capture.record_dns(1.0, "a", "b", None, "A")
    assert len(capture) == capture.count(Protocol.TCP) == 1
    assert {len(column) for column in capture._columns} == {1}
    capture.record_fields(2.0, "a", "c", Protocol.TCP, 81)
    assert [flow.dst for flow in capture] == ["b", "c"]


def test_a_dict_subclass_is_still_the_callers_metadata():
    from collections import OrderedDict

    metadata = OrderedDict(qname="x.example")
    capture = TrafficCapture()
    capture.record(
        FlowRecord(0.0, "a", "b", Protocol.DNS, 53, metadata=metadata)
    )
    assert capture.flows[0].metadata is metadata
    assert list(capture.dns_questions()) == [("b", "x.example")]

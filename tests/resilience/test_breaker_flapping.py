"""Circuit breaker vs flapping hosts: half-open probes must re-trip,
and the behaviour must be identical in batch and stream execution."""

import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy, QueryTask
from repro.engine.breaker import CircuitState
from repro.obs import RunTrace
from repro.scenario import build_world, small_config

from .conftest import NS_LIVE, SCANNER


def _task(qtype=RRType.A):
    return QueryTask(
        server_ip=NS_LIVE,
        qname=name("example.test"),
        qtype=qtype,
        stage="ur",
    )


def _trip_events(trace, server=None):
    events = [
        json.loads(line)
        for line in trace.deterministic_lines()
        if json.loads(line).get("event") == "breaker.trip"
    ]
    if server is not None:
        events = [event for event in events if event["server"] == server]
    return events


class TestHalfOpenRetrip:
    def test_failed_probe_trips_again(self, make_network):
        network = make_network()
        # a flapping host: up for the first second, then down for ages —
        # by the time we query it, it is in its long dead phase
        network.set_server_faults(NS_LIVE, flap_up=1.0, flap_down=1e6)
        network.tick(2.0)
        engine = BatchedEngine(
            network,
            SCANNER,
            EnginePolicy(circuit_failure_threshold=3, retries=2),
        )
        trace = RunTrace()
        engine.trace = trace
        # 3 attempts on one task reach the threshold: first trip
        engine.execute([_task()])
        assert engine.circuit_state(NS_LIVE) is CircuitState.OPEN
        assert len(_trip_events(trace, NS_LIVE)) == 1
        # past the reset interval the breaker half-opens; the probe
        # lands in the same dead phase and must RE-trip, not linger
        network.tick(61.0)
        engine.execute([_task(RRType.TXT)])
        assert engine.circuit_state(NS_LIVE) is CircuitState.OPEN
        assert len(_trip_events(trace, NS_LIVE)) == 2

    def test_probe_in_up_phase_closes_circuit(self, make_network):
        network = make_network()
        # dead phase first, then a recovery window right when the
        # half-open probe fires
        network.set_server_faults(NS_LIVE, flap_up=30.0, flap_down=40.0)
        network.tick(30.0)  # into the dead phase
        engine = BatchedEngine(
            network,
            SCANNER,
            EnginePolicy(circuit_failure_threshold=3, retries=2),
        )
        trace = RunTrace()
        engine.trace = trace
        engine.execute([_task()])
        assert engine.circuit_state(NS_LIVE) is CircuitState.OPEN
        # clock ~46s: the next up phase spans [70, 100); the breaker
        # half-opens after 60s of open time, inside that up window
        network.tick(70.0 - (network.now % 70.0) + 75.0)
        engine.execute([_task(RRType.TXT)])
        assert engine.circuit_state(NS_LIVE) is CircuitState.CLOSED
        assert len(_trip_events(trace, NS_LIVE)) == 1


class TestBatchStreamParity:
    """A flapping nameserver mid-scan: both execution modes must trip
    the same breakers at the same points and stay byte-identical."""

    @pytest.fixture(scope="class")
    def traces(self):
        lines = {}
        for execution in ("batch", "stream"):
            world = build_world(small_config(seed=7))
            flapper = world.nameserver_targets[0].address
            # the UR phase starts 2.69 sim-s in (0.05 protective + 2.64
            # correct) and the flapper's own 94-query group lasts 0.94:
            # it goes down for good a third of the way through it
            world.network.set_server_faults(
                flapper, flap_up=3.0, flap_down=1e6
            )
            hunter = URHunter.from_world(
                world, HunterConfig(execution=execution)
            )
            trace = RunTrace()
            hunter.attach_trace(trace)
            hunter.run()
            lines[execution] = (flapper, trace.deterministic_lines())
        return lines

    def test_flapping_host_trips_in_both_modes(self, traces):
        for execution, (flapper, lines) in traces.items():
            trips = [
                json.loads(line)
                for line in lines
                if json.loads(line).get("event") == "breaker.trip"
                and json.loads(line).get("server") == flapper
            ]
            assert trips, f"{execution}: no breaker.trip for {flapper}"

    def test_modes_byte_identical_under_flap(self, traces):
        assert traces["batch"][1] == traces["stream"][1]

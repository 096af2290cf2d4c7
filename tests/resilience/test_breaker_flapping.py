"""Circuit breaker vs flapping hosts: half-open probes must re-trip,
and the behaviour must be identical in every replay.  A host's down
phase is a ``loss_rate=1.0`` fault window."""

import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy
from repro.engine.breaker import CircuitBreaker, CircuitState
from repro.net.network import FaultProfile
from repro.obs import RunTrace
from repro.scenario import build_world, small_config

from ..conftest import drive, query
from .conftest import NS_LIVE, SCANNER


def _trips(engine):
    return [
        fields
        for event, _, fields in engine.events
        if event == "breaker.trip"
    ]


def _down(network, start, duration=0.0):
    """Take ``NS_LIVE`` down from ``start`` for ``duration`` virtual
    seconds (0: for good)."""
    network.add_fault_window(
        NS_LIVE, FaultProfile(loss_rate=1.0, start=start, duration=duration)
    )


class TestHalfOpenRetrip:
    def test_failed_probe_trips_again(self, make_network):
        network = make_network()
        # up for the first second, then down for good — by the time we
        # query it, it is in its dead phase
        _down(network, start=1.0)
        network.tick(2.0)
        engine = BatchedEngine(
            network, SCANNER, NS_LIVE, "ur", EnginePolicy(retries=2)
        )
        engine.breaker = CircuitBreaker(failure_threshold=3)
        # 3 attempts on one task reach the threshold: first trip
        drive(engine, [query()])
        assert engine.breaker.state(NS_LIVE) is CircuitState.OPEN
        assert len(_trips(engine)) == 1
        # past the reset interval the breaker half-opens; the probe
        # lands in the same dead phase and must RE-trip, not linger
        network.tick(61.0)
        drive(engine, [query(RRType.TXT)])
        assert engine.breaker.state(NS_LIVE) is CircuitState.OPEN
        assert len(_trips(engine)) == 2

    def test_probe_in_up_phase_closes_circuit(self, make_network):
        network = make_network()
        # a dead phase over [30, 70), then up again when the half-open
        # probe fires
        _down(network, start=30.0, duration=40.0)
        network.tick(30.0)  # into the dead phase
        engine = BatchedEngine(
            network, SCANNER, NS_LIVE, "ur", EnginePolicy(retries=2)
        )
        engine.breaker = CircuitBreaker(failure_threshold=3)
        drive(engine, [query()])
        assert engine.breaker.state(NS_LIVE) is CircuitState.OPEN
        # clock ~46 s: the breaker half-opens after 60 s of open time,
        # by when the host is back up
        network.tick(75.0)
        drive(engine, [query(RRType.TXT)])
        assert engine.breaker.state(NS_LIVE) is CircuitState.CLOSED
        assert len(_trips(engine)) == 1


class TestBatchStreamParity:
    """A flapping nameserver mid-scan trips its breaker at the same
    points whichever ``execution`` setting the run carries — the
    setting is accepted and dropped, so the two runs are two replays of
    one path — and the trace stays byte-identical."""

    @pytest.fixture(scope="class")
    def traces(self):
        lines = {}
        for execution in ("batch", "stream"):
            world = build_world(small_config(seed=7))
            flapper = world.nameserver_targets[0].address
            # down for good from the run's start: its protective probe
            # gives up, and its UR group trips the breaker
            world.network.add_fault_window(
                flapper, FaultProfile(loss_rate=1.0, start=world.network.now)
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

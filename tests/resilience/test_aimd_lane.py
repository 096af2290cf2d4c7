"""AIMD on the lane it paces: a property over generated loss patterns,
and the storm decomposition the resilience gate rests on.

The engine is one stop-and-wait lane per server, so AIMD may only ever
*space* that lane's sends — by the lane's own healthy interval divided
by the credit it holds — and must never change what is sent or how a
task ends.  A timeout is paid once: by the timeout park or the hedge
delay, not a second time by AIMD.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HunterConfig, URHunter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy, QueryTask
from repro.net.network import SimulatedInternet
from repro.resilience import AimdController, HedgeController
from repro.resilience.aimd import _CREDIT_FLOOR
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

from .conftest import NS_LIVE, SCANNER

#: slack for float re-association in the clock's running sum
EPS = 1e-9


class _ScriptedLoss:
    """A nameserver that drops the sends its script says to drop — by
    send number, not by time, so two runs that wait differently still
    lose the same sends — and logs when each send arrived."""

    def __init__(self, losses):
        self._losses = list(losses)
        self.arrivals = []

    def handle_dns_query(self, query, src_ip, network, query_key=None):
        send = len(self.arrivals)
        self.arrivals.append(network.now)
        lost = send < len(self._losses) and self._losses[send]
        return None if lost else query.make_response()


class _LoggedAimd(AimdController):
    """Logs what the rule was asked and what it answered."""

    def __init__(self):
        super().__init__()
        #: (wait imposed, interval passed) of every ``ready_at`` call
        self.waits = []
        #: (credit held, interval passed) when each send was cleared
        self.cleared = []
        self._asked = None

    def ready_at(self, server_ip, now, interval):
        ready = super().ready_at(server_ip, now, interval)
        self._asked = (self.credit(server_ip), interval)
        self.waits.append((ready - now, interval))
        return ready

    def note_send(self, server_ip, now):
        self.cleared.append(self._asked)
        super().note_send(server_ip, now)


def _lane(losses, tasks, hedged, interval, aimd):
    network = SimulatedInternet()
    server = _ScriptedLoss(losses)
    network.register_dns_host(NS_LIVE, server)
    network.register_stub(SCANNER)
    engine = BatchedEngine(
        network,
        SCANNER,
        # the breaker re-opens on the clock, which AIMD moves: keep it
        # out of a property about what AIMD alone may change
        EnginePolicy(
            per_server_interval=interval,
            retries=2,
            circuit_failure_threshold=10**6,
        ),
    )
    if hedged:
        engine.hedge = HedgeController(base_delay=0.25, timeout=5.0)
    engine.aimd = aimd
    outcomes = engine.execute(
        [
            QueryTask(NS_LIVE, name("example.test"), RRType.A)
            for _ in range(tasks)
        ]
    )
    return engine, server, [(o.status, o.attempts) for o in outcomes]


@settings(max_examples=60, deadline=None)
@given(
    losses=st.lists(st.booleans(), max_size=40),
    tasks=st.integers(min_value=1, max_value=12),
    hedged=st.booleans(),
    interval=st.sampled_from([0.0, 0.3, 2.0]),
)
def test_aimd_only_spaces_the_lane(losses, tasks, hedged, interval):
    _, bare_server, bare = _lane(losses, tasks, hedged, interval, None)
    aimd = _LoggedAimd()
    engine, server, paced = _lane(losses, tasks, hedged, interval, aimd)

    # same sends, same ends: AIMD moves the clock and nothing else
    assert paced == bare
    assert len(server.arrivals) == len(bare_server.arrivals)
    assert len(aimd.cleared) == len(server.arrivals)

    gaps = [
        later - earlier
        for earlier, later in zip(server.arrivals, server.arrivals[1:])
    ]
    for gap, (credit, healthy) in zip(gaps, aimd.cleared[1:]):
        # the token bucket is never bypassed ...
        assert gap >= interval - EPS
        # ... and below full credit the rate is divided by the credit
        if credit < 1.0:
            assert gap >= healthy / credit - EPS

    round_trip = engine.network.latency
    for wait, healthy in aimd.waits:
        # what the lane does when healthy: its pacing, or (unpaced) the
        # round trips it has seen answered -- zero before the first
        assert healthy >= interval
        if interval == 0.0:
            assert healthy <= round_trip + EPS
            # one wait is at most sixteen round trips: never the size
            # of a timeout, nor of the hedge delay it is composed with
            assert wait <= healthy / _CREDIT_FLOOR + EPS
    if interval == 0.0:
        assert engine.resilience.aimd_wait == pytest.approx(
            sum(wait for wait, _ in aimd.waits)
        )
    if not any(losses[: len(server.arrivals)]):
        assert engine.resilience.aimd_wait == 0.0


STORM_SEED = 7


def _storm_run(**knobs):
    world = build_world(small_config(seed=STORM_SEED))
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    apply_scenario(load_scenario("tail-latency-storm"), world, hunter)
    start = world.network.now
    report = hunter.run()
    metrics = hunter.engine.metrics
    return (
        world.network.now - start,
        (
            len(report.classified),
            metrics.queries,
            metrics.timeouts,
            metrics.giveups,
        ),
    )


def test_storm_decomposition_aimd_never_costs_a_second_timeout():
    """`benchmarks/test_bench_resilience.py`'s scenario, all four
    variants: AIMD may add round trips, not timeout-sized parks, to the
    lane the hedge just shortened (it read 346.1 against hedge alone's
    212.9, and 516.6 against bare 449.2, while its wait was a fraction
    of the timeout)."""
    bare_s, bare = _storm_run()
    hedge_s, hedge = _storm_run(hedge_delay=0.25)
    aimd_s, aimd = _storm_run(aimd=True)
    both_s, both = _storm_run(hedge_delay=0.25, aimd=True)
    # the same sends and the same dice in all four
    assert bare == hedge == aimd == both == (663, 11837, 5007, 584)
    assert both_s <= 1.05 * hedge_s
    assert aimd_s <= 1.05 * bare_s

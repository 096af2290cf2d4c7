"""AIMD on the lane it paces: a property over generated loss patterns,
and the storm decomposition the resilience gate rests on.

Each engine is one server's stop-and-wait lane, so AIMD may only ever
*space* that lane's sends — by the lane's own healthy interval divided
by the credit it holds — and must never change what is sent or how a
task ends.  A timeout is paid once: by the timeout park or the hedge
delay, not a second time by AIMD.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HunterConfig, URHunter
from repro.engine import OutcomeStatus
from repro.engine.latency import CLOCK_GRANULARITY
from repro.resilience import AimdController
from repro.resilience.aimd import _CREDIT_FLOOR
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

from .conftest import run_lane

#: slack for float re-association in the clock's running sum
EPS = 1e-9
#: the lane's configured hedge delay; its timeout is the policy default
HEDGE_DELAY = 0.25
TIMEOUT = 5.0


class _LoggedAimd(AimdController):
    """Logs what the rule was asked and what it answered."""

    def __init__(self):
        super().__init__()
        #: (wait imposed, interval passed) of every ``ready_at`` call
        self.waits = []
        #: (credit held, interval passed) when each send was cleared
        self.cleared = []
        self._asked = None

    def ready_at(self, now, interval):
        ready = super().ready_at(now, interval)
        self._asked = (self.credit, interval)
        self.waits.append((ready - now, interval))
        return ready

    def note_send(self, now):
        self.cleared.append(self._asked)
        super().note_send(now)


def _lane(losses, tasks, hedged, interval, aimd):
    engine, server, outcomes = run_lane(
        losses,
        tasks=tasks,
        hedge_delay=HEDGE_DELAY if hedged else 0.0,
        interval=interval,
        aimd=aimd,
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
        assert engine.metrics.aimd_wait == pytest.approx(
            sum(wait for wait, _ in aimd.waits)
        )
    if not any(losses[: len(server.arrivals)]):
        assert engine.metrics.aimd_wait == 0.0


@settings(max_examples=100, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.booleans(),
            st.one_of(
                st.floats(min_value=0.0, max_value=0.2),
                st.floats(min_value=0.0, max_value=8.0),
            ),
        ),
        max_size=40,
    ),
    tasks=st.integers(min_value=1, max_value=12),
)
def test_retry_timer_follows_the_round_trip_estimator(script, tasks):
    """Every wait after a lost send is the one timer: at least what an
    answer inside ``SRTT + 4 RTTVAR`` needs (under its configured
    ceiling), never past the timeout, doubling across a task's
    expiries, and the configured values while nothing was measured."""
    losses = [lost for lost, _ in script]
    delays = [delay for _, delay in script]
    engine, server, outcomes = run_lane(
        losses, delays, tasks, hedge_delay=HEDGE_DELAY
    )
    base = engine.network.latency
    arrivals = server.arrivals
    # RFC 6298 over the answered round trips, kept beside the engine's
    srtt = rttvar = None
    certain = possible = 0
    send = 0
    for outcome in outcomes:
        previous = 0.0
        for attempt in range(1, outcome.attempts + 1):
            ceiling = HEDGE_DELAY if attempt == 1 else TIMEOUT
            if srtt is None:
                expected = ceiling
            else:
                rto = srtt + max(CLOCK_GRANULARITY, 4 * rttvar)
                expected = min(ceiling, rto * 2 ** max(attempt - 2, 0))
            answered = (
                attempt == outcome.attempts
                and outcome.status is OutcomeStatus.ANSWERED
            )
            if answered:
                sample = base + (delays[send] if send < len(delays) else 0.0)
                certain += sample > expected + EPS
                possible += sample > expected - EPS
                if srtt is None:
                    srtt, rttvar = sample, sample / 2
                else:
                    rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
                    srtt = 0.875 * srtt + 0.125 * sample
            else:
                # a lost send is known lost on arrival; the next send
                # (or the give-up) comes one timer later
                if attempt < outcome.attempts:
                    timer = arrivals[send + 1] - base - arrivals[send]
                else:
                    timer = outcome.completed_at - arrivals[send]
                assert timer == pytest.approx(expected)
                assert timer <= ceiling + EPS
                assert timer >= previous - EPS
                if srtt is not None:
                    # an answer due inside SRTT + 4 RTTVAR is waited for
                    assert timer >= min(ceiling, srtt + 4 * rttvar) - EPS
                previous = timer
            send += 1
    assert send == len(arrivals)
    assert certain <= engine.metrics.spurious_retransmits <= possible
    if not any(delays[: len(arrivals)]):
        # pure loss: a steady server never outruns its own timer
        assert engine.metrics.spurious_retransmits == 0


STORM_SEED = 7


def _storm_run(**knobs):
    world = build_world(small_config(seed=STORM_SEED))
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    apply_scenario(load_scenario("tail-latency-storm"), world, hunter)
    start = world.network.now
    report = hunter.run()
    metrics = hunter.collector.metrics
    return (
        world.network.now - start,
        (
            len(report.classified),
            metrics.queries,
            metrics.timeouts,
            metrics.giveups,
        ),
        hunter.resilience,
    )


@pytest.fixture(scope="module")
def storm():
    """`benchmarks/test_bench_resilience.py`'s scenario, all four
    variants, as ``(virtual seconds, counts, resilience metrics)``."""
    return {
        "bare": _storm_run(),
        "hedge": _storm_run(hedge_delay=HEDGE_DELAY),
        "aimd": _storm_run(aimd=True),
        "both": _storm_run(hedge_delay=HEDGE_DELAY, aimd=True),
    }


def test_storm_decomposition_aimd_never_costs_a_second_timeout(storm):
    """AIMD may add round trips, not timeout-sized parks, to the lane
    the hedge just shortened (it read 346.1 against hedge alone's
    212.9, and 516.6 against bare 449.2, while its wait was a fraction
    of the timeout).  Since the hedged lane's parks are round-trip
    sized too, AIMD's stretch shows beside them (45.9 against 35.9
    sim-s; 51.6 against 41.5 while the UR scan waited for the correct
    collection): what it may cost is what it waited, not a share of the
    hedged time."""
    bare_s, bare, _ = storm["bare"]
    hedge_s, hedge, _ = storm["hedge"]
    aimd_s, aimd, _ = storm["aimd"]
    both_s, both, resilience = storm["both"]
    # the same sends and the same dice in all four
    assert bare == hedge == aimd == both == (663, 11837, 5007, 584)
    assert both_s - hedge_s <= resilience.aimd_wait
    assert aimd_s <= 1.05 * bare_s


def test_jittered_answers_count_as_spurious_retransmits(storm):
    """The storm jitters every answer by up to 50 ms: under the
    estimator's timer some arrive after it expired, and a real scanner
    would have re-sent; against the bare five-second timer none do."""
    assert storm["hedge"][2].spurious_retransmits > 0
    assert storm["bare"][2].spurious_retransmits == 0

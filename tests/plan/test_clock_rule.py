"""The one clock rule of stage 1, for every collection and the sample.

Every stage-1 query runs in a per-server group pinned to its phase's
start; a phase lasts as long as its slowest server and never moves the
clock backwards.  The correct collection and the UR scan query disjoint
servers and are both pinned at the scan start, the run origin plus the
protective makespan, so stage 1 lasts protective + max(correct, UR).
So a group run on its own equals its slice of the full preamble, the
preamble does not depend on the order servers are listed in, on the
shard count or on the execution mode, and a whole run's virtual time is
small and exactly repeatable — re-serialising any collection multiplies
it.  Every group starts with every resolver cache empty (pinning the
clock empties them), so a group's payload does not depend on what ran
before it.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import DomainTarget, NameserverTarget
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.dns.resolver import RecursiveResolver
from repro.dns.server import UnhostedPolicy
from repro.net.network import SimulatedInternet
from repro.pipeline.checkpoint import encode_stage1
from repro.plan import shards
from repro.scenario import ScenarioConfig, build_world, small_config

from ..conftest import bare_hunter

SEED = 7
#: virtual seconds of the small-scale seed-7 run: 0.05 protective +
#: max(2.64 correct, 2.00 UR) + 0.24 sample (4.93 while the UR scan
#: waited for the correct collection to end; 7.67 while every resolver
#: lookup re-walked root and TLD; 42.13 when the preamble and the
#: sample ran one exchange after another)
SMALL_RUN_VIRTUAL_S = 2.93


def _clean(world):
    pass


def _lossy(world):
    world.network.inject_faults(loss_rate=0.05, seed=SEED)


INPUTS = [
    pytest.param(_clean, id="clean"),
    pytest.param(_lossy, id="loss-5pct"),
]


def _hunter(prepare=_clean, permute=None, **knobs):
    world = build_world(small_config(seed=SEED))
    prepare(world)
    if permute is not None:
        rng = random.Random(permute)
        rng.shuffle(world.open_resolver_ips)
        rng.shuffle(world.nameserver_targets)
    return URHunter.from_world(world, HunterConfig(**knobs))


def _summary(outcome):
    response = outcome.response
    return (
        outcome.task.qname.to_text(),
        outcome.task.qtype,
        outcome.status.value,
        outcome.attempts,
        outcome.completed_at,
        None
        if response is None
        else (
            response.header.rcode,
            [record.to_text() for record in response.answers],
        ),
    )


def _record_groups(monkeypatch):
    """Every group result the runner builds, in build order."""
    results = []
    build = shards._group_result

    def recording(*args):
        result = build(*args)
        results.append(result)
        return result

    monkeypatch.setattr(shards, "_group_result", recording)
    return results


@pytest.mark.parametrize("prepare", INPUTS)
def test_resolver_group_alone_equals_its_slice(prepare, monkeypatch):
    results = _record_groups(monkeypatch)
    full = _hunter(prepare)
    plan, collector, network = full.plan, full.collector, full.network
    shards.run_collection_groups(
        collector, plan, "protective", lambda outcome: None
    )
    start = network.now
    del results[:]
    sliced = {}
    shards.run_collection_groups(
        collector,
        plan,
        "correct",
        lambda outcome: sliced.setdefault(
            outcome.task.server_ip, []
        ).append(_summary(outcome)),
    )
    ledgers = {result.server_ip: result for result in results}
    lanes = plan.correct_units.lanes()
    assert list(ledgers) == list(lanes) == list(full.open_resolver_ips)

    # a fresh world, no protective phase, the groups in reverse order
    alone = _hunter(prepare)
    network = alone.network
    for server_ip in reversed(lanes):
        shards.pin_group(network, start, "correct", server_ip)
        engine = shards._group_engine(alone.collector, start)
        outcomes = [
            _summary(outcome)
            for _, outcome in engine.execute_iter(
                alone.plan.tasks("correct", lanes[server_ip])
            )
        ]
        assert outcomes == sliced[server_ip]
        assert network.now - start == ledgers[server_ip].elapsed
        assert (
            engine.metrics.to_dict()
            == ledgers[server_ip].metrics.to_dict()
        )
    if prepare is _lossy:
        assert full.engine.metrics.stage("correct").retries > 0


@pytest.mark.parametrize(
    "prepare, knobs",
    [
        pytest.param(_clean, {}, id="clean"),
        pytest.param(
            _lossy, {"hedge_delay": 0.5, "aimd": True}, id="loss-hedge-aimd"
        ),
    ],
)
@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(small_config(seed=SEED), id="small"),
        pytest.param(
            ScenarioConfig(seed=SEED), id="default", marks=pytest.mark.slow
        ),
    ],
)
def test_group_payloads_do_not_depend_on_execution_order(
    scenario, prepare, knobs
):
    """One world, one process: every correct-collection and UR group
    executed in plan order, reversed, and shuffled across the two
    phases.  A group's payload — elapsed, ledger, events, outcomes — is
    the same bytes every time, whatever ran before it.

    Half the long-tail nameservers are misconfigured recursives here
    (one at this seed's stock setting): they answer through one shared
    fallback resolver, whose caches the first such group used to warm
    for all the others.
    """
    world = build_world(replace(scenario, misconfigured_recursive_fraction=0.5))
    prepare(world)
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    plan, network = hunter.plan, hunter.network
    origin = network.now
    epoch = origin + 3.0
    lanes = plan.correct_units.lanes()

    def correct_group(server_ip):
        shards.pin_group(network, origin, "correct", server_ip)
        engine = shards._group_engine(hunter.collector, origin)
        outcomes = [
            _summary(outcome)
            for _, outcome in engine.execute_iter(
                plan.tasks("correct", lanes[server_ip])
            )
        ]
        result = shards._group_result(
            engine, 0, server_ip, network.now - origin, []
        )
        return [outcomes, shards.encode_group_result(result)]

    def ur_group(group):
        return shards.encode_group_result(
            shards.run_group_isolated(hunter, plan, group, epoch, origin)
        )

    jobs = [
        (("correct", server_ip), correct_group, server_ip)
        for server_ip in lanes
    ]
    jobs += [(("ur", group.index), ur_group, group) for group in plan.groups]
    shuffled = list(jobs)
    random.Random(SEED).shuffle(shuffled)
    payloads = [
        {
            key: json.dumps(run(target), sort_keys=True)
            for key, run, target in order
        }
        for order in (jobs, jobs[::-1], shuffled)
    ]
    assert payloads[1] == payloads[0]
    assert payloads[2] == payloads[0]

    hosts = network.dns_hosts()
    costs = [
        payload["elapsed"] / sum(
            counters["queries"]
            for counters in payload["metrics"]["stages"].values()
        )
        for payload in map(ur_group, plan.groups)
        if hosts[payload["server"]].unhosted_policy is UnhostedPolicy.RECURSIVE
    ]
    assert len(costs) > 4
    if prepare is _clean:
        # every recursive group pays for its own cold resolver: about
        # 28 sim-ms a query each, not 45 for the first and 10 for the rest
        assert max(costs) < 1.05 * min(costs)
        assert min(costs) > 0.02


def _preamble(hunter):
    """The byte-compared preamble surfaces of one stage-1 run."""
    origin = hunter.network.now
    stage1 = hunter.stage1_collect()
    encoded = encode_stage1(stage1)
    encoded["protective"] = sorted(
        encoded["protective"], key=json.dumps
    )
    return (
        json.dumps(encoded, sort_keys=True),
        stage1.collection.correct_successes,
        stage1.collection.classification_epoch - origin,
        json.dumps(hunter.engine.metrics.to_dict(), sort_keys=True),
    )


@pytest.fixture(scope="module")
def reference():
    return _preamble(_hunter())


@pytest.mark.parametrize(
    "knobs",
    [
        pytest.param({"shards": 4}, id="shards-4"),
        pytest.param({"execution": "stream"}, id="stream"),
        pytest.param({"shards": 4, "execution": "stream"}, id="stream-4"),
    ],
)
def test_preamble_invariant_under_shards_and_execution(reference, knobs):
    assert _preamble(_hunter(**knobs)) == reference


def test_a_resolvers_caches_die_with_its_group():
    """The lazy flush on a resolver's next lookup never comes once its
    only group is over: after the collections no registered resolver
    holds an answer or a zone cut to the end of the run."""
    hunter = _hunter()
    hunter.stage1_collect()
    resolvers = [
        service
        for service in hunter.network.dns_hosts().values()
        if isinstance(service, RecursiveResolver)
    ]
    assert len(resolvers) > 4
    assert sum(r.stats.upstream_queries for r in resolvers) > 0
    assert not any(r._cache or r._cuts for r in resolvers)


def _latency_buckets_folded(encoded_stage1):
    """The stage-1 document with the latency histogram reduced to its
    observation count, and the summed latency beside it.

    A resolver pays for a zone cut on the first name it looks up under
    it, so *which* query carries the extra exchanges follows the order
    the plan visits names in; how many exchanges the phase costs in all
    does not.
    """
    document = json.loads(encoded_stage1)
    document["undelegated"] = sorted(document["undelegated"], key=json.dumps)
    latency = document["metrics"]["latency"]
    assert sum(latency.pop("counts")) == latency["total"]
    return document, latency.pop("sum")


@pytest.mark.parametrize("permute", [1, 2])
def test_preamble_invariant_under_server_order(reference, permute):
    """Resolvers and nameservers listed in another order: another plan
    (each server draws another slice of the shuffle), the same
    fingerprints, profiles, epoch and merged ledger — two of the 14,526
    latencies land in a neighbouring bucket (303/82 <-> 305/80), the
    count and the total do not move."""
    hunter = _hunter(permute=permute)
    assert hunter.plan.plan_hash != _hunter().plan.plan_hash
    permuted = _preamble(hunter)
    # the UR list follows the plan's order; everything else must match
    encoded, latency_sum = _latency_buckets_folded(permuted[0])
    baseline, baseline_sum = _latency_buckets_folded(reference[0])
    assert encoded == baseline
    assert latency_sum == pytest.approx(baseline_sum, rel=1e-12)
    assert permuted[1:3] == reference[1:3]
    ledger, baseline = json.loads(permuted[3]), json.loads(reference[3])
    for document in (ledger, baseline):
        # bucket-upper-bound estimates: they follow the bucket counts
        for estimate in ("p50", "p90", "p99"):
            del document["latency"][estimate]
    assert ledger == baseline


def test_correct_and_ur_groups_are_pinned_at_the_scan_start(monkeypatch):
    """Every correct and every UR group starts at the scan start
    ``S = origin + makespan(protective)``, the classification epoch;
    stage 1 ends at ``S + max(makespan(correct), makespan(ur))`` — the
    correct collection's end here, so the UR phase, shorter and entered
    later, leaves the clock where it found it."""
    results = _record_groups(monkeypatch)
    pins = []
    pin = shards.pin_group

    def recording(network, start, phase, server_ip):
        pins.append((phase, start))
        pin(network, start, phase, server_ip)

    monkeypatch.setattr(shards, "pin_group", recording)
    hunter = _hunter()
    origin = hunter.network.now
    stage1 = hunter.stage1_collect()
    plan = hunter.plan
    counts = [
        len(plan.protective_units.lanes()),
        len(hunter.open_resolver_ips),
        len(plan.groups),
    ]
    assert len(results) == len(pins) == sum(counts)
    phases = {"protective": [], "correct": [], "ur": []}
    for (phase, start), result in zip(pins, results):
        phases[phase].append((start, result.elapsed))
    assert [len(groups) for groups in phases.values()] == counts
    makespan = {
        phase: max(elapsed for _, elapsed in groups)
        for phase, groups in phases.items()
    }
    scan_start = origin + makespan["protective"]
    assert {start for start, _ in phases["protective"]} == {origin}
    assert {start for start, _ in phases["correct"]} == {scan_start}
    assert {start for start, _ in phases["ur"]} == {scan_start}
    assert stage1.now == stage1.collection.classification_epoch == scan_start
    assert 0 < makespan["protective"] < makespan["ur"] < makespan["correct"]
    assert stage1.end == hunter.network.now == scan_start + max(
        makespan["correct"], makespan["ur"]
    )

    # the rule on its own: a phase never moves the parent clock back
    network = hunter.network
    for elapsed, end in ((1.0, 10.0), (7.0, 12.0)):
        network.set_clock(10.0)
        with shards.isolated_phase(hunter, "ur", 5.0) as finished:
            finished.append(shards.GroupResult(0, "10.0.0.1", elapsed))
        assert network.now == end


def test_dead_servers_time_out_side_by_side(monkeypatch):
    """Overlap across servers is the phase's: eight dead nameservers
    cost one 5 s timeout of virtual time, though their groups spent
    40 s between them."""
    results = _record_groups(monkeypatch)
    network = SimulatedInternet()
    nameservers = []
    for index in range(8):
        address = f"10.8.0.{index + 1}"
        network.register_stub(address)
        network.set_online(address, False)
        nameservers.append(NameserverTarget(address, "DeadHost"))
    hunter = bare_hunter(
        network,
        nameservers,
        [DomainTarget(name("victim.test"), 1)],
        query_types=(RRType.A,),
        retries=0,
    )
    start = network.now
    shards.run_collection_groups(
        hunter.collector, hunter.plan, "protective", lambda outcome: None
    )
    assert len(results) == 8
    assert network.now - start == pytest.approx(5.0, abs=0.2)
    assert sum(r.elapsed for r in results) == pytest.approx(40.0, abs=0.5)
    assert hunter.engine.metrics.stage("protective").giveups == 8


def _pinned_run(prepare=_clean, **knobs):
    hunter = _hunter(prepare, **knobs)
    origin = hunter.network.now
    hunter.run()
    return hunter, round(hunter.network.now - origin, 6)


def test_small_scale_run_takes_its_pinned_virtual_seconds():
    """Deterministic, so exact: a collection that goes back to one
    exchange after another fails this by 5x or more, not by noise."""
    assert _pinned_run()[1] == SMALL_RUN_VIRTUAL_S


def test_lossy_hedged_aimd_run_keeps_its_pinned_schedule():
    """Exact figures of the single-lane loop: a drifted last digit
    means a wait was re-associated, a drifted count means a send or a
    fault die moved.  (Re-read when the resolvers began to remember
    zone cuts: fewer upstream exchanges draw fewer fault dice, so every
    later draw of a group shifts — 59.5125 sim-s / 792 cuts before.
    Re-read again when AIMD began to stretch the lane's own round trip
    instead of parking a fraction of the timeout: 64.775 sim-s and
    1084.46 s of AIMD wait before, every count below unmoved.  Re-read
    when every retry timer began to read the round-trip estimator
    instead of 0.5 s / 5 s + backoff: 35.569934 sim-s and
    3.733363994397223 s of AIMD wait before, every count unmoved.
    Re-read when the UR scan began to run side by side with the correct
    collection: 7.276227 sim-s before, the AIMD wait and every count
    unmoved — the clean run takes 2.93.)"""
    hunter, virtual_s = _pinned_run(_lossy, hedge_delay=0.5, aimd=True)
    metrics = hunter.engine.metrics
    assert virtual_s == 4.8253
    assert hunter.resilience.aimd_wait == 4.1640487088589
    assert hunter.resilience.aimd_cuts == 788
    assert hunter.resilience.hedges_fired == 742
    assert hunter.resilience.spurious_retransmits == 15
    assert (metrics.queries, metrics.retries) == (15310, 784)
    assert {
        phase: counters.giveups
        for phase, counters in metrics.stages.items()
    } == {"protective": 0, "correct": 0, "ur": 4}


def test_paced_run_accounts_its_pinned_rate_limit_wait():
    """Appendix A's one query per server per 130 s, to the last bit
    (24310.35 sim-s while the UR scan waited for the correct collection;
    every phase's wait unmoved)."""
    hunter, virtual_s = _pinned_run(per_server_interval=130.0)
    assert virtual_s == 12220.34
    # a query that cost fewer upstream exchanges leaves more of its
    # 130 s to wait out: the resolver phases wait longer than they did
    # while every lookup walked from the root (96676.77 / 1733543.50)
    assert {
        phase: counters.rate_limit_wait
        for phase, counters in hunter.engine.metrics.stages.items()
    } == {
        "protective": 18978.51999999862,
        "correct": 96683.04999996559,
        "ur": 1733544.0299998734,
    }


def test_paced_lossy_aimd_run_pays_its_pinned_politeness():
    """Where AIMD bites: under 130 s pacing a cut doubles a 130 s gap,
    so 5 % loss costs a fifth more scan time (13780.26 sim-s without
    ``aimd``, and with it while its wait was a fraction of the timeout
    and hid inside the token bucket's gap: 801 cuts, 0.0 s waited).
    Re-read when AIMD's healthy interval began to read the smoothed
    round trip instead of the running mean: nothing moved — under
    pacing the interval is the 130 s; unpaced, the same lossy run with
    ``aimd`` alone went 138.118816 -> 138.039131 sim-s.  Re-read when
    the UR scan began to run side by side with the correct collection:
    32183.387619 / 26910.34 sim-s before, the wait and the cuts
    unmoved."""
    hunter, virtual_s = _pinned_run(
        _lossy, per_server_interval=130.0, aimd=True
    )
    assert virtual_s == 16943.593333
    assert hunter.resilience.aimd_wait == 164166.80210630305
    assert hunter.resilience.aimd_cuts == 804
    assert _pinned_run(_lossy, per_server_interval=130.0)[1] == 13780.26


def test_unhedged_lossy_runs_keep_the_bare_retry_path():
    """Without ``hedge_delay`` every expiry is timeout + backoff, as it
    always was: 79.3 sim-s bare; ``aimd`` alone keeps every count and
    stretches the smoothed round trip (138.118816 sim-s / 3.733364 s of
    wait while it read the running mean; 137.77 / 138.039131 sim-s while
    the UR scan waited for the correct collection)."""
    bare, bare_s = _pinned_run(_lossy)
    paced, paced_s = _pinned_run(_lossy, aimd=True)
    assert bare_s == 79.3
    assert paced_s == 79.353333
    assert paced.resilience.aimd_wait == 3.5168944731121883
    assert paced.resilience.aimd_cuts == 788
    for hunter in (bare, paced):
        metrics = hunter.engine.metrics
        assert (metrics.queries, metrics.retries) == (15310, 784)
        assert hunter.resilience.spurious_retransmits == 0


def test_run_deadline_sheds_its_pinned_count():
    # the UR groups start at the scan start, 0.05 sim-s in (the
    # protective probes), and the shortest runs 0.70 s: a 3 s deadline
    # no longer cuts one, a deadline under 0.75 s cuts them all.  0.36 s
    # cuts every UR group 0.31 s in — where the 3 s deadline cut them
    # while they started 2.69 s in, after the correct collection — so
    # the UR scan sheds its 8,980 again; the correct groups, side by
    # side, are cut 0.31 s into their 2.64 s and shed 695 of 752 too.
    # Once spent, the budget stops the timers ticking: stage 1 ends
    # 0.38 s in, and the sample adds its 0.24.  (3.24 sim-s and 8,980
    # shed, 5,546 sent, with the 3 s deadline before.)
    hunter, virtual_s = _pinned_run(run_deadline=0.36)
    assert virtual_s == 0.62
    assert hunter.engine.metrics.stage("ur").shed == 8980
    assert hunter.engine.metrics.stage("correct").shed == 695
    assert hunter.engine.metrics.queries == 4851
    assert hunter.resilience.shed == {"shed:deadline-run": 9675}
    assert _pinned_run(run_deadline=3.0)[0].resilience.shed == {}


def test_fault_seeds_differ_per_phase_and_the_ur_seed_keeps_its_spelling():
    # one nameserver is a protective, a UR and a sample group: the same
    # seed in all three would lose the same packets in every phase
    address = "10.0.0.1"
    seeds = {
        phase: shards.group_fault_seed(SEED, address, phase)
        for phase in ("protective", "correct", "ur", "sample")
    }
    assert len(set(seeds.values())) == len(seeds)
    # stored and pooled UR groups were executed under this seed
    legacy = hashlib.sha256(
        f"urhunter-shard-group:{SEED}:{address}".encode()
    ).digest()
    assert seeds["ur"] == int.from_bytes(legacy[:8], "big")

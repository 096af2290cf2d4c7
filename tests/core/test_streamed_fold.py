"""The streamed stage-1 fold against the list-based fold it replaced.

The UR scan used to park every ``QueryOutcome`` (response message
attached) in a list and walk it once in task order.  ``run_group_isolated``
now reduces each outcome as it completes, ``run_shard_scan`` folds each
group as it completes, and task order is restored from the index.  The
list-based folds are kept here as the reference — every group's
outcomes parked, then one walk in task order: same URs in the same
order, same wire counters, same clock and engine ledger — on a clean
network, under 5 % loss, and with servers whose circuit opens.

The fold dedupes each group's URs as it folds them; the whole-scan
``dedupe_urs`` over every record in index order is the reference, on
scans where one server answers with duplicate records (clean, 5 %
loss, a chaos script).

The two preamble folds (protective fingerprints, correct-record
profiles) stream the same way, one server group at a time; their list
forms — every group executed under the same clock and RNG rules, its
outcomes parked — are kept here too and must leave the stage-1
checkpoint byte-identical.
"""

import gc
import json
import random
import tracemalloc
import types
from operator import attrgetter

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import (
    CollectionPreamble,
    CollectionResult,
    ProtectiveFingerprint,
)
from repro.core.records import UndelegatedRecord, dedupe_urs
from repro.dns.message import Rcode
from repro.dns.name import name
from repro.dns.rdata import A, MX, TXT, RRType
from repro.dns.server import UnhostedPolicy
from ..stage1_oracle import encode_stage1
from repro.plan import shards
from repro.plan.shards import (
    GroupResult,
    ReducedOutcome,
    ScanFold,
    encode_group_result,
    group_fault_seed,
    run_group_isolated,
    run_shard_scan,
)
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

SEED = 7
#: servers taken offline for the circuit-open input
DEAD_SERVERS = 3


def _clean(world):
    pass


def _lossy(world):
    world.network.inject_faults(loss_rate=0.05, seed=SEED)


def _circuit_open(world):
    for target in world.nameserver_targets[:DEAD_SERVERS]:
        world.network.set_online(target.address, False)


INPUTS = [
    pytest.param(_clean, id="clean"),
    pytest.param(_lossy, id="loss-5pct"),
    pytest.param(_circuit_open, id="circuit-open"),
]


def _hunter(prepare):
    world = build_world(small_config(seed=SEED))
    prepare(world)
    return URHunter.from_world(world, HunterConfig())


def _list_collect_urs(hunter, plan, epoch):
    """The UR scan as one list: every group executed under the runner's
    clock and RNG rules with its outcomes parked, then a single walk in
    task order."""
    network = hunter.network
    rng_state = network._fault_rng.getstate()
    outcomes = []
    makespan = 0.0
    for group in plan.groups:
        network.set_clock(epoch)
        network._fault_rng = random.Random(
            group_fault_seed(network.fault_seed, group.server_ip)
        )
        result = _list_execute_group(hunter, plan, group)
        outcomes.extend(result.outcomes)
        hunter.engine.metrics.merge(result.metrics)
        makespan = max(makespan, result.elapsed)
    network._fault_rng.setstate(rng_state)
    network.set_clock(epoch + makespan)
    outcomes.sort(key=lambda outcome: outcome.index)
    collected = []
    for outcome in outcomes:
        collected.extend(outcome.urs)
    attempts = sum(outcome.attempts for outcome in outcomes)
    responses = sum(1 for outcome in outcomes if outcome.answered)
    return CollectionResult(
        undelegated=dedupe_urs(collected),
        queries_sent=attempts,
        responses_seen=responses,
        timeouts=attempts - responses,
    )


def _list_execute_group(hunter, plan, group):
    """A pinned group's execution as it was before streaming."""
    network = hunter.network
    extract_urs = hunter.collector.urs_from_outcome
    engine = shards._group_engine(hunter, network.now)
    start = network.now
    tasks = list(plan.tasks("ur", group.unit_indices))
    outcomes = engine.execute(tasks)
    reduced = [
        ReducedOutcome(
            index=index,
            attempts=outcome.attempts,
            answered=outcome.answered,
            urs=tuple(extract_urs(outcome)),
        )
        for index, outcome in zip(group.unit_indices, outcomes)
    ]
    resilience = getattr(engine, "resilience", None)
    return GroupResult(
        group=group.index,
        server_ip=group.server_ip,
        elapsed=network.now - start,
        outcomes=reduced,
        metrics=engine.metrics,
        resilience=(
            shards._encode_resilience(resilience)
            if resilience is not None
            else None
        ),
        events=engine.trace.raw_events(),
    )


@pytest.mark.parametrize("prepare", INPUTS)
def test_collect_urs_equals_the_list_fold(prepare):
    streamed_hunter = _hunter(prepare)
    listed_hunter = _hunter(prepare)
    epoch = streamed_hunter.network.now
    streamed = streamed_hunter.collector.collect_urs(
        lambda: run_shard_scan(
            streamed_hunter, streamed_hunter.plan, epoch
        ),
        CollectionPreamble({}, None, 0, epoch),
    )
    listed = _list_collect_urs(listed_hunter, listed_hunter.plan, epoch)
    assert streamed.undelegated == listed.undelegated
    assert streamed.undelegated, "the scan found no UR to order"
    assert (
        streamed.queries_sent,
        streamed.responses_seen,
        streamed.timeouts,
    ) == (listed.queries_sent, listed.responses_seen, listed.timeouts)
    assert streamed_hunter.network.now == listed_hunter.network.now
    assert (
        streamed_hunter.engine.metrics.to_dict()
        == listed_hunter.engine.metrics.to_dict()
    )
    counters = streamed_hunter.engine.metrics.stage("ur")
    if prepare is _lossy:
        assert counters.retries > 0
    if prepare is _circuit_open:
        assert counters.skipped > 0


@pytest.mark.parametrize("prepare", INPUTS)
def test_execute_group_equals_the_list_fold(prepare):
    streamed_hunter = _hunter(prepare)
    listed_hunter = _hunter(prepare)
    plan = streamed_hunter.plan
    assert plan.plan_hash == listed_hunter.plan.plan_hash
    epoch = streamed_hunter.network.now
    skipped = 0
    dead = {
        target.address
        for target in streamed_hunter.nameservers[:DEAD_SERVERS]
    }
    groups = [group for group in plan.groups if group.server_ip in dead]
    groups += [
        group for group in plan.groups if group.server_ip not in dead
    ][:5]
    for group in groups:
        streamed = run_group_isolated(
            streamed_hunter, plan, group, epoch, epoch
        )
        network = listed_hunter.network
        network.set_clock(epoch)
        network._fault_rng = random.Random(
            group_fault_seed(network.fault_seed, group.server_ip)
        )
        listed = _list_execute_group(listed_hunter, plan, group)
        assert streamed.outcomes == listed.outcomes
        assert [outcome.index for outcome in streamed.outcomes] == list(
            group.unit_indices
        )
        assert encode_group_result(streamed) == encode_group_result(listed)
        skipped += streamed.metrics.stage("ur").skipped
    if prepare is _circuit_open:
        assert skipped > 0


def _duplicating(world):
    """One REFUSED target turns protective with the same A record
    listed twice: each of its answers carries a duplicate UR."""
    for target in world.nameserver_targets:
        server = world.network.dns_hosts()[target.address]
        if getattr(server, "unhosted_policy", None) is UnhostedPolicy.REFUSED:
            server.unhosted_policy = UnhostedPolicy.PROTECTIVE
            server.protective_records = [(RRType.A, A("198.18.0.1"))] * 2
            return
    raise AssertionError("no REFUSED target to duplicate")


@pytest.mark.parametrize("mode", ["clean", "lossy", "chaos"])
def test_per_group_dedupe_equals_the_whole_scan_dedupe(mode, monkeypatch):
    world = build_world(small_config(seed=SEED))
    _duplicating(world)
    if mode == "lossy":
        world.network.inject_faults(loss_rate=0.05, seed=SEED)
    hunter = URHunter.from_world(world, HunterConfig())
    if mode == "chaos":
        apply_scenario(load_scenario("tail-latency-storm"), world, hunter)
    folded = []
    add = ScanFold.add

    def capturing(fold, outcomes):
        outcomes = list(outcomes)
        folded.extend(outcomes)
        add(fold, outcomes)

    monkeypatch.setattr(ScanFold, "add", capturing)
    undelegated = hunter.stage1_collect().collection.undelegated
    folded.sort(key=attrgetter("index"))
    collected = [record for outcome in folded for record in outcome.urs]
    assert len(collected) > len(undelegated), "no duplicate was dropped"
    assert undelegated == dedupe_urs(collected)


def test_fold_keeps_each_groups_first_occurrences_in_index_order():
    def record(domain, server, address):
        return UndelegatedRecord(
            name(domain), server, "prov", RRType.A, address
        )

    one, two = "10.0.0.1", "10.0.0.2"
    fold = ScanFold()
    fold.add(
        [
            ReducedOutcome(3, 1, True, (record("a.example", two, "1.1.1.1"),)),
            ReducedOutcome(
                5,
                2,
                True,
                (
                    record("b.example", two, "2.2.2.2"),
                    record("A.example", two, "1.1.1.1"),
                ),
            ),
        ]
    )
    fold.add(
        [
            ReducedOutcome(0, 1, False, ()),
            ReducedOutcome(
                1,
                1,
                True,
                (
                    record("a.example", one, "1.1.1.1"),
                    record("a.example", one, "1.1.1.1"),
                ),
            ),
            ReducedOutcome(4, 1, True, (record("a.example", one, "1.1.1.1"),)),
        ]
    )
    everything = [
        record("a.example", one, "1.1.1.1"),
        record("a.example", one, "1.1.1.1"),
        record("a.example", two, "1.1.1.1"),
        record("a.example", one, "1.1.1.1"),
        record("b.example", two, "2.2.2.2"),
        record("A.example", two, "1.1.1.1"),
    ]
    assert fold.records() == dedupe_urs(everything)
    assert [r.domain.labels[0] for r in fold.records()] == ["a", "a", "b"]
    assert (fold.attempts, fold.responses) == (6, 4)


def _list_run_groups(collector, plan, collection):
    """A preamble collection as one list: every server group executed
    under the runner's clock and RNG rules with its outcomes parked,
    then handed back in planned scan order."""
    network = collector.network
    units = plan.units(collection)
    by_server = {}
    for index, unit in enumerate(units):
        by_server.setdefault(unit.server_ip, []).append(index)
    start = network.now
    rng_state = network._fault_rng.getstate()
    parked = {}
    makespan = 0.0
    for server_ip in dict.fromkeys(units.servers):
        indices = by_server.get(server_ip)
        if not indices:
            continue
        network.set_clock(start)
        network._fault_rng = random.Random(
            group_fault_seed(network.fault_seed, server_ip, collection)
        )
        engine = shards._group_engine(collector, start)
        outcomes = engine.execute([units.task(index) for index in indices])
        parked.update(zip(indices, outcomes))
        collector.engine.metrics.merge(engine.metrics)
        makespan = max(makespan, network.now - start)
    network._fault_rng.setstate(rng_state)
    network.set_clock(start + makespan)
    return [parked[index] for index in sorted(parked)]


def _list_collect_protective(collector, plan):
    """``collect_protective_records`` as it was before streaming."""
    fingerprints = {
        address: ProtectiveFingerprint(nameserver_ip=address)
        for address in plan.protective_units.servers
    }
    for outcome in _list_run_groups(collector, plan, "protective"):
        response = outcome.response
        if response is None:
            continue
        if response.header.rcode != Rcode.NOERROR:
            continue
        fingerprint = fingerprints[outcome.task.server_ip]
        for answer in response.answers:
            if isinstance(answer.rdata, A):
                fingerprint.records.add((RRType.A, answer.rdata.address))
            elif isinstance(answer.rdata, TXT):
                fingerprint.records.add((RRType.TXT, answer.rdata.value))
    return fingerprints


def _list_collect_correct(collector, plan, correct_db):
    """``collect_correct_records`` as it was before streaming."""
    successes = 0
    for outcome in _list_run_groups(collector, plan, "correct"):
        response = outcome.response
        if response is None:
            continue
        if response.header.rcode != Rcode.NOERROR:
            continue
        successes += 1
        domain = outcome.task.qname
        for answer in response.answers:
            if isinstance(answer.rdata, A):
                correct_db.observe_a(domain, answer.rdata.address)
            elif isinstance(answer.rdata, TXT):
                correct_db.observe_txt(domain, answer.rdata.value)
            elif isinstance(answer.rdata, MX):
                correct_db.observe_mx(domain, answer.rdata.to_text())
    return successes


@pytest.mark.parametrize("prepare", INPUTS[:2])
def test_preamble_folds_leave_the_stage1_checkpoint_unchanged(prepare):
    streamed_hunter = _hunter(prepare)
    listed_hunter = _hunter(prepare)
    collector = listed_hunter.collector
    collector.collect_protective_records = types.MethodType(
        _list_collect_protective, collector
    )
    collector.collect_correct_records = types.MethodType(
        _list_collect_correct, collector
    )
    streamed = streamed_hunter.stage1_collect()
    listed = listed_hunter.stage1_collect()
    assert streamed.collection.correct_successes > 0
    assert (
        streamed.collection.correct_successes
        == listed.collection.correct_successes
    )
    assert json.dumps(encode_stage1(streamed)) == json.dumps(
        encode_stage1(listed)
    )
    assert streamed_hunter.network.now == listed_hunter.network.now
    assert (
        streamed_hunter.engine.metrics.to_dict()
        == listed_hunter.engine.metrics.to_dict()
    )
    if prepare is _lossy:
        assert streamed_hunter.engine.metrics.stage("correct").retries > 0


# -- memory ceiling ----------------------------------------------------------

#: tracemalloc peak of the small-scale stage 1 (seed 7), plus 15 %:
#: each answer is held once (slotted DNS values, one codec entry per
#: answer whose template the compiled answers share) and URs are
#: deduped per group (3.07 MiB with a decode cache beside the encode
#: cache and one whole-scan dedupe set; 6.13 MiB while the target
#: servers kept their compiled answers to the end of the run; 7.16 MiB
#: with the 17,430-row columnar flow log; the eager flow list + outcome
#: list peaked at 21.57 MiB)
STAGE1_PEAK_CEILING = 2.19 * 1.15 * 2**20
#: what stage 1 leaves live once it returns (its result, the bounded
#: codec caches), plus 15 % — 2.44 MiB with the decode cache, 5.78 MiB
#: while compiled answers outlived their groups
STAGE1_RETAINED_CEILING = 1.58 * 1.15 * 2**20


def test_small_scale_stage1_peak_stays_under_its_ceiling():
    world = build_world(small_config(seed=SEED))
    hunter = URHunter.from_world(world)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stage1 = hunter.stage1_collect()
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stage1.collection.undelegated
    assert peak <= STAGE1_PEAK_CEILING
    assert retained <= STAGE1_RETAINED_CEILING

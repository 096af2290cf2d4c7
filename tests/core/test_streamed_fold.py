"""The streamed stage-1 fold against the list-based fold it replaced.

The UR scan used to park every ``QueryOutcome`` (response message
attached) in a list and walk it once in task order.  ``run_group``
now reduces each UR outcome as it completes, ``run_shard_scan`` folds each
group as it completes, and task order is restored from the index.  The
list-based folds are kept here as the reference — every group's
outcomes parked, then one walk in task order: same URs in the same
order, same clock and engine ledger, whose UR counters equal the sums
over the raw outcomes — on a clean network, under 5 % loss, and with
servers whose circuit opens.

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
from repro.core.collector import ProtectiveFingerprint
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
    run_group,
    run_shard_scan,
)
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

from ..conftest import drive, planned_rows

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
    task order.  The wire counters are summed over the raw outcomes."""
    network = hunter.network
    rng_state = network._fault_rng.getstate()
    outcomes = []
    attempts = responses = 0
    makespan = 0.0
    for group in plan.groups:
        network.set_clock(epoch)
        network._fault_rng = random.Random(
            group_fault_seed(network.fault_seed, group.server_ip)
        )
        result, raw = _list_execute_group(hunter, plan, group)
        outcomes.extend(result.outcomes)
        attempts += sum(outcome.attempts for outcome in raw)
        responses += sum(1 for outcome in raw if outcome.answered)
        hunter.collector.metrics.merge(result.metrics)
        makespan = max(makespan, result.elapsed)
    network._fault_rng.setstate(rng_state)
    network.set_clock(epoch + makespan)
    outcomes.sort(key=lambda outcome: outcome.index)
    collected = []
    for outcome in outcomes:
        collected.extend(outcome.urs)
    return dedupe_urs(collected), (attempts, responses, attempts - responses)


def _list_execute_group(hunter, plan, group):
    """A pinned group's execution as it was before streaming, with its
    raw outcomes."""
    network = hunter.network
    collector = hunter.collector
    engine = shards._group_engine(
        collector, group.server_ip, "ur", network.now
    )
    start = network.now
    queries = list(
        shards.lane_queries(network, plan.ur_units, group.unit_indices)
    )
    outcomes = drive(engine, queries)
    reduced = [
        collector.reduce_ur(index, outcome)
        for index, outcome in zip(group.unit_indices, outcomes)
    ]
    result = GroupResult(
        group=group.index,
        server_ip=group.server_ip,
        elapsed=network.now - start,
        outcomes=[outcome for outcome in reduced if outcome is not None],
        metrics=engine.metrics,
        events=engine.events,
    )
    return result, outcomes


@pytest.mark.parametrize("prepare", INPUTS)
def test_collect_urs_equals_the_list_fold(prepare):
    streamed_hunter = _hunter(prepare)
    listed_hunter = _hunter(prepare)
    epoch = streamed_hunter.network.now
    streamed = streamed_hunter.collector.collect_urs(
        lambda: run_shard_scan(streamed_hunter, streamed_hunter.plan, epoch)
    )
    listed, wire = _list_collect_urs(
        listed_hunter, listed_hunter.plan, epoch
    )
    assert streamed == listed
    assert streamed, "the scan found no UR to order"
    # the ledger alone counts the wire: it equals the raw outcomes' sums
    ur = streamed_hunter.collector.metrics.stages["ur"]
    assert (ur.queries, ur.responses, ur.timeouts) == wire
    assert streamed_hunter.network.now == listed_hunter.network.now
    assert (
        streamed_hunter.collector.metrics.to_dict()
        == listed_hunter.collector.metrics.to_dict()
    )
    counters = streamed_hunter.collector.metrics.stage("ur")
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
        collector = streamed_hunter.collector
        streamed = run_group(
            collector, plan, "ur", group, epoch, epoch, collector.reduce_ur
        )
        network = listed_hunter.network
        network.set_clock(epoch)
        network._fault_rng = random.Random(
            group_fault_seed(network.fault_seed, group.server_ip)
        )
        listed, _ = _list_execute_group(listed_hunter, plan, group)
        assert streamed.outcomes == listed.outcomes
        indices = [outcome.index for outcome in streamed.outcomes]
        assert indices == sorted(set(indices))
        assert set(indices) <= set(group.unit_indices)
        assert all(outcome.urs for outcome in streamed.outcomes)
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
    undelegated = hunter.stage1_collect().undelegated
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
            ReducedOutcome(3, (record("a.example", two, "1.1.1.1"),)),
            ReducedOutcome(
                5,
                (
                    record("b.example", two, "2.2.2.2"),
                    record("A.example", two, "1.1.1.1"),
                ),
            ),
        ]
    )
    fold.add(
        [
            ReducedOutcome(
                1,
                (
                    record("a.example", one, "1.1.1.1"),
                    record("a.example", one, "1.1.1.1"),
                ),
            ),
            ReducedOutcome(4, (record("a.example", one, "1.1.1.1"),)),
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


def _list_run_groups(collector, plan, collection):
    """A preamble collection as one list: every server group executed
    under the runner's clock and RNG rules with its outcomes parked,
    then handed back in planned scan order as ``(unit index, outcome)``
    pairs."""
    network = collector.network
    units = plan.units(collection)
    by_server = {}
    for index, (server_ip, _, _) in enumerate(planned_rows(units)):
        by_server.setdefault(server_ip, []).append(index)
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
        engine = shards._group_engine(
            collector, server_ip, collection, start
        )
        outcomes = drive(
            engine, shards.lane_queries(network, units, indices)
        )
        parked.update(zip(indices, outcomes))
        collector.metrics.merge(engine.metrics)
        makespan = max(makespan, network.now - start)
    network._fault_rng.setstate(rng_state)
    network.set_clock(start + makespan)
    return [(index, parked[index]) for index in sorted(parked)]


def _list_collect_protective(collector, plan):
    """``collect_protective_records`` as it was before streaming."""
    fingerprints = {
        address: ProtectiveFingerprint(nameserver_ip=address)
        for address in plan.protective_units.servers
    }
    units = plan.protective_units
    for index, outcome in _list_run_groups(collector, plan, "protective"):
        response = outcome.response
        if response is None:
            continue
        if response.header.rcode != Rcode.NOERROR:
            continue
        fingerprint = fingerprints[units.servers[units.row(index)[0]]]
        for answer in response.answers:
            if isinstance(answer.rdata, A):
                fingerprint.records.add((RRType.A, answer.rdata.address))
            elif isinstance(answer.rdata, TXT):
                fingerprint.records.add((RRType.TXT, answer.rdata.value))
    return fingerprints


def _list_collect_correct(collector, plan, correct_db):
    """``collect_correct_records`` as it was before streaming."""
    for index, outcome in _list_run_groups(collector, plan, "correct"):
        response = outcome.response
        if response is None:
            continue
        if response.header.rcode != Rcode.NOERROR:
            continue
        domain = plan.correct_units.qname(index)
        for answer in response.answers:
            if isinstance(answer.rdata, A):
                correct_db.observe_a(domain, answer.rdata.address)
            elif isinstance(answer.rdata, TXT):
                correct_db.observe_txt(domain, answer.rdata.value)
            elif isinstance(answer.rdata, MX):
                correct_db.observe_mx(domain, answer.rdata.to_text())


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
    assert encode_stage1(streamed)["profiles"], "no correct record folded"
    assert json.dumps(encode_stage1(streamed)) == json.dumps(
        encode_stage1(listed)
    )
    assert streamed_hunter.network.now == listed_hunter.network.now
    assert (
        streamed_hunter.collector.metrics.to_dict()
        == listed_hunter.collector.metrics.to_dict()
    )
    if prepare is _lossy:
        assert streamed_hunter.collector.metrics.stage("correct").retries > 0


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
    assert stage1.undelegated
    assert peak <= STAGE1_PEAK_CEILING
    assert retained <= STAGE1_RETAINED_CEILING

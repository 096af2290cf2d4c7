"""Incremental equivalence: warm runs are byte-identical to cold runs.

The acceptance invariant of the incremental layer: a warm run that
replays stored group outcomes produces the same report summary, trace
deterministic section, and metrics deterministic section as a cold
full scan — across batch/stream execution, shard counts, and the
process pool — both on an unchanged world and after zone mutations
dirty a subset of groups.  Chaos/faulted runs must bypass the store
entirely and stay byte-identical to the store-less behavior.
"""

import json

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.longitudinal import LongitudinalStudy
from repro.dns.rdata import RRType
from repro.incremental import GroupResultStore, server_fingerprint
from repro.obs import RunTrace
from repro.obs.metrics import build_metrics_document
from repro.plan.pool import WorldSpec
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

SEED = 7
LOSS = 0.15
CHAOS = "tail-latency-storm"


def mutate_zones(world, count=3):
    """Deterministically drop one apex rrset from ``count`` cacheable
    servers' zones — the longitudinal churn (record takedowns, moved
    domains) a warm run must notice and re-execute."""
    mutated = 0
    for address in sorted(world.network.dns_hosts()):
        if mutated >= count:
            break
        if server_fingerprint(world.network, address) is None:
            continue
        service = world.network.dns_hosts()[address]
        for zone in service.zones:
            if zone.remove(zone.origin, RRType.A) or zone.remove(
                zone.origin, RRType.TXT
            ):
                mutated += 1
                break
    assert mutated == count


def run(
    store=None,
    shards=1,
    execution="batch",
    loss=0.0,
    chaos=None,
    workers=1,
    world_spec=None,
    mutate=None,
):
    """One full measurement; returns the three byte-compared surfaces."""
    world = build_world(small_config(seed=SEED))
    if mutate is not None:
        mutate(world)
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=SEED)
    config = HunterConfig(
        execution=execution, shards=shards, shard_workers=workers
    )
    hunter = URHunter.from_world(world, config)
    if chaos:
        apply_scenario(load_scenario(chaos), world, hunter)
    hunter.world_spec = world_spec
    hunter.result_store = store
    trace = RunTrace()
    hunter.attach_trace(trace)
    report = hunter.run()
    doc = build_metrics_document(report, fingerprint="pinned")
    return (
        report.summary(),
        trace.deterministic_lines(),
        json.dumps(doc["deterministic"], sort_keys=True),
    )


@pytest.fixture(scope="module")
def cold():
    return run()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("result-store")


@pytest.fixture(scope="module")
def populated(cold, store_dir):
    """The cold populate run: fills the store, must equal plain cold."""
    store = GroupResultStore(store_dir)
    surfaces = run(store=store)
    return surfaces, store


class TestWarmEqualsCold:
    def test_populate_run_matches_plain_cold(self, cold, populated):
        surfaces, store = populated
        assert surfaces == cold
        assert store.stats["hits"] == 0
        assert store.stats["stored"] == store.stats["misses"] > 0
        assert store.stats["uncacheable"] > 0

    def test_warm_batch(self, cold, populated, store_dir):
        store = GroupResultStore(store_dir)
        assert run(store=store) == cold
        assert store.stats["misses"] == store.stats["stored"] == 0
        assert store.stats["hits"] > 0

    def test_warm_streaming_sharded(self, cold, populated, store_dir):
        store = GroupResultStore(store_dir)
        assert run(store=store, execution="stream", shards=2) == cold
        assert store.stats["hits"] > 0
        assert store.stats["stored"] == 0

    def test_warm_process_pool(self, cold, populated, store_dir):
        store = GroupResultStore(store_dir)
        spec = WorldSpec(scenario=small_config(seed=SEED))
        surfaces = run(
            store=store, shards=2, workers=2, world_spec=spec
        )
        assert surfaces == cold
        assert store.stats["hits"] > 0


class TestMutationInvalidates:
    def test_warm_after_mutation_matches_cold_on_mutated_world(
        self, store_dir, populated
    ):
        cold_mutated = run(mutate=mutate_zones)
        store = GroupResultStore(store_dir)
        assert run(store=store, mutate=mutate_zones) == cold_mutated
        assert store.stats["invalidated"] > 0
        assert store.stats["hits"] > 0
        assert store.stats["stored"] == store.stats["invalidated"]

    def test_mutation_actually_changes_the_run(self, cold):
        assert run(mutate=mutate_zones) != cold

    def test_second_warm_run_hits_the_refreshed_slots(
        self, store_dir, populated
    ):
        # the previous test overwrote the invalidated slots; the same
        # mutated world now replays fully
        store = GroupResultStore(store_dir)
        run(store=store, mutate=mutate_zones)
        assert store.stats["invalidated"] == store.stats["misses"] == 0
        assert store.stats["hits"] > 0


class TestFaultedRunsBypass:
    def test_loss_run_matches_storeless_and_stores_nothing(self, tmp_path):
        baseline = run(loss=LOSS)
        store = GroupResultStore(tmp_path / "store")
        assert run(store=store, loss=LOSS) == baseline
        assert store.stats["bypassed_runs"] == 1
        assert store.identities() == []

    def test_chaos_run_matches_storeless(self, tmp_path):
        baseline = run(chaos=CHAOS)
        store = GroupResultStore(tmp_path / "store")
        assert run(store=store, chaos=CHAOS) == baseline
        assert store.stats["bypassed_runs"] == 1
        assert store.identities() == []

    def test_populated_store_never_leaks_into_a_faulted_run(
        self, populated, store_dir
    ):
        baseline = run(loss=LOSS)
        store = GroupResultStore(store_dir)
        assert run(store=store, loss=LOSS) == baseline
        assert store.stats["hits"] == 0
        assert store.stats["bypassed_runs"] == 1


class TestLongitudinalWarmRuns:
    def test_study_with_store_matches_without(self, tmp_path):
        def churn(world, index):
            mutate_zones(world, count=2)

        baseline = LongitudinalStudy(
            build_world(small_config(seed=SEED)), mutate=churn
        )
        baseline.run(rounds=2)
        store = GroupResultStore(tmp_path / "store")
        warm = LongitudinalStudy(
            build_world(small_config(seed=SEED)),
            mutate=churn,
            result_store=store,
        )
        warm.run(rounds=2)

        def stripped(report):
            # the latency-percentile line is excluded across *epochs*:
            # a ~10ms clock delta rounds differently at clock magnitude
            # 1e6 than at 3.6e6 (float ulps), so replayed slots keep the
            # population epoch's bucket rounding — same-epoch warm runs
            # (every other test in this module) compare the full summary
            return "\n".join(
                line
                for line in report.summary().splitlines()
                if "latency p50" not in line
            )

        for ours, theirs in zip(warm.snapshots, baseline.snapshots):
            assert stripped(ours.report) == stripped(theirs.report)
        assert (
            warm.snapshots[0].report.summary()
            == baseline.snapshots[0].report.summary()
        )
        # round 0 populated, round 1 (thirty virtual days later)
        # replayed every group the churn hook left alone
        assert store.stats["hits"] > 0
        assert store.stats["invalidated"] > 0
        diffs = [diff.summary() for diff in warm.diffs()]
        assert diffs == [diff.summary() for diff in baseline.diffs()]

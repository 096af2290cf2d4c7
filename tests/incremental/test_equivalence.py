"""Incremental equivalence: warm runs are byte-identical to cold runs.

The acceptance invariant of the incremental layer: a warm run that
replays stored group outcomes produces the same report summary, trace
deterministic section, and metrics deterministic section as a cold
full scan — in batch and stream execution — both on an unchanged world
and after zone mutations dirty a subset of groups.  Lossy and chaos runs replay too, each from
the slots its own fault profile keyed and never from another's.
"""

import json
import shutil

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.longitudinal import LongitudinalStudy, diff_reports
from repro.dns.rdata import RRType
from repro.incremental import GroupResultStore, server_fingerprint
from repro.obs import RunTrace
from repro.obs.metrics import build_metrics_document
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


def measure(
    store=None,
    execution="batch",
    loss=0.0,
    fault_seed=SEED,
    chaos=None,
    mutate=None,
    **knobs,
):
    """One full measurement; returns the three byte-compared surfaces
    and the hunter that produced them."""
    world = build_world(small_config(seed=SEED))
    if mutate is not None:
        mutate(world)
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=fault_seed)
    hunter = URHunter.from_world(
        world, HunterConfig(execution=execution, **knobs)
    )
    if chaos:
        apply_scenario(load_scenario(chaos), world, hunter)
    hunter.result_store = store
    trace = RunTrace()
    hunter.attach_trace(trace)
    report = hunter.run()
    doc = build_metrics_document(report, fingerprint="pinned")
    surfaces = (
        report.summary(),
        trace.deterministic_lines(),
        json.dumps(doc["deterministic"], sort_keys=True),
    )
    return surfaces, hunter


def run(**inputs):
    """One full measurement; returns the three byte-compared surfaces."""
    return measure(**inputs)[0]


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

    def test_warm_streaming(self, cold, populated, store_dir):
        store = GroupResultStore(store_dir)
        assert run(store=store, execution="stream") == cold
        assert store.stats["hits"] > 0
        assert store.stats["stored"] == 0


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

    def test_run_deadline_keys_the_budget_the_preamble_spent(self, tmp_path):
        """The run deadline is measured from the run origin, so how much
        of it is left at the epoch is an input of every group.  With
        one hosting nameserver dead the open resolvers wait out their
        timeouts and the preamble takes 31.18 sim-s instead of 3.15:
        the deadline of 20 has passed and every UR query is shed —
        slots stored on the clean world (nothing shed) must not
        replay."""

        def offline(world):
            world.network.set_online("10.0.0.1", False)

        run(store=GroupResultStore(tmp_path), run_deadline=20)
        baseline, bare = measure(mutate=offline, run_deadline=20)
        store = GroupResultStore(tmp_path)
        surfaces, warm = measure(
            store=store, mutate=offline, run_deadline=20
        )
        assert surfaces == baseline
        assert (
            warm.resilience.shed_total
            == bare.resilience.shed_total
            > bare.collector.metrics.stage("ur").shed
            == bare.plan.unit_counts()["ur"]
        )
        assert store.stats["hits"] == 0
        assert store.stats["invalidated"] == store.stats["stored"] > 0


FAULTS = {"loss": {"loss": LOSS}, "storm": {"chaos": CHAOS}}
MODES = {"batch": {}, "stream": {"execution": "stream"}}


@pytest.fixture(scope="module")
def storeless():
    """The store-less run under each fault profile, computed once."""
    return {name: run(**faults) for name, faults in FAULTS.items()}


class TestFaultedRunsReplay:
    """A faulted run keys its own slots: it populates, replays, and
    stays byte-identical to the store-less run in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_replay_equals_storeless(self, tmp_path, storeless, faults, mode):
        inputs = dict(FAULTS[faults], **MODES[mode])
        cold = GroupResultStore(tmp_path)
        assert run(store=cold, **inputs) == storeless[faults]
        assert cold.stats["stored"] == cold.stats["misses"] > 0
        warm = GroupResultStore(tmp_path)
        assert run(store=warm, **inputs) == storeless[faults]
        assert warm.stats["hits"] == cold.stats["stored"]
        assert warm.stats["misses"] == warm.stats["invalidated"] == 0
        assert warm.stats["stored"] == 0

    @pytest.mark.parametrize(
        "other",
        [{"loss": 0.05}, {"loss": LOSS, "fault_seed": SEED + 1}, {}],
        ids=["other-rate", "other-seed", "clean"],
    )
    def test_no_cross_profile_replay(self, tmp_path, other):
        run(store=GroupResultStore(tmp_path), loss=LOSS)
        store = GroupResultStore(tmp_path)
        assert run(store=store, **other) == run(**other)
        assert store.stats["hits"] == 0
        assert store.stats["invalidated"] == store.stats["stored"] > 0

    def test_clean_slot_does_not_hit_under_loss(
        self, tmp_path, populated, store_dir, storeless
    ):
        shutil.copytree(store_dir, tmp_path / "store")
        store = GroupResultStore(tmp_path / "store")
        assert run(store=store, loss=LOSS) == storeless["loss"]
        assert store.stats["hits"] == 0
        assert store.stats["invalidated"] == store.stats["stored"] > 0


class TestLongitudinalWarmRuns:
    def test_study_with_store_matches_without(self, tmp_path):
        def churn(world, index):
            mutate_zones(world, count=2)

        baseline = LongitudinalStudy(
            build_world(small_config(seed=SEED)), mutate=churn
        )
        baseline.run(rounds=2)
        # the study's rounds, each hunter sharing one store
        store = GroupResultStore(tmp_path / "store")
        world = build_world(small_config(seed=SEED))
        warm = []
        for index in range(2):
            if index > 0:
                world.network.tick(30 * 24 * 3600.0)
                churn(world, index)
            hunter = URHunter.from_world(world)
            hunter.result_store = store
            warm.append(hunter.run(validate=False))

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

        for ours, theirs in zip(warm, baseline.snapshots):
            assert stripped(ours) == stripped(theirs.report)
        assert warm[0].summary() == baseline.snapshots[0].report.summary()
        # round 0 populated, round 1 (thirty virtual days later)
        # replayed every group the churn hook left alone
        assert store.stats["hits"] > 0
        assert store.stats["invalidated"] > 0
        assert [diff_reports(*warm).summary()] == [
            diff.summary() for diff in baseline.diffs()
        ]

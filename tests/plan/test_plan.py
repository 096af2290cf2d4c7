"""Property-style tests of the scan-plan IR.

The plan hash is the identity contract of stage 1: a pure function of
the world fingerprint and the scan-shaping config knobs, invariant
under the order groups run in and the iteration order of the
world's dicts and sets.  These tests pin that contract — a
hash that moved under an execution knob would let a resumed run
silently execute a different scan than the one the checkpoint
fingerprint promises.
"""

import random

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import DomainTarget, NameserverTarget
from repro.dns.name import name
from repro.plan.scanplan import build_plan
from repro.scenario import build_world, small_config

from ..conftest import planned_rows

SEED = 7


def make_hunter(**overrides):
    world = build_world(small_config(seed=SEED))
    return URHunter.from_world(world, HunterConfig(**overrides))


@pytest.fixture(scope="module")
def hunter():
    return make_hunter()


@pytest.fixture(scope="module")
def plan(hunter):
    return hunter.plan


class TestHashPurity:
    def test_hash_is_64_hex(self, plan):
        assert len(plan.plan_hash) == 64
        int(plan.plan_hash, 16)

    def test_rebuilt_world_reproduces_the_hash(self, plan):
        assert make_hunter().plan.plan_hash == plan.plan_hash

    def test_scan_seed_changes_the_hash(self, plan):
        assert make_hunter(seed=2).plan.plan_hash != plan.plan_hash

    def test_world_changes_the_hash(self, plan):
        world = build_world(small_config(seed=SEED + 1))
        other = URHunter.from_world(world)
        assert other.plan.plan_hash != plan.plan_hash

    def test_fingerprint_binds_the_plan(self, hunter):
        world = build_world(small_config(seed=SEED + 1))
        other = URHunter.from_world(world)
        assert hunter._config_fingerprint() != other._config_fingerprint()


class TestHashInvariance:
    """Execution knobs must never leak into the plan identity."""

    def test_invariant_under_execution_mode(self, plan):
        varied = make_hunter(execution="stream")
        assert varied.plan.plan_hash == plan.plan_hash

    def test_invariant_under_delegation_dict_order(self, hunter, plan):
        items = list(hunter.delegated_to.items())
        shuffled = list(items)
        random.Random(0).shuffle(shuffled)
        for variant in (dict(reversed(items)), dict(shuffled)):
            rebuilt = build_plan(
                hunter.nameservers,
                hunter.domains,
                variant,
                hunter.open_resolver_ips,
                hunter.config,
            )
            assert rebuilt.plan_hash == plan.plan_hash
            assert planned_rows(rebuilt.ur_units) == planned_rows(
                plan.ur_units
            )


class TestEnumerationContract:
    """The plan replays the collector's legacy draw sequence exactly:
    one ``Random(seed)``, correct matrix shuffled first, UR second,
    protective never."""

    def test_draw_for_draw_shuffle_replication(self, hunter, plan):
        rng = random.Random(hunter.config.seed)
        correct = [
            (resolver_ip, target.domain.to_text(), int(qtype))
            for resolver_ip in hunter.open_resolver_ips
            for target in hunter.domains
            for qtype in hunter.config.query_types
        ]
        rng.shuffle(correct)
        ur = [
            (nameserver.address, target.domain.to_text(), int(qtype))
            for nameserver in hunter.nameservers
            for target in hunter.domains
            if nameserver.address
            not in hunter.delegated_to.get(target.domain, set())
            for qtype in hunter.config.query_types
        ]
        rng.shuffle(ur)
        assert [
            (server_ip, qname.to_text(), int(qtype))
            for server_ip, qname, qtype in planned_rows(plan.correct_units)
        ] == correct
        assert [
            (server_ip, qname.to_text(), int(qtype))
            for server_ip, qname, qtype in planned_rows(plan.ur_units)
        ] == ur

    def test_protective_units_are_unshuffled(self, hunter, plan):
        expected = [
            (nameserver.address, int(qtype))
            for nameserver in hunter.nameservers
            for qtype in hunter.config.query_types
        ]
        assert [
            (server_ip, int(qtype))
            for server_ip, _, qtype in planned_rows(plan.protective_units)
        ] == expected

    def test_only_correct_units_ask_for_recursion(self, plan):
        assert not plan.protective_units.recursion_desired
        assert not plan.ur_units.recursion_desired
        assert plan.correct_units.recursion_desired


class TestShardPartition:
    """The nameserver groups partition the UR units: each unit in
    exactly one group, each group aimed at one server, numbered in the
    order the group runner walks them."""

    def test_union_is_the_whole_plan_and_disjoint(self, plan):
        assert [group.index for group in plan.groups] == list(
            range(len(plan.groups))
        )
        servers = [group.server_ip for group in plan.groups]
        assert len(set(servers)) == len(servers)

    def test_groups_cover_all_ur_units_once(self, plan):
        indices = sorted(
            index
            for group in plan.groups
            for index in group.unit_indices
        )
        assert indices == list(range(plan.unit_counts()["ur"]))

    def test_groups_are_single_nameserver(self, plan):
        for group in plan.groups:
            servers = {
                server_ip
                for server_ip, _, _ in planned_rows(
                    plan.ur_units, group.unit_indices
                )
            }
            assert servers == {group.server_ip}

    def test_summary_is_deterministic(self, plan):
        assert plan.summary() == make_hunter().plan.summary()
        assert plan.plan_hash in plan.summary()


class TestSideBySideColumns:
    """The correct collection and the UR scan run side by side from one
    clock pin, so no server may be in both columns."""

    NAMESERVERS = [
        NameserverTarget(f"10.9.0.{host}", "HandBuilt") for host in (1, 2, 3)
    ]
    DOMAINS = [DomainTarget(name("victim.test"), 1)]

    def test_an_open_resolver_that_is_a_target_nameserver_is_refused(self):
        with pytest.raises(ValueError, match=r"10\.9\.0\.2 are also") as error:
            build_plan(
                self.NAMESERVERS,
                self.DOMAINS,
                {},
                ["10.9.0.2", "10.9.0.9"],
                HunterConfig(),
            )
        assert "10.9.0.9" not in str(error.value)

    def test_a_nameserver_left_out_of_the_ur_scan_may_resolve(self):
        # every target domain is delegated to it: it has no UR lane
        plan = build_plan(
            self.NAMESERVERS,
            self.DOMAINS,
            {name("victim.test"): {"10.9.0.2"}},
            ["10.9.0.2"],
            HunterConfig(),
        )
        assert "10.9.0.2" not in {group.server_ip for group in plan.groups}

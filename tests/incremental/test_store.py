"""Unit tests for the group result store: keys, slots, plan summaries.

The store's correctness argument rests on the two-level key: the
identity names the slot (stable across runs of the same plan), the
state digest decides replay (any change to the serving nameserver's
answer-relevant state, the provider policy, or the scan-shaping config
must invalidate).  These tests pin both directions — stability where
the world is unchanged, invalidation on every mutation class.
"""

import json
from dataclasses import fields

import pytest

from repro.cli import EXIT_ABORTED, EXIT_USAGE, main
from repro.core import HunterConfig, URHunter
from repro.dns.rdata import A
from repro.incremental import (
    STORE_FORMAT_VERSION,
    GroupResultStore,
    PlanSummaryError,
    StoreFormatError,
    diff_plan_summaries,
    group_identity,
    group_state,
    load_plan_summary,
    plan_summary_json,
    render_plan_diff,
    scan_config_fingerprint,
    server_fingerprint,
    state_digest,
)
from repro.incremental.store import (
    PLAN_OR_LATER_STAGE_KNOBS,
    SCAN_SHAPING_KNOBS,
)
from repro.net.network import FaultProfile
from repro.pipeline.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    config_fingerprint,
)
from repro.scenario import build_world, small_config

SEED = 7

#: a store directory exactly as the format-2 build left it (bytes typed
#: here, not produced by code that may change): one slot and the stats
#: sidecar, both ``json.dump(..., indent=1)`` with ``format`` first
FORMAT_2_SLOT = """{
 "format": 2,
 "identity": "0c9d2c4a",
 "digest": "5e1f77b0",
 "group": {
  "group": 0,
  "server": "10.1.0.1",
  "elapsed": 0.02,
  "outcomes": [],
  "metrics": {},
  "resilience": null,
  "events": []
 }
}
"""
FORMAT_2_STATS = """{
 "format": 2,
 "slots": 1,
 "hits": 0,
 "misses": 1,
 "invalidated": 0,
 "stored": 1,
 "uncacheable": 0,
 "bypassed_runs": 0
}
"""

#: and as the format-3 build (the parent of format 4) left one: compact
FORMAT_3_SLOT = (
    '{"format":3,"identity":"0092313204e3f520","digest":"cebe64d5fee393ab",'
    '"group":{"group":72,"server":"10.1.0.30","elapsed":0.92,"outcomes":'
    '[{"index":110,"attempts":1,"answered":true,"urs":[]}],"metrics":{},'
    '"resilience":null,"events":[]}}'
)
FORMAT_3_STATS = (
    '{"format":3,"slots":145,"hits":0,"misses":145,"invalidated":0,'
    '"stored":145,"uncacheable":1}'
)


@pytest.fixture(scope="module")
def world():
    return build_world(small_config(seed=SEED))


@pytest.fixture(scope="module")
def hunter(world):
    return URHunter.from_world(world)


class TestGroupIdentity:
    def test_stable_across_world_rebuilds(self, hunter):
        other = URHunter.from_world(build_world(small_config(seed=SEED)))
        ours = [
            group_identity(hunter.plan, group)
            for group in hunter.plan.groups
        ]
        theirs = [
            group_identity(other.plan, group)
            for group in other.plan.groups
        ]
        assert ours == theirs

    def test_distinct_per_group(self, hunter):
        identities = [
            group_identity(hunter.plan, group)
            for group in hunter.plan.groups
        ]
        assert len(set(identities)) == len(identities)


class TestConfigFingerprint:
    def test_stable_for_equal_configs(self):
        assert scan_config_fingerprint(
            HunterConfig()
        ) == scan_config_fingerprint(HunterConfig())

    def test_scan_shaping_knobs_invalidate(self):
        base = scan_config_fingerprint(HunterConfig())
        assert scan_config_fingerprint(HunterConfig(timeout=9.0)) != base
        assert scan_config_fingerprint(HunterConfig(retries=5)) != base

    def test_perf_knobs_do_not_invalidate(self):
        # execution mode, worker counts, and sharding never change a
        # group's computed outcome
        base = scan_config_fingerprint(HunterConfig())
        for config in (
            HunterConfig(execution="stream"),
            HunterConfig(shards=4, shard_workers=2),
            HunterConfig(stage2_workers=8),
        ):
            assert scan_config_fingerprint(config) == base


class TestServerFingerprint:
    def test_cacheable_server_shape(self, world, hunter):
        fingerprint = None
        for group in hunter.plan.groups:
            fingerprint = server_fingerprint(
                world.network, group.server_ip
            )
            if fingerprint is not None:
                break
        assert fingerprint is not None
        assert set(fingerprint) == {
            "generation",
            "zones",
            "policy",
            "protective",
            "online",
        }

    def test_unknown_address_is_uncacheable(self, world):
        assert server_fingerprint(world.network, "198.51.100.254") is None

    def test_recursive_fallback_server_is_uncacheable(self, world, hunter):
        # the small world serves one group through a recursive-policy
        # nameserver; its answers depend on the wider network, so no
        # per-server stamp can make it safe to replay
        fingerprints = [
            server_fingerprint(world.network, group.server_ip)
            for group in hunter.plan.groups
        ]
        assert any(entry is None for entry in fingerprints)
        assert sum(entry is not None for entry in fingerprints) > len(
            fingerprints
        ) // 2

    def test_zone_mutation_changes_the_fingerprint(self):
        fresh = build_world(small_config(seed=SEED))
        scout = URHunter.from_world(fresh)
        for group in scout.plan.groups:
            before = server_fingerprint(fresh.network, group.server_ip)
            if before is not None:
                break
        service = fresh.network.dns_hosts()[group.server_ip]
        zone = service.zones[0]
        zone.add(zone.origin, A("203.0.113.99"), ttl=60)
        after = server_fingerprint(fresh.network, group.server_ip)
        assert after != before


class TestStateDigest:
    @staticmethod
    def digest(hunter, group, config=None, provider="GoDaddy", **anchors):
        state, reason = group_state(
            hunter.network,
            config or HunterConfig(),
            group.server_ip,
            provider,
            **anchors,
        )
        assert reason is None
        return state_digest(group_identity(hunter.plan, group), state)

    def test_every_component_invalidates(self):
        world = build_world(small_config(seed=SEED))
        network = world.network
        hunter = URHunter.from_world(world)
        group, other = [
            group
            for group in hunter.plan.groups
            if server_fingerprint(network, group.server_ip) is not None
        ][:2]
        server = group.server_ip
        seen = [self.digest(hunter, group)]
        assert seen[0] == self.digest(hunter, group)
        # a clean group reads no clock: the epoch is not an input
        assert seen[0] == self.digest(hunter, group, epoch=86_400.0)

        def moved(**inputs):
            """The digest now differs from every one taken before."""
            digest = self.digest(hunter, group, **inputs)
            assert digest not in seen
            seen.append(digest)

        moved(provider="NameSilo")
        moved(config=HunterConfig(timeout=9.0))
        network.dns_hosts()[server].zones[0].add(
            network.dns_hosts()[server].zones[0].origin,
            A("203.0.113.99"),
            ttl=60,
        )
        moved()
        # faults on another server only: the fault RNG is never drawn
        # for this group, whatever its seed
        network.set_server_faults(other.server_ip, loss_rate=0.5)
        network.add_fault_window(
            other.server_ip, FaultProfile(loss_rate=0.5, start=10.0)
        )
        network.seed_faults(99)
        assert self.digest(hunter, group) == seen[-1]
        network.clear_faults()
        # global loss: keyed by rate and seed, and still epoch-free
        network.inject_faults(loss_rate=0.15, seed=SEED)
        moved()
        assert seen[-1] == self.digest(hunter, group, epoch=86_400.0)
        network.inject_faults(loss_rate=0.05, seed=SEED)
        moved()
        network.inject_faults(loss_rate=0.05, seed=SEED + 1)
        moved()
        network.inject_faults(
            loss_rate=0.05, latency_jitter=0.01, seed=SEED + 1
        )
        moved()
        # a per-server profile replaces the global one for this server
        network.set_server_faults(server, loss_rate=0.25)
        moved()
        # a profile that reads the clock anchors the key at the epoch
        network.set_server_faults(server, flap_up=5.0, flap_down=1.0)
        assert group_state(network, HunterConfig(), server, "GoDaddy") == (
            None,
            "time-anchored",
        )
        moved(epoch=100.0)
        moved(epoch=103.0)
        network.clear_faults()
        network.add_fault_window(
            server, FaultProfile(loss_rate=0.5, start=150.0, duration=20.0)
        )
        moved(epoch=100.0)
        # ... at the window's distance from the epoch, wherever both sit
        network.clear_faults()
        network.add_fault_window(
            server, FaultProfile(loss_rate=0.5, start=250.0, duration=20.0)
        )
        assert self.digest(hunter, group, epoch=200.0) == seen[-1]
        moved(epoch=201.0)
        network.clear_faults()
        # a run deadline is measured from the run origin
        deadline = HunterConfig(run_deadline=20.0)
        assert group_state(network, deadline, server, "GoDaddy") == (
            None,
            "time-anchored",
        )
        moved(config=deadline, epoch=100.0, origin=97.0)
        moved(config=deadline, epoch=100.0, origin=70.0)
        assert seen[-1] == self.digest(
            hunter, group, config=deadline, epoch=130.0, origin=100.0
        )
        assert len(set(seen)) == len(seen)

    def test_unobservable_server_has_no_state(self, world):
        assert group_state(
            world.network, HunterConfig(), "198.51.100.254", "GoDaddy"
        ) == (None, "uncacheable")


class TestConfigPartition:
    def test_every_config_field_is_in_exactly_one_list(self):
        """A new ``HunterConfig`` field must be filed as scan-shaping,
        fingerprint-excluded, or plan/later-stage — it cannot be left
        out of the store key by being forgotten."""
        listed = (
            list(SCAN_SHAPING_KNOBS)
            + sorted(HunterConfig.FINGERPRINT_EXCLUDE)
            + list(PLAN_OR_LATER_STAGE_KNOBS)
        )
        assert len(listed) == len(set(listed))
        assert set(listed) == {field.name for field in fields(HunterConfig)}
        assert len(SCAN_SHAPING_KNOBS) == 11
        assert len(HunterConfig.FINGERPRINT_EXCLUDE) == 5
        assert len(fields(HunterConfig)) == 22

    def test_fingerprint_reads_knobs_strictly(self):
        """A knob the config does not carry raises; it is never hashed
        as ``null`` (silent under-keying)."""
        with pytest.raises(AttributeError, match="seed"):
            scan_config_fingerprint(object())


class TestKeysOfTheParentBuild:
    """Deleting a fingerprint-excluded field moves no key: literals
    taken at ``dea10b1`` (small scale, seed 7), so a result store that
    build wrote opens and replays here.  Running the correct collection
    and the UR scan side by side moved no key either: a clean UR group
    never reads the clock, and a time-anchored key hashes its distance
    from the epoch the group is pinned to.  Only the checkpoint format
    moved (stage-1 ``now`` is the scan start; v6 is refused at open),
    not the configuration fingerprint its manifest carries."""

    def test_formats_did_not_move(self):
        assert STORE_FORMAT_VERSION == 4
        assert FORMAT_VERSION == 7

    def test_config_fingerprint(self, hunter, tmp_path):
        assert config_fingerprint(HunterConfig()) == (
            "3bc0ff15970ecaa51e926def5cf8186af5780c837adbe91061dc2571e015e823"
        )
        stamped = config_fingerprint(
            HunterConfig(), extra={"plan": hunter.plan.plan_hash}
        )
        (tmp_path / "manifest.json").write_text(
            '{"format":7,"fingerprint":"bb99dcbbbbca00a1a519b660d232bb9f'
            'e1856140a0d9766e2ed7b972abf53711"}\n'
        )
        CheckpointStore(tmp_path).prepare(stamped, resume=True)

    def test_group_identity_and_state_digest(self, world, hunter):
        group = hunter.plan.groups[0]
        identity = group_identity(hunter.plan, group)
        assert (group.server_ip, identity) == (
            "10.0.0.4",
            "872bf6fdeab690ba7125ad3996d1c965e202318d210dd2f2a9a6a5653bfb0a35",
        )
        state, reason = group_state(
            world.network, HunterConfig(), group.server_ip, "GoDaddy"
        )
        assert reason is None
        assert state_digest(identity, state) == (
            "d14ba6d7f679a02aca7f3dc4af2594761c0a525f873d4fa2ebbcce33889fd178"
        )


class TestFormatRefusal:
    @pytest.mark.parametrize(
        "files, written",
        [
            ({"group-0092313204e3f520.json": FORMAT_3_SLOT}, 3),
            ({"store-stats.json": FORMAT_3_STATS}, 3),
            ({"group-0c9d2c4a.json": FORMAT_2_SLOT}, 2),
            ({"store-stats.json": FORMAT_2_STATS}, 2),
        ],
        ids=["slot", "stats", "format-2-slot", "format-2-stats"],
    )
    def test_parent_format_store_is_refused_at_open(
        self, tmp_path, files, written
    ):
        assert STORE_FORMAT_VERSION == 4
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(StoreFormatError) as refusal:
            GroupResultStore(tmp_path)
        message = str(refusal.value)
        assert str(tmp_path) in message
        assert f"format {written}" in message and "format 4" in message

    def test_cli_exits_as_unusable_input_and_leaves_the_store_alone(
        self, tmp_path, capsys
    ):
        (tmp_path / "group-0092313204e3f520.json").write_text(FORMAT_3_SLOT)
        (tmp_path / "store-stats.json").write_text(FORMAT_3_STATS)
        argv = ["--scale", "small", "--result-store", str(tmp_path)]
        for command in ("run", "plan"):
            assert main(argv + [command]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: result store {tmp_path}" in captured.err
        assert {
            path.name: path.read_text() for path in tmp_path.iterdir()
        } == {
            "group-0092313204e3f520.json": FORMAT_3_SLOT,
            "store-stats.json": FORMAT_3_STATS,
        }

    def test_parent_checkpoint_groups_are_refused_never_all_missed(
        self, tmp_path, capsys
    ):
        """``<checkpoint-dir>/groups`` as the last store-format-3 build
        left it: the manifest refuses the resume before a slot is
        looked at, and the slots refuse to open as a store on their
        own."""
        groups = tmp_path / "groups"
        groups.mkdir()
        files = {
            tmp_path / "manifest.json": '{"format":5,"fingerprint":"fp"}',
            groups / "group-0092313204e3f520.json": FORMAT_3_SLOT,
        }
        for path, text in files.items():
            path.write_text(text)
        argv = ["--scale", "small", "--checkpoint-dir", str(tmp_path)]
        assert main(argv + ["--resume", "run"]) == EXIT_ABORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot resume: checkpoint format 5 != 7" in captured.err
        assert all(path.read_text() == text for path, text in files.items())
        with pytest.raises(StoreFormatError, match="store format 3"):
            GroupResultStore(groups)

    def test_own_format_store_reopens(self, tmp_path):
        store = GroupResultStore(tmp_path)
        store.put("aaa", "d", {"group": 1})
        store.write_stats()
        assert GroupResultStore(tmp_path).get("aaa", "d") == (
            {"group": 1},
            "stored",
        )


class TestStoreSlots:
    def test_empty_store_misses(self, tmp_path):
        store = GroupResultStore(tmp_path / "store")
        assert store.get("abc", "digest") == (None, "miss")
        assert store.stats["misses"] == 1
        assert store.stats["hits"] == 0

    def test_put_then_get_hits(self, tmp_path):
        store = GroupResultStore(tmp_path / "store")
        payload = {"group": 3, "responses": ["..."]}
        store.put("abc", "digest-1", payload)
        assert store.get("abc", "digest-1") == (payload, "stored")
        assert store.stats == {
            "hits": 1,
            "misses": 0,
            "invalidated": 0,
            "stored": 1,
            "uncacheable": 0,
        }

    def test_stale_digest_invalidates(self, tmp_path):
        store = GroupResultStore(tmp_path / "store")
        store.put("abc", "digest-1", {"group": 3})
        assert store.get("abc", "digest-2") == (None, "stale")
        assert store.stats["invalidated"] == 1

    def test_foreign_format_invalidates(self, tmp_path):
        store = GroupResultStore(tmp_path)
        slot = tmp_path / "group-abc.json"
        slot.write_text(
            json.dumps(
                {
                    "format": STORE_FORMAT_VERSION + 1,
                    "digest": "digest-1",
                    "group": {},
                }
            )
        )
        assert store.get("abc", "digest-1") == (None, "stale")
        assert store.stats["invalidated"] == 1

    def test_torn_slot_degrades_to_a_miss(self, tmp_path):
        store = GroupResultStore(tmp_path)
        (tmp_path / "group-abc.json").write_text('{"format": 1, "dig')
        assert store.get("abc", "digest-1") == (None, "miss")
        assert store.stats["misses"] == 1

    def test_identities_are_sorted(self, tmp_path):
        store = GroupResultStore(tmp_path)
        store.put("bbb", "d", {})
        store.put("aaa", "d", {})
        assert store.identities() == ["aaa", "bbb"]

    def test_write_stats_artifact(self, tmp_path):
        store = GroupResultStore(tmp_path)
        store.put("aaa", "d", {})
        store.get("aaa", "d")
        target = store.write_stats()
        payload = json.loads(target.read_text())
        assert payload["format"] == STORE_FORMAT_VERSION
        assert payload["slots"] == 1
        assert payload["hits"] == 1
        assert payload["stored"] == 1


def _slot_writers(directory):
    """One slot of each store, keyed by the encoder its store uses:
    ``(write(payload), slot path, payload of the stored document)``."""
    results = GroupResultStore(directory)
    checkpoints = CheckpointStore(directory)
    return {
        "dumps": (
            lambda payload: results.put("abc", "digest", payload),
            directory / "group-abc.json",
            lambda document: document["group"],
        ),
        "dump": (
            lambda payload: checkpoints.save("stage1-collect", payload),
            directory / "stage1-collect.json",
            lambda document: document,
        ),
    }


both_encoders = pytest.mark.parametrize("encoder", ["dumps", "dump"])


class TestAtomicWrites:
    """Both stores stage a write in a file of the writer's own."""

    @both_encoders
    def test_two_interleaved_writers_of_one_slot_both_succeed(
        self, tmp_path, monkeypatch, encoder
    ):
        write, slot, payload_of = _slot_writers(tmp_path)[encoder]
        encode = getattr(json, encoder)
        other_writer = [{"writer": "second"}]

        def encode_after_the_other_writer(*args, **kwargs):
            # the first writer has opened its staging file and written
            # nothing yet; the second now does its whole write
            if other_writer:
                write(other_writer.pop())
            return encode(*args, **kwargs)

        monkeypatch.setattr(json, encoder, encode_after_the_other_writer)
        write({"writer": "first"})
        monkeypatch.undo()
        assert payload_of(json.loads(slot.read_text())) in (
            {"writer": "first"},
            {"writer": "second"},
        )
        assert [path.name for path in tmp_path.iterdir()] == [slot.name]

    @both_encoders
    def test_a_failed_write_leaves_no_file_behind(self, tmp_path, encoder):
        write, slot, payload_of = _slot_writers(tmp_path)[encoder]
        with pytest.raises(TypeError):
            write({"ok": 1, "not json": object()})
        assert list(tmp_path.iterdir()) == []
        write({"ok": 1})
        with pytest.raises(TypeError):
            write({"ok": 2, "not json": object()})
        assert payload_of(json.loads(slot.read_text())) == {"ok": 1}
        assert [path.name for path in tmp_path.iterdir()] == [slot.name]

    def test_stale_staging_files_are_neither_read_nor_counted(self, tmp_path):
        groups = tmp_path / "groups"
        groups.mkdir()
        for directory in (tmp_path, groups):
            for name in ("group-abc.json.k3x9.tmp", "group-abc.tmp"):
                (directory / name).write_text('{"format": 1, "dig')
        (tmp_path / "manifest.json.k3x9.tmp").write_text('{"format": 5')
        store = GroupResultStore(tmp_path)
        assert store.identities() == []
        assert store.get("abc", "digest") == (None, "miss")
        assert json.loads(store.write_stats().read_text())["slots"] == 0
        checkpoints = CheckpointStore(tmp_path)
        checkpoints.prepare("fp", resume=False)
        checkpoints.prepare("fp", resume=True)
        assert not checkpoints.has("group-abc")
        assert GroupResultStore(groups).identities() == []


class TestPlanSummary:
    def test_dump_is_deterministic(self, hunter):
        other = URHunter.from_world(build_world(small_config(seed=SEED)))
        assert plan_summary_json(hunter.plan) == plan_summary_json(
            other.plan
        )

    def test_round_trip(self, tmp_path, hunter):
        dump = plan_summary_json(hunter.plan)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(dump))
        assert load_plan_summary(path) == dump

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all {",
            json.dumps([1, 2, 3]),
            json.dumps({"format": 99, "groups": []}),
            json.dumps({"format": 1}),
            json.dumps({"format": 1, "groups": [{"server": "1.2.3.4"}]}),
        ],
    )
    def test_malformed_summaries_raise(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(PlanSummaryError):
            load_plan_summary(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PlanSummaryError):
            load_plan_summary(tmp_path / "absent.json")

    def test_diff_of_identical_plans(self, hunter):
        dump = plan_summary_json(hunter.plan)
        diff = diff_plan_summaries(dump, dump)
        assert diff["identical"]
        assert diff["added"] == diff["removed"] == diff["changed"] == []
        assert "identical" in render_plan_diff(diff)

    def test_diff_surfaces_structural_changes(self, hunter):
        old = plan_summary_json(hunter.plan)
        new = json.loads(json.dumps(old))
        new["plan"] = "0" * 64
        moved = new["groups"][0]["server"]
        new["groups"][0]["identity"] = "tampered"
        dropped = new["groups"][1]["server"]
        del new["groups"][1]
        new["groups"].append(
            {
                "index": 999,
                "server": "203.0.113.250",
                "units": 1,
                "identity": "fresh",
            }
        )
        diff = diff_plan_summaries(old, new)
        assert not diff["identical"]
        assert diff["changed"] == [moved]
        assert diff["removed"] == [dropped]
        assert diff["added"] == ["203.0.113.250"]
        rendered = render_plan_diff(diff)
        assert f"changed: {moved}" in rendered
        assert f"added: 203.0.113.250" in rendered

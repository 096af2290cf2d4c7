"""Tests for the checkpoint store and the group slot codecs."""

import json
from dataclasses import dataclass

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.records import UndelegatedRecord
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine.metrics import ScanMetrics
from repro.incremental import GroupResultStore
from repro.pipeline import (
    STAGE1,
    STAGE2,
    STAGE3,
    CheckpointError,
    PipelineRunner,
    StageFailed,
)
from repro.pipeline.checkpoint import CheckpointStore, config_fingerprint
from repro.plan.shards import (
    GroupResult,
    ReducedOutcome,
    decode_group_result,
    decode_metrics,
    decode_record,
    encode_group_result,
    encode_metrics,
    encode_record,
)

from ..conftest import (
    assert_only_uncacheable_groups_sent,
    record_executed_groups,
)
from .conftest import make_world


def sample_record(rdata="10.0.0.1"):
    return UndelegatedRecord(
        domain=name("victim.example"),
        nameserver_ip="192.0.2.1",
        provider="CloflareDNS",
        rrtype=RRType.A,
        rdata_text=rdata,
        nameserver_name=name("ns1.provider.example"),
        ttl=60,
    )


class TestCodecs:
    def test_record_round_trip(self):
        record = sample_record()
        assert decode_record(encode_record(record)) == record

    def test_record_without_nameserver_name(self):
        record = UndelegatedRecord(
            domain=name("victim.example"),
            nameserver_ip="192.0.2.1",
            provider="P",
            rrtype=RRType.TXT,
            rdata_text="v=spf1 -all",
        )
        assert decode_record(encode_record(record)) == record

    def test_metrics_round_trip(self):
        metrics = ScanMetrics()
        counters = metrics.stage("ur")
        counters.queries = 10
        counters.responses = 8
        counters.timeouts = 2
        metrics.latency.record(0.02)
        metrics.latency.record(1.2)
        decoded = decode_metrics(encode_metrics(metrics))
        assert decoded.queries == 10
        assert decoded.latency.total == 2
        assert decoded.latency.percentile(50) == metrics.latency.percentile(
            50
        )
        assert decoded.summary() == metrics.summary()

    def test_group_result_round_trips_through_its_slot_json(self):
        metrics = ScanMetrics()
        metrics.stage("ur").queries = 3
        result = GroupResult(
            group=4,
            server_ip="192.0.2.1",
            elapsed=0.25,
            outcomes=[
                ReducedOutcome(3, 1, True, (sample_record(),)),
                ReducedOutcome(9, 2, False, ()),
            ],
            metrics=metrics,
            resilience={"hedges_fired": 1, "shed": {"ur": 2}},
            events=[("breaker.trip", STAGE1, {"server": "192.0.2.1"})],
        )
        payload = encode_group_result(result)
        decoded = decode_group_result(json.loads(json.dumps(payload)))
        assert encode_group_result(decoded) == payload
        assert decoded.outcomes == result.outcomes
        assert decoded.events == result.events


class TestConfigFingerprint:
    def test_stable_across_calls(self):
        config = HunterConfig()
        assert config_fingerprint(config) == config_fingerprint(
            HunterConfig()
        )

    def test_sensitive_to_config(self):
        assert config_fingerprint(HunterConfig()) != config_fingerprint(
            HunterConfig(retries=5)
        )

    def test_sensitive_to_extra(self):
        config = HunterConfig()
        assert config_fingerprint(
            config, extra={"scenario": "a"}
        ) != config_fingerprint(config, extra={"scenario": "b"})

    def test_handles_frozensets_and_enums(self):
        # enabled_conditions is a frozenset, min_severity an enum: both
        # must serialize deterministically
        one = config_fingerprint(HunterConfig())
        two = config_fingerprint(HunterConfig())
        assert one == two


class TestCheckpointStore:
    def test_fresh_prepare_clears_stale_files(self, tmp_path):
        stale = tmp_path / "stage1-collect.json"
        stale.write_text("{}")
        slot = tmp_path / "groups" / "group-abc.json"
        slot.parent.mkdir()
        slot.write_text("{}")
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        assert not stale.exists()
        assert not slot.exists()
        assert (tmp_path / "manifest.json").exists()

    def test_resume_keeps_the_group_slots(self, tmp_path):
        CheckpointStore(tmp_path).prepare("fp", resume=False)
        slot = tmp_path / "groups" / "group-abc.json"
        slot.parent.mkdir()
        slot.write_text("{}")
        CheckpointStore(tmp_path).prepare("fp", resume=True)
        assert slot.exists()

    def test_parent_format_checkpoint_does_not_resume(self, tmp_path):
        """A format-6 stage-1 snapshot's ``now`` is the end of the
        preamble (protective + correct), not the scan start, and it has
        no ``end`` to pin a resumed clock to; format 5's hedged waits
        were 0.5 s / 5 s parks.  Both are refused before a stage file is
        read, and left as they were."""
        files = {
            "manifest.json": '{"format":6,"fingerprint":"fp"}',
            "stage1-collect.json": (
                '{"undelegated":[],"protective":[],"profiles":[],'
                '"responses_seen":0,"queries_sent":0,"timeouts":0,'
                '"correct_successes":0,"metrics":null,'
                '"now":1000003.1500000004,"notes":[]}'
            ),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(CheckpointError, match="checkpoint format 6 != 8"):
            CheckpointStore(tmp_path).prepare("fp", resume=True)
        assert {
            path.name: path.read_text() for path in tmp_path.iterdir()
        } == files
        (tmp_path / "manifest.json").write_text(
            '{"format":5,"fingerprint":"fp"}'
        )
        with pytest.raises(CheckpointError, match="checkpoint format 5 != 8"):
            CheckpointStore(tmp_path).prepare("fp", resume=True)

    def test_resume_without_manifest_fails(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="no manifest"):
            store.prepare("fp", resume=True)

    def test_resume_fingerprint_mismatch_fails(self, tmp_path):
        CheckpointStore(tmp_path).prepare("fp-one", resume=False)
        with pytest.raises(CheckpointError, match="fingerprint"):
            CheckpointStore(tmp_path).prepare("fp-two", resume=True)

    def test_checkpoint_of_a_config_with_engine_knobs_is_refused(
        self, tmp_path
    ):
        """The parent build stamped ``engine`` and ``max_concurrency``
        into every manifest: such a checkpoint does not resume here."""

        @dataclass
        class ParentConfig(HunterConfig):
            engine: str = "batched"
            max_concurrency: int = 8

        CheckpointStore(tmp_path).prepare(
            config_fingerprint(ParentConfig()), resume=False
        )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            CheckpointStore(tmp_path).prepare(
                config_fingerprint(HunterConfig()), resume=True
            )

    def test_resume_never_opens_a_stage1_snapshot(self, tmp_path):
        """A directory the previous build wrote holds
        ``stage1-collect.json``: a resume keeps it as it is, unread."""
        CheckpointStore(tmp_path).prepare("fp", resume=False)
        snapshot = tmp_path / f"{STAGE1}.json"
        snapshot.write_text("{not json")
        CheckpointStore(tmp_path).prepare("fp", resume=True)
        assert snapshot.read_text() == "{not json"

    def test_corrupt_checkpoint_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore(tmp_path).prepare("fp", resume=True)

    @pytest.mark.parametrize("body", ["null", "[]", '"x"', "3"])
    def test_payload_that_is_not_an_object_raises(self, tmp_path, body):
        (tmp_path / "manifest.json").write_text(body)
        with pytest.raises(CheckpointError, match="expected a JSON object"):
            CheckpointStore(tmp_path).prepare("fp", resume=True)

    def test_failure_provenance(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        store.record_failure(
            "stage2-exclude", RuntimeError("pdns exploded")
        )
        failure = store.last_failure()
        assert failure["stage"] == "stage2-exclude"
        assert failure["error"] == "RuntimeError"
        assert "pdns exploded" in failure["message"]
        store.clear_failure()
        assert store.last_failure() is None

    def test_writes_are_atomic_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        store.save("failure.json", {"records": [1, 2, 3]})
        # no temp file left behind, and the file is valid JSON
        assert list(tmp_path.glob("*.tmp")) == []
        payload = json.loads((tmp_path / "failure.json").read_text())
        assert payload == {"records": [1, 2, 3]}


class TestPruneStale:
    """Checkpoint-directory clean-up: a directory only ever holds the
    manifest and the stage-1 groups a run stored, which stay behind as
    its resume medium until a fresh run wipes them."""

    def test_resume_rewrites_nothing(self, tmp_path, monkeypatch):
        def files():
            return {
                path.relative_to(tmp_path).as_posix(): path.read_bytes()
                for path in sorted(tmp_path.rglob("*"))
                if path.is_file()
            }

        PipelineRunner(
            URHunter.from_world(make_world()), store=CheckpointStore(tmp_path)
        ).run()
        written = files()
        assert [name for name in written if "/" not in name] == [
            "manifest.json"
        ]
        executed = record_executed_groups(monkeypatch)
        hunter = URHunter.from_world(make_world())
        PipelineRunner(
            hunter, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert_only_uncacheable_groups_sent(hunter, executed)
        assert files() == written

    def test_segments_survive_without_superseding_stage(
        self, tmp_path, monkeypatch
    ):
        import repro.plan.shards as shards

        def explode(index: int) -> None:
            raise RuntimeError(f"injected crash after group {index}")

        monkeypatch.setattr(shards, "_maybe_crash_group", explode)
        store = CheckpointStore(tmp_path)
        with pytest.raises(StageFailed):
            PipelineRunner(
                URHunter.from_world(make_world()), store=store
            ).run()
        monkeypatch.undo()
        (group,) = store.groups_path.glob("group-*.json")
        stored = group.read_text()

        hunter = URHunter.from_world(make_world())
        PipelineRunner(
            hunter, store=CheckpointStore(tmp_path), resume=True
        ).run()
        assert hunter.result_store.stats["hits"] == 1
        assert group.read_text() == stored
        # a fresh run supersedes everything the crashed one left
        store.prepare("fresh", resume=False)
        assert list(store.groups_path.glob("group-*.json")) == []

    def test_fresh_run_wipes_stage_files_it_finds(self, tmp_path):
        """A directory an older build wrote holds stage snapshots; a
        fresh run over it removes them with the rest, and writes
        none."""
        for stage in (STAGE1, STAGE2, STAGE3):
            (tmp_path / f"{stage}.json").write_text("{}")
        PipelineRunner(
            URHunter.from_world(make_world()), store=CheckpointStore(tmp_path)
        ).run()
        assert sorted(path.name for path in tmp_path.glob("*.json")) == [
            "manifest.json",
        ]


class TestLazySlots:
    """A stored group is read from its slot only when its turn comes:
    no payload waits in memory for a group that has not yet run."""

    def test_each_slot_is_read_after_the_previous_group_folds(
        self, tmp_path, monkeypatch
    ):
        from repro.plan.shards import ScanFold

        populating = URHunter.from_world(make_world())
        populating.result_store = GroupResultStore(tmp_path)
        populating.stage1_collect()
        log = []
        get, add = GroupResultStore.get, ScanFold.add

        def reading(store, identity, digest):
            log.append("get")
            return get(store, identity, digest)

        def folding(fold, outcomes):
            log.append("fold")
            return add(fold, outcomes)

        monkeypatch.setattr(GroupResultStore, "get", reading)
        monkeypatch.setattr(ScanFold, "add", folding)
        hunter = URHunter.from_world(make_world())
        hunter.result_store = GroupResultStore(tmp_path)
        hunter.stage1_collect()
        assert log.count("get") == hunter.result_store.stats["hits"] > 1
        # no two reads without a fold between them: group i's slot is
        # opened only once group i - 1 is folded
        assert "get,get" not in ",".join(log)
        assert log[-1] == "fold"

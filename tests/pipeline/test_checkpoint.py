"""Tests for the checkpoint codecs and the CheckpointStore."""

import json
from dataclasses import dataclass

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import ProtectiveFingerprint
from repro.core.correctness import CorrectRecordDatabase
from repro.core.records import UndelegatedRecord
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine.metrics import ScanMetrics
from repro.intel.ipinfo import IpInfoDatabase
from repro.pipeline import (
    STAGE1,
    STAGE2,
    STAGE3,
    CheckpointError,
    PipelineRunner,
    StageFailed,
)
from repro.pipeline.checkpoint import (
    CheckpointStore,
    config_fingerprint,
    decode_fingerprint,
    decode_metrics,
    decode_profiles,
    decode_record,
    decode_stage1,
    encode_fingerprint,
    encode_metrics,
    encode_profiles,
    encode_record,
    encode_stage1,
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

    def test_protective_fingerprint_round_trip(self):
        fingerprint = ProtectiveFingerprint(
            nameserver_ip="192.0.2.1",
            records={(RRType.A, "127.0.0.1"), (RRType.TXT, "parked")},
        )
        decoded = decode_fingerprint(encode_fingerprint(fingerprint))
        assert decoded.nameserver_ip == fingerprint.nameserver_ip
        assert decoded.records == fingerprint.records

    def test_profiles_round_trip(self):
        ipinfo = IpInfoDatabase()
        ipinfo.register_prefix("10.0.0.0/8", 64500, "TestNet", "US")
        database = CorrectRecordDatabase(ipinfo)
        database.observe_a("victim.example", "10.0.0.1")
        database.observe_txt("victim.example", "v=spf1 -all")
        decoded = decode_profiles(encode_profiles(database), ipinfo)
        original = database.profile("victim.example")
        copy = decoded.profile("victim.example")
        assert copy.ips == original.ips
        assert copy.asns == original.asns
        assert copy.countries == original.countries
        assert copy.txt_values == original.txt_values

    def test_stage1_round_trip(self):
        hunter = URHunter.from_world(make_world())
        stage1 = hunter.stage1_collect()
        payload = encode_stage1(stage1)
        decoded = decode_stage1(json.loads(json.dumps(payload)), hunter.ipinfo)
        assert encode_stage1(decoded) == payload
        assert decoded.collection.undelegated == stage1.collection.undelegated
        assert (decoded.now, decoded.end) == (stage1.now, stage1.end)

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

    def test_metrics_none_round_trip(self):
        assert encode_metrics(None) is None
        assert decode_metrics(None) is None


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

    def test_resume_matching_fingerprint_keeps_stages(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        store.save("stage1-collect", {"x": 1})
        resumed = CheckpointStore(tmp_path)
        resumed.prepare("fp", resume=True)
        assert resumed.has("stage1-collect")
        assert resumed.load("stage1-collect") == {"x": 1}

    def test_load_missing_stage_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("stage1-collect")

    def test_corrupt_checkpoint_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        (tmp_path / "stage1-collect.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load("stage1-collect")

    @pytest.mark.parametrize("body", ["null", "[]", '"x"', "3"])
    def test_payload_that_is_not_an_object_raises(self, tmp_path, body):
        store = CheckpointStore(tmp_path)
        store.prepare("fp", resume=False)
        (tmp_path / "stage1-collect.json").write_text(body)
        with pytest.raises(CheckpointError, match="expected a JSON object"):
            store.load("stage1-collect")

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
        store.save("stage1-collect", {"records": [1, 2, 3]})
        # no temp file left behind, and the file is valid JSON
        assert list(tmp_path.glob("*.tmp")) == []
        payload = json.loads(
            (tmp_path / "stage1-collect.json").read_text()
        )
        assert payload == {"records": [1, 2, 3]}


class TestPruneStale:
    """Checkpoint-directory clean-up: a directory only ever holds the
    stage-1 snapshot and the stage-1 groups a crashed run stored, which
    stay behind as its resume medium until a fresh run wipes them."""

    def test_resume_without_stage1_file_rewrites_only_stage1(self, tmp_path):
        store = CheckpointStore(tmp_path)
        PipelineRunner(URHunter.from_world(make_world()), store=store).run()
        snapshot = store.stage_file(STAGE1).read_text()
        store.stage_file(STAGE1).unlink()
        result = PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
            resume=True,
        ).run()
        assert result.executed == (STAGE1, STAGE2, STAGE3)
        assert store.stage_file(STAGE1).read_text() == snapshot
        assert not store.has(STAGE2) and not store.has(STAGE3)

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
        assert not store.has(STAGE1)

        result = PipelineRunner(
            URHunter.from_world(make_world()),
            store=CheckpointStore(tmp_path),
            resume=True,
        ).run()
        assert result.executed == (STAGE1, STAGE2, STAGE3)
        assert group.read_text() == stored
        # a fresh run supersedes everything the crashed one left
        store.prepare("fresh", resume=False)
        assert list(store.groups_path.glob("group-*.json")) == []

    def test_fresh_run_wipes_stage2_and_stage3_files_it_finds(self, tmp_path):
        """A directory an older build wrote holds stage-2/3 snapshots;
        a fresh run over it removes them with the rest."""
        for stage in (STAGE2, STAGE3):
            (tmp_path / f"{stage}.json").write_text("{}")
        PipelineRunner(
            URHunter.from_world(make_world()), store=CheckpointStore(tmp_path)
        ).run()
        assert sorted(path.name for path in tmp_path.glob("*.json")) == [
            "manifest.json",
            f"{STAGE1}.json",
        ]

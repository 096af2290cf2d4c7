"""End-to-end tests for URHunter over the shared small world."""

import pytest

from repro.core import HunterConfig, URCategory, URHunter
from repro.dns.rdata import RRType
from repro.sandbox.ids import Severity


class TestPipelineInvariants:
    def test_every_ur_classified(self, small_report):
        assert small_report.classified
        for entry in small_report.classified:
            assert entry.category in URCategory

    def test_unique_ur_keys(self, small_report):
        keys = [entry.record.key for entry in small_report.classified]
        assert len(keys) == len(set(keys))

    def test_counts_sum(self, small_report):
        counts = small_report.category_counts()
        assert sum(counts.values()) == len(small_report.classified)

    def test_all_four_categories_present(self, small_report):
        counts = small_report.category_counts()
        for category in ("correct", "protective", "unknown", "malicious"):
            assert counts[category] > 0, f"no {category} URs in scenario"

    def test_scan_metrics_attached_to_report(self, small_report):
        metrics = small_report.scan_metrics
        # the report's headline counters cover the UR sweep only
        assert metrics.stage("ur").queries == small_report.queries_sent
        assert set(metrics.stages) == {"protective", "correct", "ur"}

    def test_queries_tracked(self, small_report):
        assert small_report.queries_sent > 0
        assert small_report.responses_seen > 0

    def test_malicious_urs_have_corresponding_ips(self, small_report):
        for entry in small_report.malicious:
            assert entry.corresponding_ips
            assert any(
                small_report.ip_verdicts[address].is_malicious
                for address in entry.corresponding_ips
            )

    def test_malicious_share_in_paper_band(self, small_report):
        counts = small_report.category_counts()
        suspicious = counts["unknown"] + counts["malicious"]
        share = counts["malicious"] / suspicious
        # The paper measured 25.41%; the small test world is noisy, so
        # the band is generous (the default-scale benchmark asserts a
        # tighter one).
        assert 0.05 < share < 0.80


class TestZeroFalseNegativeValidation:
    def test_fn_rate_is_zero(self, small_report):
        """§4.2: delegated records are never labeled suspicious."""
        assert small_report.false_negative_rate == 0.0


class TestGroundTruthSeparation:
    def test_attacker_records_survive_stage2(self, small_world, small_report):
        """Attacker-planted URs survive stage 2, except via the geo
        condition: an attacker renting a server in the same country as
        the victim's hosting slips through Appendix B — a real weakness
        of the paper's design that the ablation bench quantifies."""
        for entry in small_report.classified:
            identity = (
                entry.record.domain,
                entry.record.rrtype,
                entry.record.rdata_text,
            )
            if identity in small_world.attacker_identities:
                assert entry.is_suspicious or entry.reasons == (
                    "geo-subset",
                ), entry

    def test_most_attacker_records_survive(self, small_world, small_report):
        planted = [
            entry
            for entry in small_report.classified
            if (
                entry.record.domain,
                entry.record.rrtype,
                entry.record.rdata_text,
            )
            in small_world.attacker_identities
        ]
        surviving = [entry for entry in planted if entry.is_suspicious]
        assert len(surviving) >= 0.7 * len(planted)

    def test_no_benign_record_malicious(self, small_world, small_report):
        """No correct/protective/squatter record is labeled malicious."""
        for entry in small_report.malicious:
            identity = (
                entry.record.domain,
                entry.record.rrtype,
                entry.record.rdata_text,
            )
            assert identity in small_world.attacker_identities, entry

    def test_malicious_ips_are_attacker_ips(self, small_world, small_report):
        attacker_ips = small_world.attacker.all_c2_ips()
        for verdict in small_report.ip_verdicts.values():
            if verdict.is_malicious:
                assert verdict.address in attacker_ips


class TestCaseStudyVisibility:
    def test_spf_campaign_detected(self, small_report):
        spf_urs = [
            entry
            for entry in small_report.malicious
            if str(entry.record.domain) == "speedtest.net"
            and entry.record.rrtype == RRType.TXT
        ]
        assert len(spf_urs) == 11  # 8 Namecheap + 3 CSC nameservers

    def test_specter_urs_detected_via_ids_only(self, small_report):
        specter_urs = [
            entry
            for entry in small_report.malicious
            if str(entry.record.domain) in ("ibm.com", "api.github.com")
        ]
        assert specter_urs
        for entry in specter_urs:
            for address in entry.corresponding_ips:
                verdict = small_report.ip_verdicts[address]
                if verdict.is_malicious:
                    assert verdict.label_source == "ids"

    def test_darkiot_urs_detected(self, small_report):
        darkiot_urs = [
            entry
            for entry in small_report.malicious
            if str(entry.record.domain)
            in ("api.gitlab.com", "raw.pastebin.com")
        ]
        assert darkiot_urs


class TestConfigurability:
    def test_intel_only_config(self, small_world):
        hunter = URHunter.from_world(
            small_world, HunterConfig(use_ids=False)
        )
        report = hunter.run(validate=False)
        for verdict in report.ip_verdicts.values():
            assert not verdict.ids_flagged

    def test_high_severity_threshold_shrinks_malicious(self, small_world):
        base = URHunter.from_world(small_world).run(validate=False)
        strict = URHunter.from_world(
            small_world, HunterConfig(min_severity=Severity.HIGH)
        ).run(validate=False)
        assert len(strict.malicious) <= len(base.malicious)

    def test_run_is_deterministic(self, small_world):
        first = URHunter.from_world(small_world).run(validate=False)
        second = URHunter.from_world(small_world).run(validate=False)
        assert first.category_counts() == second.category_counts()
        first_keys = {
            entry.record.key: entry.category
            for entry in first.classified
        }
        second_keys = {
            entry.record.key: entry.category
            for entry in second.classified
        }
        assert first_keys == second_keys


class TestHunterConfigValidation:
    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError, match="Appendix-B"):
            HunterConfig(enabled_conditions=frozenset({"astrology"}))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="per_server_interval"):
            HunterConfig(per_server_interval=-1.0)

    def test_empty_query_types_rejected(self):
        with pytest.raises(ValueError, match="query_types"):
            HunterConfig(query_types=())

    def test_bad_engine_knobs_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            HunterConfig(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            HunterConfig(timeout=0.0)

    def test_zero_shards_rejected(self):
        """One shard is the smallest scan there is: the in-line path
        ``shards=0`` used to select is gone."""
        assert HunterConfig().shards == 1
        with pytest.raises(ValueError, match="shards must be >= 1"):
            HunterConfig(shards=0)

    def test_engine_policy_carries_knobs(self):
        config = HunterConfig(
            retries=1,
            timeout=2.5,
            per_server_interval=130.0,
        )
        policy = config.engine_policy()
        assert policy.retries == 1
        assert policy.timeout == 2.5
        assert policy.per_server_interval == 130.0


class TestWorldLikeProtocol:
    def test_scenario_world_satisfies_protocol(self, small_world):
        from repro.core import WorldLike

        assert isinstance(small_world, WorldLike)

    def test_default_engine_is_batched(self, small_world):
        from repro.engine.batched import BatchedEngine

        hunter = URHunter.from_world(small_world)
        assert type(hunter.engine) is BatchedEngine
        assert hunter.collector.engine is hunter.engine
        assert hunter.resilience is hunter.engine.resilience

"""Stage-2 fast path: per-key dedup and byte-identity.

The optimized exclusion stage (indexed stores + per-key dedup) must be
invisible in the output: every configuration — naive, memoized,
chaos-degraded — produces the same classifications.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.suspicion import Stage2Metrics, SuspicionFilter
from repro.core.txt import _CLASSIFIERS, TxtCategory, classify_txt
from repro.pipeline import FaultPlan, FlakyIPInfo, FlakyPassiveDNS
from repro.pipeline.checkpoint import config_fingerprint
from repro.scenario import build_world, small_config

from ..conftest import naive_stage2


def _run(
    config: HunterConfig,
    seed: int = 7,
    faults: bool = False,
    naive: bool = False,
):
    """One full measurement over a fresh small world."""
    world = build_world(small_config(seed=seed))
    hunter = URHunter.from_world(world, config)
    if naive:
        naive_stage2(hunter)
    if faults:
        if world.pdns is not None:
            hunter.pdns = FlakyPassiveDNS(
                world.pdns, FaultPlan(seed=5, error_rate=0.3)
            )
        hunter.stage2_ipinfo = FlakyIPInfo(
            world.ipinfo, FaultPlan(seed=6, error_rate=0.3)
        )
    return hunter, hunter.run()


def _classification(report):
    return [
        (
            entry.record.domain,
            entry.record.nameserver_ip,
            entry.record.rrtype,
            entry.record.rdata_text,
            entry.category,
            entry.reasons,
            entry.txt_category,
        )
        for entry in report.classified
    ]


class TestByteIdentity:
    def test_workers_1_vs_4_byte_identical_report(self, monkeypatch):
        """``HunterConfig.stage2_workers`` survives only as a constant
        ``benchmarks/e2e`` reads: nothing in a run reads it."""
        _, one = _run(HunterConfig())
        monkeypatch.setattr(HunterConfig, "stage2_workers", 4)
        _, four = _run(HunterConfig())
        assert one.summary() == four.summary()
        assert _classification(one) == _classification(four)

    def test_memoized_vs_naive_same_classification(self):
        _, memoized = _run(HunterConfig())
        _, naive = _run(HunterConfig(), naive=True)
        assert memoized.stage2_metrics.memoized
        assert not naive.stage2_metrics.memoized
        assert _classification(memoized) == _classification(naive)
        assert memoized.false_negative_rate == naive.false_negative_rate

    def test_chaos_run_identical_to_naive_path(self):
        """Fault-injected sources force the exact per-record path, so a
        memoize-enabled chaos run is byte-identical to a disabled one."""
        _, enabled = _run(HunterConfig(), faults=True)
        _, disabled = _run(HunterConfig(), faults=True, naive=True)
        assert enabled.summary() == disabled.summary()
        assert _classification(enabled) == _classification(disabled)

    def test_chaos_workers_do_not_change_output(self, monkeypatch):
        _, one = _run(HunterConfig(), faults=True)
        monkeypatch.setattr(HunterConfig, "stage2_workers", 4)
        _, four = _run(HunterConfig(), faults=True)
        assert one.summary() == four.summary()


class TestMemoGate:
    def test_clean_run_is_memoized(self):
        hunter, report = _run(HunterConfig())
        assert hunter.last_checker.memoizable
        assert report.stage2_metrics is not None
        assert report.stage2_metrics.memoized

    def test_faulty_sources_disable_memoization(self):
        hunter, report = _run(HunterConfig(), faults=True)
        assert not hunter.last_checker.memoizable
        assert report.stage2_metrics is not None
        assert not report.stage2_metrics.memoized

    def test_never_faulting_wrappers_stay_memoizable(self):
        world = build_world(small_config(seed=7))
        hunter = URHunter.from_world(world, HunterConfig())
        if world.pdns is not None:
            hunter.pdns = FlakyPassiveDNS(world.pdns, FaultPlan())
        hunter.stage2_ipinfo = FlakyIPInfo(world.ipinfo, FaultPlan())
        report = hunter.run()
        assert hunter.last_checker.memoizable
        assert report.stage2_metrics.memoized


class TestMetrics:
    def test_report_carries_stage2_metrics(self):
        _, report = _run(HunterConfig())
        metrics = report.stage2_metrics
        assert metrics.records == len(report.classified)
        assert metrics.distinct_keys > 0
        assert metrics.dedup_factor >= 1.0
        assert metrics.cache_misses == metrics.distinct_keys
        assert metrics.cache_hits == (
            metrics.records
            - metrics.protective_matches
            - metrics.distinct_keys
        )
        assert "stage-2 exclusion metrics:" in report.summary()
        assert "dedup" in report.summary()

    def test_summary_excludes_scheduling_dependent_fields(self):
        metrics = Stage2Metrics(records=10, wall_s=1.5)
        assert "wall" not in metrics.summary()
        assert metrics.timing_dict()["wall_s"] == 1.5

    def test_condition_attribution(self):
        metrics = Stage2Metrics()
        metrics.attribute("ip-subset", 0.5)
        metrics.attribute("ip-subset", 0.25)
        metrics.attribute("survived-exclusion", 0.125)
        assert metrics.condition_s == {
            "ip-subset": 0.75,
            "survived-exclusion": 0.125,
        }


class TestExecutor:
    """Stage 2 evaluates its distinct keys inline: no constructor takes
    a worker count."""

    def test_rejects_bad_worker_count(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            HunterConfig(stage2_workers=0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            SuspicionFilter(None, {}, workers=0)


class TestCheckpointFingerprint:
    def test_perf_knobs_excluded_from_fingerprint(self):
        # ``execution`` is accepted for benchmarks/e2e and dropped: it
        # is not a field, so no fingerprint sees it
        base = config_fingerprint(HunterConfig())
        assert config_fingerprint(HunterConfig(execution="stream")) == base

    def test_semantic_knobs_still_fingerprinted(self):
        base = config_fingerprint(HunterConfig())
        assert config_fingerprint(HunterConfig(seed=99)) != base


class TestCombinedTxtClassifier:
    REFERENCE_CORPUS = [
        "v=spf1 ip4:192.0.2.0/24 -all",
        "v=DMARC1; p=reject",
        "v=DKIM1; k=rsa; p=MIGfMA0GCSqGSIb3DQEBAQUAA4GNADCBiQ",
        "google-site-verification=abcdefghijklmnop",
        "k=rsaAAAAB3NzaC1yc2EAAAADAQABAAABgQDJ",
        "p=MIGfMA0GCSqGSIb3DQEBAQUAA4GNADCBiQKBgQC7",
        "v=parked domain",
        "this domain is not hosted here",
        "just some free-form text",
        "",
        # precedence traps: a lower-precedence alternative matches at an
        # earlier position than a higher-precedence one
        "site-verification; k=rsaAAAAB3NzaC1yc2EAAAADAQABAAAB",
        "domain-verification=x v=spf1 -all",
        "validation-token v=dmarc1; p=none",
    ]

    def _reference(self, value):
        for category, pattern in _CLASSIFIERS:
            if pattern.search(value):
                return category
        return TxtCategory.OTHER

    def test_combined_matches_reference_loop(self):
        for value in self.REFERENCE_CORPUS:
            assert classify_txt(value) == self._reference(value), value

    def test_precedence_preserved_over_leftmost_match(self):
        # "verification" appears first in the text, but DKIM outranks it
        value = "site-verification; k=rsa p=MIGfMA0GCSqGSIb3DQEBAQUA"
        assert classify_txt(value) == TxtCategory.DKIM

    def test_no_match_stays_other(self):
        assert classify_txt("hello world") == TxtCategory.OTHER

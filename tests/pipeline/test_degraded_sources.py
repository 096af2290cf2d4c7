"""Degraded-source behaviour at the component level (satellite 3).

Covers ``UniformityChecker`` under empty and failing passive-DNS /
IP-metadata backends, and stage 3's vendor ledger across runs.
"""

from collections import Counter

from repro.cli import build_parser
from repro.core.correctness import (
    COND_AS,
    COND_CERT,
    COND_GEO,
    COND_HTTP,
    COND_IP,
    COND_PDNS,
    CorrectRecordDatabase,
    UniformityChecker,
)
from repro.core.records import UndelegatedRecord
from repro.core.suspicion import SuspicionFilter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.ipinfo import IpInfoDatabase
from repro.intel.pdns import PassiveDnsStore
from repro.pipeline import FlakyIPInfo, FlakyPassiveDNS, FlakyVendor
from repro.runspec import RunSpec

from .conftest import FailingPlan


def make_ipinfo():
    info = IpInfoDatabase()
    info.register_prefix("10.0.0.0/16", 64500, "HomeNet", "US")
    info.register_prefix("172.16.0.0/12", 64999, "ElseNet", "RU")
    return info


def make_database(ipinfo):
    database = CorrectRecordDatabase(ipinfo)
    database.observe_a("victim.example", "10.0.0.1")
    database.observe_txt("victim.example", "v=spf1 -all")
    return database


def a_record(rdata="172.16.0.9"):
    return UndelegatedRecord(
        domain=name("victim.example"),
        nameserver_ip="192.0.2.1",
        provider="P",
        rrtype=RRType.A,
        rdata_text=rdata,
    )


def txt_record(rdata="v=rogue token"):
    return UndelegatedRecord(
        domain=name("victim.example"),
        nameserver_ip="192.0.2.1",
        provider="P",
        rrtype=RRType.TXT,
        rdata_text=rdata,
    )


class TestCheckerDegradedPdns:
    def test_dead_pdns_degrades_a_record(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert COND_PDNS in verdict.degraded_conditions
        assert checker.skipped_conditions[COND_PDNS] == 1
        assert checker.source_health()["pdns"].degraded

    def test_dead_pdns_degrades_txt_record(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
        )
        verdict = checker.check(txt_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == (COND_PDNS,)

    def test_empty_but_healthy_pdns_is_not_degraded(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo), pdns=PassiveDnsStore()
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == ()
        assert checker.skipped_conditions == {}

    def test_no_pdns_configured_is_not_degraded(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(make_database(ipinfo), pdns=None)
        verdict = checker.check(txt_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == ()

    def test_transient_pdns_outage_absorbed_by_retries(self):
        ipinfo = make_ipinfo()
        pdns = PassiveDnsStore()
        pdns.observe(
            "victim.example", RRType.A, "172.16.0.9", 500.0
        )
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(pdns, FailingPlan(first=2)),
        )
        verdict = checker.check(a_record(), now=1000.0)
        # two failures, then the retry budget lands the real answer
        assert verdict.is_correct
        assert verdict.matched_condition == COND_PDNS
        assert checker.source_health()["pdns"].retries == 2


class TestCheckerDegradedIpinfo:
    def test_dead_ipinfo_skips_all_meta_conditions(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert set(verdict.degraded_conditions) == {
            COND_AS,
            COND_GEO,
            COND_CERT,
            COND_HTTP,
        }
        for condition in verdict.degraded_conditions:
            assert checker.skipped_conditions[condition] == 1

    def test_ip_subset_still_fires_without_ipinfo(self):
        # COND_IP needs no metadata: a dead ipinfo must not break it
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        verdict = checker.check(a_record(rdata="10.0.0.1"), now=1000.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_IP

    def test_healthy_ipinfo_matches_as_subset(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(make_database(ipinfo))
        verdict = checker.check(a_record(rdata="10.0.0.77"), now=1000.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_AS


class TestSuspicionDegradation:
    def test_degraded_verdict_tags_unverifiable_reason(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        outcome = SuspicionFilter(checker, {}).classify(
            [a_record()], now=1000.0
        )
        (entry,) = outcome.classified
        assert entry.is_suspicious
        tagged = [
            reason
            for reason in entry.reasons
            if reason.startswith("unverifiable:")
        ]
        assert len(tagged) == 1
        for condition in (COND_AS, COND_PDNS):
            assert condition in tagged[0]
        assert outcome.unverifiable == [entry]


class TestStage3LedgerPerRun:
    def test_second_run_asks_the_vendors_again_and_counts_only_its_calls(
        self, monkeypatch
    ):
        """Small seed 7 under a 0.3 intel fault rate, one hunter run
        twice: each run's stage 3 asks every vendor once per report,
        and its ledger counts only that run's calls."""
        spec = RunSpec.from_args(
            build_parser().parse_args(
                ["--scale", "small", "--intel-fault-rate", "0.3", "run"]
            )
        )
        _, hunter = spec.build()
        sent = Counter()
        reports = []
        is_malicious = FlakyVendor.is_malicious
        report = hunter.intel.report

        def counted_is_malicious(vendor, address):
            sent[vendor.name] += 1
            return is_malicious(vendor, address)

        def counted_report(address):
            reports.append(address)
            return report(address)

        monkeypatch.setattr(FlakyVendor, "is_malicious", counted_is_malicious)
        monkeypatch.setattr(hunter.intel, "report", counted_report)
        for _ in range(2):
            sent.clear()
            reports.clear()
            degraded = hunter.run(validate=False).degraded
            assert degraded is not None and reports
            vendors = {
                source: ledger
                for source, ledger in degraded.sources.items()
                if source.startswith("vendor:")
            }
            assert len(vendors) == len(hunter.intel.vendors)
            for vendor in hunter.intel.vendors:
                ledger = vendors[f"vendor:{vendor.name}"]
                assert ledger.calls == len(reports)
                assert sent[vendor.name] >= ledger.successes > 0

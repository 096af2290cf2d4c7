"""Tests for repro.core.suspicion: stage-2 exclusion pipeline."""

from collections import Counter

import pytest

from repro.core.collector import ProtectiveFingerprint
from repro.core.correctness import (
    CorrectRecordDatabase,
    UniformityChecker,
)
from repro.core.records import URCategory, UndelegatedRecord
from repro.core.suspicion import SuspicionFilter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.ipinfo import IpInfoDatabase

PROTECTIVE_IP = "203.0.113.250"
LEGIT_IP = "10.1.0.1"
EVIL_IP = "10.3.0.66"


@pytest.fixture
def suspicion_filter():
    ipinfo = IpInfoDatabase()
    ipinfo.register_prefix("10.1.0.0/16", 64501, "HostCo", "US")
    ipinfo.register_prefix("10.3.0.0/16", 65001, "BulletProof", "RU")
    database = CorrectRecordDatabase(ipinfo)
    database.observe_a("victim.com", LEGIT_IP)
    database.observe_txt("victim.com", "v=spf1 ip4:10.1.0.1 -all")
    checker = UniformityChecker(database)
    protective = {
        "10.99.0.1": ProtectiveFingerprint(
            nameserver_ip="10.99.0.1",
            records={
                (RRType.A, PROTECTIVE_IP),
                (RRType.TXT, "v=parked; not hosted here"),
            },
        )
    }
    return SuspicionFilter(checker, protective)


def ur(rdata, rrtype=RRType.A, ns="10.99.0.1", domain="victim.com"):
    return UndelegatedRecord(
        domain=name(domain),
        nameserver_ip=ns,
        provider="P",
        rrtype=rrtype,
        rdata_text=rdata,
    )


class TestClassification:
    def test_protective_match(self, suspicion_filter):
        outcome = suspicion_filter.classify([ur(PROTECTIVE_IP)])
        assert outcome.classified[0].category is URCategory.PROTECTIVE

    def test_protective_txt_match(self, suspicion_filter):
        outcome = suspicion_filter.classify(
            [ur("v=parked; not hosted here", rrtype=RRType.TXT)]
        )
        assert outcome.classified[0].category is URCategory.PROTECTIVE

    def test_protective_only_on_matching_nameserver(self, suspicion_filter):
        outcome = suspicion_filter.classify(
            [ur(PROTECTIVE_IP, ns="10.99.0.9")]
        )
        assert outcome.classified[0].category is not URCategory.PROTECTIVE

    def test_correct_record_excluded(self, suspicion_filter):
        outcome = suspicion_filter.classify([ur(LEGIT_IP)])
        assert outcome.classified[0].category is URCategory.CORRECT

    def test_protective_checked_before_correct(self, suspicion_filter):
        # A protective record that also happens to satisfy a condition
        # must be labeled protective.
        outcome = suspicion_filter.classify([ur(PROTECTIVE_IP)])
        assert outcome.classified[0].reasons == ("protective-fingerprint",)

    def test_attacker_record_survives_as_unknown(self, suspicion_filter):
        outcome = suspicion_filter.classify([ur(EVIL_IP)])
        entry = outcome.classified[0]
        assert entry.category is URCategory.UNKNOWN
        assert entry.is_suspicious

    def test_txt_category_attached(self, suspicion_filter):
        outcome = suspicion_filter.classify(
            [ur("v=spf1 ip4:10.3.0.66 -all", rrtype=RRType.TXT)]
        )
        assert outcome.classified[0].txt_category == "spf"

    def test_outcome_partitions(self, suspicion_filter):
        outcome = suspicion_filter.classify(
            [ur(PROTECTIVE_IP), ur(LEGIT_IP), ur(EVIL_IP)]
        )
        assert len(outcome.protective) == 1
        assert len(outcome.correct) == 1
        assert len(outcome.suspicious) == 1
        assert Counter(
            category.value for category in outcome.classified.categories()
        ) == {
            "protective": 1,
            "correct": 1,
            "unknown": 1,
        }


class TestFalseNegativeValidation:
    def test_delegated_records_all_excluded(self, suspicion_filter):
        delegated = [ur(LEGIT_IP), ur("v=spf1 ip4:10.1.0.1 -all", RRType.TXT)]
        assert suspicion_filter.false_negative_rate(delegated) == 0.0

    def test_rate_reflects_survivors(self, suspicion_filter):
        mixed = [ur(LEGIT_IP), ur(EVIL_IP)]
        assert suspicion_filter.false_negative_rate(mixed) == 0.5

    def test_empty_input(self, suspicion_filter):
        assert suspicion_filter.false_negative_rate([]) == 0.0

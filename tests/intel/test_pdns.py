"""Tests for repro.intel.pdns: the passive-DNS history store."""

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.pdns import SIX_YEARS, PassiveDnsStore


class TestObservation:
    def test_observe_and_query(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 1000.0)
        history = store.history("example.com", now=2000.0)
        assert len(history) == 1
        assert history[0].rdata_text == "192.0.2.1"

    def test_first_last_seen_widen(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 500.0)
        store.observe("example.com", RRType.A, "192.0.2.1", 100.0)
        store.observe("example.com", RRType.A, "192.0.2.1", 900.0)
        (observation,) = store.history("example.com", now=1000.0)
        assert observation.first_seen == 100.0
        assert observation.last_seen == 900.0

    def test_len_counts_unique_triples(self):
        store = PassiveDnsStore()
        store.observe("a.com", RRType.A, "1.1.1.1", 1.0)
        store.observe("a.com", RRType.A, "1.1.1.1", 2.0)
        store.observe("a.com", RRType.A, "2.2.2.2", 3.0)
        assert len(store) == 2


class TestWindowing:
    def test_horizon_excludes_ancient_records(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 10.0)
        assert store.history("example.com", now=50.0)
        assert store.history("example.com", now=10.0 + SIX_YEARS)
        assert not store.history("example.com", now=11.0 + SIX_YEARS)

    def test_future_observations_excluded(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 9_999.0)
        assert not store.history("example.com", now=100.0)

    def test_six_year_default(self):
        store = PassiveDnsStore()
        two_years = 2 * 365 * 24 * 3600.0
        store.observe("example.com", RRType.A, "192.0.2.1", 0.0)
        assert store.record_in_history(
            "example.com", RRType.A, "192.0.2.1", now=two_years
        )
        assert not store.record_in_history(
            "example.com", RRType.A, "192.0.2.1", now=SIX_YEARS + two_years
        )


class TestQueries:
    def test_record_in_history_appendix_b(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 100.0)
        assert store.record_in_history(
            "example.com", RRType.A, "192.0.2.1", now=200.0
        )
        assert not store.record_in_history(
            "example.com", RRType.A, "6.6.6.6", now=200.0
        )
        assert not store.record_in_history(
            "other.com", RRType.A, "192.0.2.1", now=200.0
        )

    def test_type_filter(self):
        store = PassiveDnsStore()
        store.observe("example.com", RRType.A, "192.0.2.1", 100.0)
        store.observe("example.com", RRType.TXT, "v=spf1 -all", 100.0)
        assert len(store.history("example.com", 200.0, RRType.TXT)) == 1
        assert store.historical_rdata("example.com", RRType.A, 200.0) == {
            "192.0.2.1"
        }

    def test_delegation_history(self):
        store = PassiveDnsStore()
        store.observe_delegation(
            "example.com", ["ns1.old.net", "ns2.old.net"], 100.0
        )
        servers = store.historical_nameservers("example.com", now=200.0)
        assert name("ns1.old.net") in servers
        assert name("ns2.old.net") in servers

    def test_domains(self):
        store = PassiveDnsStore()
        store.observe("a.com", RRType.A, "1.1.1.1", 1.0)
        store.observe("b.com", RRType.A, "1.1.1.1", 1.0)
        assert store.domains() == {name("a.com"), name("b.com")}

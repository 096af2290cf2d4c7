"""Equivalence tests: the indexed PassiveDnsStore vs a naive scan.

The indexed store must return *exactly* what a reference
O(observations) model returns — same elements, same order — under any
interleaving of ingest and query, including a query repeated after an
ingest changed its answer.  The model below is that reference:
one flat observation list, widened in place, filtered by a full scan.
"""

import random

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.pdns import SIX_YEARS, PassiveDnsStore, PdnsObservation

DOMAINS = [f"dom{i}.example" for i in range(12)]
RRTYPES = (RRType.A, RRType.TXT, RRType.NS, RRType.MX)
RDATA = [f"198.51.100.{i}" for i in range(8)] + ["v=spf1 -all", "token"]


class NaivePassiveDnsStore(PassiveDnsStore):
    """The reference model: every observation in one list, in
    first-sighting order, and every query a scan of all of them.  The
    store's delegation and membership helpers run on top unchanged."""

    def __init__(self):
        super().__init__()
        self._observations = []

    def observe(self, domain, rrtype, rdata_text, timestamp):
        domain = name(domain)
        for position, existing in enumerate(self._observations):
            if (existing.domain, existing.rrtype, existing.rdata_text) == (
                domain,
                rrtype,
                rdata_text,
            ):
                self._observations[position] = PdnsObservation(
                    domain=domain,
                    rrtype=rrtype,
                    rdata_text=rdata_text,
                    first_seen=min(existing.first_seen, timestamp),
                    last_seen=max(existing.last_seen, timestamp),
                )
                return
        self._observations.append(
            PdnsObservation(domain, rrtype, rdata_text, timestamp, timestamp)
        )

    def history(self, domain, now, rrtype=None):
        domain = name(domain)
        return [
            observation
            for observation in self._observations
            if observation.domain == domain
            and (rrtype is None or observation.rrtype == rrtype)
            and observation.last_seen >= now - SIX_YEARS
            and observation.first_seen <= now
        ]

    def historical_rdata(self, domain, rrtype, now):
        return {obs.rdata_text for obs in self.history(domain, now, rrtype)}

    def __len__(self):
        return len(self._observations)


def _mirror_stores():
    return PassiveDnsStore(), NaivePassiveDnsStore()


def _assert_equivalent(indexed, naive, domain, now, rrtype):
    fast = indexed.history(domain, now, rrtype)
    slow = naive.history(domain, now, rrtype)
    assert fast == slow  # same observations in the same order
    if rrtype is not None:
        assert indexed.historical_rdata(
            domain, rrtype, now
        ) == naive.historical_rdata(domain, rrtype, now)


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("seed", [3, 17, 91, 2024])
    def test_indexed_matches_naive_scan(self, seed):
        rng = random.Random(seed)
        indexed, naive = _mirror_stores()
        for _ in range(600):
            if rng.random() < 0.55:
                domain = rng.choice(DOMAINS)
                rrtype = rng.choice(RRTYPES)
                rdata = rng.choice(RDATA)
                stamp = rng.uniform(0.0, 3.0) * SIX_YEARS
                indexed.observe(domain, rrtype, rdata, stamp)
                naive.observe(domain, rrtype, rdata, stamp)
            else:
                domain = rng.choice(DOMAINS + ["never-seen.example"])
                now = rng.uniform(0.0, 3.5) * SIX_YEARS
                rrtype = rng.choice(RRTYPES + (None,))
                _assert_equivalent(indexed, naive, domain, now, rrtype)
        assert len(indexed) == len(naive)

    @pytest.mark.parametrize("seed", [5, 41])
    def test_repeated_queries_match_naive(self, seed):
        rng = random.Random(seed)
        indexed, naive = _mirror_stores()
        for _ in range(80):
            domain = rng.choice(DOMAINS)
            rrtype = rng.choice(RRTYPES)
            rdata = rng.choice(RDATA)
            stamp = rng.uniform(0.0, 900.0)
            indexed.observe(domain, rrtype, rdata, stamp)
            naive.observe(domain, rrtype, rdata, stamp)
        for _ in range(50):
            domain = rng.choice(DOMAINS)
            rrtype = rng.choice(RRTYPES)
            _assert_equivalent(indexed, naive, domain, 950.0, rrtype)


class TestIngestAfterQueryInvalidation:
    def test_ingest_after_query_changes_history(self):
        indexed, naive = _mirror_stores()
        for store in (indexed, naive):
            store.observe("dom0.example", RRType.A, "198.51.100.1", 10.0)
        _assert_equivalent(indexed, naive, "dom0.example", 100.0, RRType.A)
        for store in (indexed, naive):
            store.observe("dom1.example", RRType.A, "198.51.100.2", 20.0)
            store.observe("dom0.example", RRType.A, "198.51.100.3", 30.0)
        fast = indexed.history("dom0.example", 100.0, RRType.A)
        slow = naive.history("dom0.example", 100.0, RRType.A)
        assert fast == slow
        assert [obs.rdata_text for obs in fast] == [
            "198.51.100.1",
            "198.51.100.3",
        ]

    def test_record_in_history_follows_an_ingest_after_query(self):
        """Appendix B condition 5 reads the store as it stands: a record
        ingested after a negative answer turns the next answer true."""
        indexed, naive = _mirror_stores()
        for store in (indexed, naive):
            store.observe("dom3.example", RRType.A, "198.51.100.1", 10.0)
        args = ("dom3.example", RRType.A, "198.51.100.2", 100.0)
        assert not indexed.record_in_history(*args)
        assert not naive.record_in_history(*args)
        for store in (indexed, naive):
            store.observe("dom3.example", RRType.A, "198.51.100.2", 20.0)
        assert indexed.record_in_history(*args)
        assert naive.record_in_history(*args)
        assert indexed.historical_rdata(
            "dom3.example", RRType.A, 100.0
        ) == {"198.51.100.1", "198.51.100.2"}

    def test_widening_timestamps_refreshes_window_answers(self):
        indexed, naive = _mirror_stores()
        now = 50.0 + SIX_YEARS
        for store in (indexed, naive):
            store.observe("dom0.example", RRType.A, "198.51.100.1", 10.0)
        # out of window (last_seen 10 < now - SIX_YEARS = 50)
        assert indexed.history("dom0.example", now) == []
        for store in (indexed, naive):
            store.observe("dom0.example", RRType.A, "198.51.100.1", 90.0)
        _assert_equivalent(indexed, naive, "dom0.example", now, RRType.A)
        assert len(indexed.history("dom0.example", now)) == 1


class TestIndexedQueryInterface:
    def test_repeat_sighting_keeps_its_place_and_takes_the_new_spelling(
        self,
    ):
        indexed, naive = _mirror_stores()
        for store in (indexed, naive):
            store.observe("Dom7.Example", RRType.A, "198.51.100.1", 10.0)
            store.observe("dom7.example", RRType.A, "198.51.100.2", 20.0)
            store.observe("dom7.example", RRType.A, "198.51.100.1", 30.0)
        fast = indexed.history("DOM7.example", 100.0)
        assert fast == naive.history("DOM7.example", 100.0)
        assert [
            (str(obs.domain), obs.rdata_text, obs.first_seen, obs.last_seen)
            for obs in fast
        ] == [
            ("dom7.example", "198.51.100.1", 10.0, 30.0),
            ("dom7.example", "198.51.100.2", 20.0, 20.0),
        ]
        assert len(indexed) == len(naive) == 2

    def test_record_in_history_matches_naive(self):
        indexed, naive = _mirror_stores()
        for store in (indexed, naive):
            store.observe("dom2.example", RRType.TXT, "v=spf1 -all", 5.0)
        for rdata in ("v=spf1 -all", "v=spf1 +all"):
            assert indexed.record_in_history(
                "dom2.example", RRType.TXT, rdata, 100.0
            ) == naive.record_in_history(
                "dom2.example", RRType.TXT, rdata, 100.0
            )

    def test_returned_collections_are_copies(self):
        store = PassiveDnsStore()
        store.observe("dom4.example", RRType.A, "198.51.100.9", 1.0)
        first = store.history("dom4.example", 10.0)
        first.append("garbage")
        assert len(store.history("dom4.example", 10.0)) == 1
        rdata = store.historical_rdata("dom4.example", RRType.A, 10.0)
        rdata.add("garbage")
        assert store.historical_rdata("dom4.example", RRType.A, 10.0) == {
            "198.51.100.9"
        }

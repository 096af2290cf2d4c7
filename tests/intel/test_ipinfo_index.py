"""Equivalence tests: the indexed IpInfoDatabase vs a naive prefix scan.

Longest-prefix match through the length-bucketed index, the metadata
LRU, and the registration-invalidates-cache rules must all be invisible:
every lookup returns exactly what the O(prefixes) reference scan below
does, including the first-registration tie-break for duplicate networks.
"""

import ipaddress
import random

import pytest

from repro.intel.ipinfo import HttpPage, IpInfoDatabase


def _random_cidr(rng):
    prefixlen = rng.choice((8, 12, 16, 20, 24, 28))
    shift = 32 - prefixlen
    base = (rng.getrandbits(32) >> shift) << shift
    return (
        f"{(base >> 24) & 255}.{(base >> 16) & 255}."
        f"{(base >> 8) & 255}.{base & 255}/{prefixlen}"
    )


def _random_address(rng):
    value = rng.getrandbits(32)
    return (
        f"{(value >> 24) & 255}.{(value >> 16) & 255}."
        f"{(value >> 8) & 255}.{value & 255}"
    )


class NaiveIpInfoDatabase(IpInfoDatabase):
    """The reference model: no metadata cache, and every prefix lookup
    a scan of all registrations (a later one replaces the best match
    only when strictly longer)."""

    def __init__(self):
        super().__init__(cache_size=0)

    def _prefix_defaults(self, address):
        packed = ipaddress.IPv4Address(address)
        best = None
        for info in self._prefixes:
            if packed in info.network and (
                best is None
                or info.network.prefixlen > best.network.prefixlen
            ):
                best = info
        if best is None:
            return (self.UNKNOWN_ASN, "UNKNOWN", "ZZ")
        return (best.asn, best.as_name, best.country)


def _mirror_databases():
    return IpInfoDatabase(), NaiveIpInfoDatabase()


class TestPrefixIndexEquivalence:
    @pytest.mark.parametrize("seed", [1, 29, 333, 4096])
    def test_random_interleaved_registration_and_lookup(self, seed):
        rng = random.Random(seed)
        indexed, naive = _mirror_databases()
        for step in range(400):
            roll = rng.random()
            if roll < 0.25:
                cidr = _random_cidr(rng)
                asn = rng.randrange(1, 65000)
                country = rng.choice(["US", "DE", "JP", "BR"])
                for db in (indexed, naive):
                    db.register_prefix(cidr, asn, f"AS{asn}", country)
            elif roll < 0.35:
                address = _random_address(rng)
                cert = rng.choice([None, "Org A", "Org B"])
                for db in (indexed, naive):
                    db.register_host(address, cert_org=cert)
            else:
                address = _random_address(rng)
                assert indexed.lookup(address) == naive.lookup(address)

    def test_nested_prefixes_pick_longest_match(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
            db.register_prefix("10.1.0.0/16", 200, "MID", "DE")
            db.register_prefix("10.1.2.0/24", 300, "NARROW", "JP")
        for address in ("10.9.9.9", "10.1.9.9", "10.1.2.9", "192.0.2.1"):
            assert indexed.lookup(address) == naive.lookup(address)
        assert indexed.asn("10.1.2.9") == 300
        assert indexed.asn("10.1.9.9") == 200
        assert indexed.asn("10.9.9.9") == 100
        assert indexed.asn("192.0.2.1") == IpInfoDatabase.UNKNOWN_ASN

    def test_duplicate_network_keeps_first_registration(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 111, "FIRST", "US")
            db.register_prefix("10.0.0.0/8", 222, "SECOND", "DE")
        assert indexed.lookup("10.5.5.5") == naive.lookup("10.5.5.5")
        assert indexed.asn("10.5.5.5") == 111

    def test_registration_after_lookup_invalidates_index_and_cache(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        # a longer prefix arriving later must supersede the cached answer
        for db in (indexed, naive):
            db.register_prefix("10.1.0.0/16", 200, "MID", "DE")
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        assert indexed.asn("10.1.2.3") == 200

    def test_host_registration_supersedes_cached_prefix_answer(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        assert indexed.cert_org("10.1.2.3") is None
        for db in (indexed, naive):
            db.register_host(
                "10.1.2.3", cert_org="Org X", http=HttpPage.parked()
            )
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        assert indexed.cert_org("10.1.2.3") == "Org X"


class TestMetadataCache:
    def test_four_helpers_share_one_lookup(self):
        db = IpInfoDatabase()
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        db.asn("10.1.2.3")
        db.country("10.1.2.3")
        db.cert_org("10.1.2.3")
        db.http("10.1.2.3")
        # one miss assembled the metadata; the other three helpers hit
        assert db.cache_misses == 1
        assert db.cache_hits == 3

    def test_lru_evicts_oldest_entry(self):
        db = IpInfoDatabase(cache_size=2)
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        db.lookup("10.0.0.1")
        db.lookup("10.0.0.2")
        db.lookup("10.0.0.1")  # refresh 1 -> 2 becomes the eviction victim
        db.lookup("10.0.0.3")  # evicts 2
        hits_before = db.cache_hits
        db.lookup("10.0.0.1")
        assert db.cache_hits == hits_before + 1
        misses_before = db.cache_misses
        db.lookup("10.0.0.2")
        assert db.cache_misses == misses_before + 1

    def test_cache_disabled_still_correct(self):
        db = IpInfoDatabase(cache_size=0)
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        assert db.asn("10.1.2.3") == 100
        assert db.cache_hits == 0
        assert db.cache_misses == 0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            IpInfoDatabase(cache_size=-1)

    def test_invalid_address_still_raises(self):
        db = IpInfoDatabase()
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        with pytest.raises(ValueError):
            db.lookup("not-an-ip")

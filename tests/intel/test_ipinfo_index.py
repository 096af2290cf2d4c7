"""Equivalence tests: the indexed IpInfoDatabase vs a naive prefix scan.

Longest-prefix match through the length-bucketed index and the
registration-invalidates-index rule must be invisible: every lookup
returns exactly what the O(prefixes) reference scan below does,
including the first-registration tie-break for duplicate networks.
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
    """The reference model: every prefix lookup a scan of all
    registrations (a later one replaces the best match only when
    strictly longer)."""

    def __init__(self):
        super().__init__()

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
        assert indexed.lookup("10.1.2.9").asn == 300
        assert indexed.lookup("10.1.9.9").asn == 200
        assert indexed.lookup("10.9.9.9").asn == 100
        assert indexed.lookup("192.0.2.1").asn == IpInfoDatabase.UNKNOWN_ASN

    def test_duplicate_network_keeps_first_registration(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 111, "FIRST", "US")
            db.register_prefix("10.0.0.0/8", 222, "SECOND", "DE")
        assert indexed.lookup("10.5.5.5") == naive.lookup("10.5.5.5")
        assert indexed.lookup("10.5.5.5").asn == 111

    def test_registration_after_lookup_invalidates_index_and_cache(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        # a longer prefix arriving later must supersede the indexed answer
        for db in (indexed, naive):
            db.register_prefix("10.1.0.0/16", 200, "MID", "DE")
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        assert indexed.lookup("10.1.2.3").asn == 200

    def test_host_registration_supersedes_cached_prefix_answer(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        assert indexed.lookup("10.1.2.3").cert_org is None
        for db in (indexed, naive):
            db.register_host(
                "10.1.2.3", cert_org="Org X", http=HttpPage.parked()
            )
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        assert indexed.lookup("10.1.2.3").cert_org == "Org X"


class TestLookup:
    def test_invalid_address_still_raises(self):
        db = IpInfoDatabase()
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        with pytest.raises(ValueError):
            db.lookup("not-an-ip")

    def test_registered_host_is_answered_from_the_host_table(self):
        indexed, naive = _mirror_databases()
        for db in (indexed, naive):
            db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        meta = indexed.register_host("10.1.2.3", cert_org="Org X")
        naive.register_host("10.1.2.3", cert_org="Org X")
        # a longer prefix arriving later rebuilds the index but does not
        # reach the host entry: AS and country are fixed at registration
        for db in (indexed, naive):
            db.register_prefix("10.1.0.0/16", 200, "MID", "DE")
        assert indexed.lookup("10.1.2.3") is meta
        assert indexed.lookup("10.1.2.3") == naive.lookup("10.1.2.3")
        assert (meta.asn, meta.country) == (100, "US")
        assert indexed.lookup("10.1.2.4").asn == 200

    def test_prefix_answer_carries_no_host_facts(self):
        db = IpInfoDatabase()
        db.register_prefix("10.0.0.0/8", 100, "WIDE", "US")
        db.register_host(
            "10.1.2.3", cert_org="Org X", http=HttpPage.parked()
        )
        meta = db.lookup("10.1.2.4")
        assert (meta.address, meta.asn, meta.country) == (
            "10.1.2.4",
            100,
            "US",
        )
        assert meta.cert_org is None
        assert meta.http == HttpPage.none()

    @pytest.mark.parametrize("seed", [3, 29])
    def test_repeat_lookups_return_equal_answers(self, seed):
        """``deterministic = True`` is what lets stage 2 ask once per
        key: with no result cache, every repeat is a fresh equal answer."""
        rng = random.Random(seed)
        db = IpInfoDatabase()
        for asn in range(1, 41):
            db.register_prefix(_random_cidr(rng), asn, f"AS{asn}", "US")
        addresses = [_random_address(rng) for _ in range(60)]
        first = {address: db.lookup(address) for address in addresses}
        rng.shuffle(addresses)
        for address in addresses:
            assert db.lookup(address) == first[address]

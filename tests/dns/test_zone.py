"""Tests for repro.dns.zone: storage and RFC 1034 lookup semantics."""

import pytest

from repro.dns.name import name
from repro.dns.rdata import A, CNAME, NS, RRType, SOA, TXT
from repro.dns.zone import (
    LookupStatus,
    Zone,
    ZoneError,
    zone_from_records,
)


@pytest.fixture
def zone():
    built = zone_from_records(
        "example.com",
        [
            ("example.com", "A", "192.0.2.1"),
            ("example.com", "TXT", '"v=spf1 -all"'),
            ("www", "CNAME", "example.com."),
            ("api", "A", "192.0.2.2"),
            ("*.wild", "A", "192.0.2.99"),
            ("sub.deleg", "NS", "ns1.other.net."),
        ],
    )
    built.ensure_soa("ns1.example.com")
    return built


class TestMutation:
    def test_add_relative_owner(self):
        z = Zone("example.com")
        record = z.add("mail", A("10.0.0.1"))
        assert record.owner == name("mail.example.com")

    def test_add_absolute_owner(self):
        z = Zone("example.com")
        record = z.add("deep.example.com", A("10.0.0.1"))
        assert record.owner == name("deep.example.com")

    def test_duplicate_record_not_double_stored(self):
        z = Zone("example.com")
        z.add("example.com", A("10.0.0.1"))
        z.add("example.com", A("10.0.0.1"))
        assert len(z.rrset("example.com", RRType.A)) == 1

    def test_serial_bumps_on_change(self):
        z = Zone("example.com")
        before = z.serial
        z.add("example.com", A("10.0.0.1"))
        assert z.serial > before

    def test_remove_by_type(self, zone):
        removed = zone.remove("example.com", RRType.TXT)
        assert removed == 1
        assert zone.rrset("example.com", RRType.TXT) == ()

    def test_remove_all_types(self, zone):
        zone.remove("example.com")
        assert zone.rrset("example.com", RRType.A) == ()
        assert zone.rrset("example.com", RRType.SOA) == ()

    def test_remove_missing_returns_zero(self, zone):
        assert zone.remove("nothing.example.com") == 0

    def test_cname_exclusivity(self):
        z = Zone("example.com")
        z.add("www", CNAME(name("example.com")))
        with pytest.raises(ZoneError):
            z.add("www", A("10.0.0.1"))

    def test_data_then_cname_rejected(self):
        z = Zone("example.com")
        z.add("www", A("10.0.0.1"))
        with pytest.raises(ZoneError):
            z.add("www", CNAME(name("example.com")))

    def test_duplicate_cname_rejected(self):
        z = Zone("example.com")
        z.add("www", CNAME(name("a.example.com")))
        with pytest.raises(ZoneError):
            z.add("www", CNAME(name("b.example.com")))

    def test_ensure_soa_idempotent(self, zone):
        serial_before = zone.serial
        zone.ensure_soa("ns1.example.com")
        assert zone.serial == serial_before


class _CountingDict(dict):
    """A dict that counts every walk over its keys, values or items."""

    def __init__(self, *args):
        super().__init__(*args)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def values(self):
        self.iterations += 1
        return super().values()

    def items(self):
        self.iterations += 1
        return super().items()


def _counting(zone):
    zone._rrsets = _CountingDict(zone._rrsets)
    return zone._rrsets


class TestCostContract:
    """Set-up is linear: only CNAME adds and untyped removes scan."""

    def test_non_cname_adds_and_typed_removes_never_iterate(self, zone):
        rrsets = _counting(zone)
        zone.add("api", A("192.0.2.3"))
        zone.add("api", TXT.from_value("hello"))
        zone.add("api", A("192.0.2.3"))
        zone.add("new.example.com", A("192.0.2.4"))
        with pytest.raises(ZoneError):
            zone.add("www", A("192.0.2.5"))
        assert zone.remove("api", RRType.A) == 2
        assert zone.remove("api", RRType.MX) == 0
        assert zone.remove("missing", RRType.A) == 0
        assert rrsets.iterations == 0

    def test_cname_add_and_untyped_remove_still_scan(self, zone):
        rrsets = _counting(zone)
        zone.add("alias", CNAME(name("example.com")))
        assert rrsets.iterations == 1
        assert zone.remove("api") == 1
        assert rrsets.iterations == 2

    def test_cname_after_data_conflicts_across_case(self):
        z = Zone("example.com")
        z.add("WWW.example.com", A("10.0.0.1"))
        with pytest.raises(ZoneError, match="coexist"):
            z.add("www.example.com", CNAME(name("example.com")))

    def test_data_after_cname_conflicts_across_case(self):
        z = Zone("example.com")
        z.add("www.example.com", CNAME(name("example.com")))
        with pytest.raises(ZoneError, match="already has a CNAME"):
            z.add("WWW.example.com", A("10.0.0.1"))

    def test_duplicate_add_keeps_serial(self, zone):
        serial = zone.serial
        zone.add("api", A("192.0.2.2"))
        assert zone.serial == serial

    def test_typed_remove_of_absent_type_keeps_serial(self, zone):
        serial = zone.serial
        assert zone.remove("api", RRType.TXT) == 0
        assert zone.serial == serial


class TestLookup:
    def test_exact_match(self, zone):
        result = zone.lookup("example.com", RRType.A)
        assert result.status is LookupStatus.SUCCESS
        assert result.records[0].rdata == A("192.0.2.1")

    def test_case_insensitive_lookup(self, zone):
        result = zone.lookup("EXAMPLE.COM", RRType.A)
        assert result.status is LookupStatus.SUCCESS

    def test_nodata(self, zone):
        result = zone.lookup("api.example.com", RRType.TXT)
        assert result.status is LookupStatus.NODATA

    def test_nxdomain(self, zone):
        result = zone.lookup("missing.example.com", RRType.A)
        assert result.status is LookupStatus.NXDOMAIN

    def test_cname(self, zone):
        result = zone.lookup("www.example.com", RRType.A)
        assert result.status is LookupStatus.CNAME
        assert result.cname_target == name("example.com")

    def test_cname_query_for_cname_type(self, zone):
        result = zone.lookup("www.example.com", RRType.CNAME)
        assert result.status is LookupStatus.SUCCESS

    def test_wildcard_synthesis(self, zone):
        result = zone.lookup("anything.wild.example.com", RRType.A)
        assert result.status is LookupStatus.SUCCESS
        # Synthesized owner is the query name, not the wildcard.
        assert result.records[0].owner == name("anything.wild.example.com")

    def test_wildcard_does_not_match_other_types(self, zone):
        result = zone.lookup("anything.wild.example.com", RRType.TXT)
        assert result.status is LookupStatus.NXDOMAIN

    def test_delegation(self, zone):
        result = zone.lookup("host.sub.deleg.example.com", RRType.A)
        assert result.status is LookupStatus.DELEGATION
        targets = [record.rdata.target for record in result.records]
        assert name("ns1.other.net") in targets

    def test_delegation_at_cut_itself(self, zone):
        result = zone.lookup("sub.deleg.example.com", RRType.A)
        assert result.status is LookupStatus.DELEGATION

    def test_ns_query_at_cut_answers_from_zone(self, zone):
        result = zone.lookup("sub.deleg.example.com", RRType.NS)
        assert result.status is LookupStatus.SUCCESS

    def test_out_of_zone_query_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup("other.net", RRType.A)

    def test_empty_non_terminal_is_nodata(self):
        z = Zone("example.com")
        z.add("a.b", A("10.0.0.1"))
        result = z.lookup("b.example.com", RRType.A)
        assert result.status is LookupStatus.NODATA


class TestIntrospection:
    def test_owners_sorted(self, zone):
        owners = list(zone.owners())
        assert owners == sorted(owners)

    def test_len_counts_records(self, zone):
        assert len(zone) == len(list(zone.records()))

    def test_has_owner(self, zone):
        assert zone.has_owner("api.example.com")
        assert not zone.has_owner("zzz.example.com")

    def test_nameserver_targets(self):
        z = Zone("example.com")
        z.add("example.com", NS(name("ns1.example.com")))
        z.add("example.com", NS(name("ns2.example.com")))
        assert len(z.nameserver_targets()) == 2

    def test_copy_is_independent(self, zone):
        clone = zone.copy()
        clone.add("new", A("10.9.9.9"))
        assert zone.rrset("new.example.com", RRType.A) == ()
        assert clone.rrset("new.example.com", RRType.A) != ()


class TestZoneFromRecords:
    def test_builds_all_entries(self):
        z = zone_from_records(
            "x.org", [("x.org", "A", "1.2.3.4"), ("w", "A", "1.2.3.5")]
        )
        assert len(z) == 2

"""Tests for repro.net.address."""

import pytest
from hypothesis import given, strategies as st

from repro.net.address import (
    AddressError,
    AddressPool,
    Prefix,
    PrefixPlanner,
    int_to_ip,
    ip_to_int,
    same_slash24,
)


class TestConversions:
    def test_ip_to_int(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 1 << 24

    def test_int_to_ip(self):
        assert int_to_ip(0xC0000201) == "192.0.2.1"

    def test_invalid_ip(self):
        with pytest.raises(AddressError):
            ip_to_int("300.1.1.1")

    def test_int_out_of_range(self):
        with pytest.raises(AddressError):
            int_to_ip(-1)
        with pytest.raises(AddressError):
            int_to_ip(2**32)

    def test_same_slash24(self):
        assert same_slash24("10.1.2.3", "10.1.2.200")
        assert not same_slash24("10.1.2.3", "10.1.3.3")


class TestPrefix:
    def test_sequential_allocation(self):
        prefix = Prefix("10.0.0.0/30")
        assert prefix.allocate() == "10.0.0.1"
        assert prefix.allocate() == "10.0.0.2"

    def test_exhaustion(self):
        prefix = Prefix("10.0.0.0/30")
        prefix.allocate()
        prefix.allocate()
        with pytest.raises(AddressError):
            prefix.allocate()  # .3 is broadcast, .0 network

    def test_contains(self):
        prefix = Prefix("192.0.2.0/24")
        assert prefix.contains("192.0.2.5")
        assert not prefix.contains("192.0.3.5")

    def test_invalid_cidr(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.1/33")

    def test_iteration(self):
        hosts = list(Prefix("10.0.0.0/30"))
        assert hosts == ["10.0.0.1", "10.0.0.2"]


class TestAddressPool:
    def test_first_fit_across_prefixes(self):
        pool = AddressPool.from_cidrs("p", ["10.0.0.0/30", "10.0.1.0/30"])
        allocated = [pool.allocate() for _ in range(3)]
        assert allocated == ["10.0.0.1", "10.0.0.2", "10.0.1.1"]

    def test_rotation(self):
        pool = AddressPool.from_cidrs("p", ["10.0.0.0/24", "10.0.1.0/24"])
        pool.rotate = True
        first = pool.allocate()
        second = pool.allocate()
        assert first.startswith("10.0.0.")
        assert second.startswith("10.0.1.")

    def test_contains(self):
        pool = AddressPool.from_cidrs("p", "10.0.0.0/24")
        assert pool.contains("10.0.0.200")
        assert not pool.contains("10.9.0.1")

    def test_exhaustion(self):
        pool = AddressPool.from_cidrs("p", "10.0.0.0/31")
        pool.allocate()
        with pytest.raises(AddressError):
            pool.allocate()

    def test_empty_pool(self):
        pool = AddressPool(label="empty")
        with pytest.raises(AddressError):
            pool.allocate()


class TestPrefixPlanner:
    def test_disjoint_blocks(self):
        planner = PrefixPlanner()
        first = planner.next_slash16()
        second = planner.next_slash16()
        assert first != second
        pool_a = AddressPool.from_cidrs("a", first)
        assert not pool_a.contains(
            AddressPool.from_cidrs("b", second).allocate()
        )

    def test_block_rollover_to_next_octet(self):
        planner = PrefixPlanner()
        for _ in range(256):
            planner.next_slash16()
        assert planner.next_slash16() == "11.0.0.0/16"

    def test_pool_helper(self):
        planner = PrefixPlanner()
        pool = planner.pool("x")
        assert len(pool.prefixes) == 1

    def test_pools_take_consecutive_blocks(self):
        planner = PrefixPlanner()
        first, second = planner.pool("a"), planner.pool("b")
        assert first.allocate() == "10.0.0.1"
        assert second.allocate() == "10.1.0.1"

    def test_planner_exhaustion_raises(self):
        planner = PrefixPlanner()
        # the last /16 below class D (223.255.0.0/16) is handed out ...
        for _ in range((224 - PrefixPlanner.BASE_OCTET) * 256 - 1):
            planner.next_slash16()
        assert planner.next_slash16() == "223.255.0.0/16"
        # ... and nothing after it
        with pytest.raises(AddressError):
            planner.next_slash16()


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_int_ip_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value

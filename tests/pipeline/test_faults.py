"""Tests for the fault injectors and the SourceGuard."""

import dataclasses

import pytest

from repro.intel.ipinfo import IpInfoDatabase
from repro.intel.pdns import PassiveDnsStore
from repro.intel.vendor import SecurityVendor
from repro.pipeline import (
    FaultPlan,
    FlakyIPInfo,
    FlakyPassiveDNS,
    FlakyVendor,
    SourceError,
    SourceGuard,
    SourceRateLimited,
    SourceTimeout,
)
from repro.pipeline.resilience import (
    FAILURE_THRESHOLD,
    RESET_INTERVAL,
    RETRIES,
    SourceHealth,
    merge_health,
)

from .conftest import FailingPlan


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(error_rate=1.5)

    def test_full_error_rate_always_faults(self):
        plan = FaultPlan(error_rate=1.0)
        for _ in range(5):
            with pytest.raises(SourceError):
                plan.check("src")
        assert plan.calls == 5
        assert plan.faults == 5

    def test_zero_error_rate_never_faults(self):
        plan = FaultPlan(seed=3)
        for _ in range(50):
            plan.check("src")
        assert plan.calls == 50
        assert plan.faults == 0

    def test_seeded_schedule_is_deterministic(self):
        def schedule(seed):
            plan = FaultPlan(seed=seed, error_rate=0.5)
            out = []
            for _ in range(50):
                try:
                    plan.check("src")
                    out.append("ok")
                except SourceRateLimited:
                    out.append("429")
                except SourceTimeout:
                    out.append("timeout")
            return out

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_faults_are_rate_limits_or_timeouts(self):
        plan = FaultPlan(error_rate=1.0)
        kinds = set()
        for _ in range(20):
            with pytest.raises(SourceError) as raised:
                plan.check("src")
            kinds.add(type(raised.value))
        assert kinds == {SourceRateLimited, SourceTimeout}


class TestFlakyWrappers:
    def test_vendor_reads_fault(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6")
        flaky = FlakyVendor(vendor, FailingPlan())
        with pytest.raises(SourceError):
            flaky.is_malicious("6.6.6.6")
        with pytest.raises(SourceError):
            flaky.tags("6.6.6.6")

    def test_vendor_proxies_identity(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6", tags=("c2",))
        flaky = FlakyVendor(vendor, FaultPlan())
        assert flaky.name == "VT"
        assert flaky.is_malicious("6.6.6.6")
        assert flaky.tags("6.6.6.6") == vendor.tags("6.6.6.6")

    def test_pdns_reads_fault(self):
        store = PassiveDnsStore()
        store.observe("example.com", 1, "10.0.0.1", 100.0)
        flaky = FlakyPassiveDNS(store, FailingPlan())
        with pytest.raises(SourceError):
            flaky.record_in_history("example.com", 1, "10.0.0.1", 200.0)

    def test_ipinfo_lookup_faults(self):
        info = IpInfoDatabase()
        info.register_prefix("10.0.0.0/8", 64500, "TestNet", "US")
        flaky = FlakyIPInfo(info, FailingPlan())
        with pytest.raises(SourceError):
            flaky.lookup("10.0.0.1")
        clean = FlakyIPInfo(info, FaultPlan())
        assert clean.lookup("10.0.0.1").asn == 64500


class TestSourceGuard:
    def test_retries_ride_out_transient_outage(self):
        plan = FailingPlan(first=RETRIES)
        guard = SourceGuard()
        ok, value = guard.try_call(
            "src", lambda: (plan.check("src"), "data")[1]
        )
        assert ok and value == "data"
        health = guard.snapshot()["src"]
        assert health.retries == 2
        assert health.failures == 0
        assert not health.degraded

    def test_dead_source_opens_circuit_then_skips(self):
        guard = SourceGuard()
        attempts = []

        def call():
            # timeouts only: a rate limit would cool the source down
            # before its circuit opens
            attempts.append("src")
            raise SourceTimeout("src")

        for _ in range(FAILURE_THRESHOLD):
            assert guard.try_call("src", call) == (False, None)
        # circuit is now open: the call is skipped, not attempted
        attempts_before = len(attempts)
        assert attempts_before == FAILURE_THRESHOLD * (RETRIES + 1)
        assert guard.try_call("src", call) == (False, None)
        assert len(attempts) == attempts_before
        health = guard.snapshot()["src"]
        assert health.dead
        assert health.skipped == 1

    def test_ratelimit_triggers_cooldown_skip(self):
        guard = SourceGuard()

        def always_429():
            raise SourceRateLimited("src")

        assert guard.try_call("src", always_429) == (False, None)
        # within the cool-down window the next call is skipped unsent
        assert guard.try_call("src", lambda: "data") == (False, None)
        health = guard.snapshot()["src"]
        assert health.rate_limited == RETRIES + 1
        assert health.skipped == 1

    def test_open_circuit_probes_after_reset_interval(self):
        guard = SourceGuard()

        def down():
            raise SourceTimeout("src")

        for _ in range(FAILURE_THRESHOLD):
            guard.try_call("src", down)
        assert guard.try_call("src", lambda: "data") == (False, None)
        # each guarded call advances the guard's clock by one
        for _ in range(int(RESET_INTERVAL) - 2):
            guard.try_call("other", lambda: None)
        assert guard.try_call("src", lambda: "data") == (True, "data")
        assert not guard.snapshot()["src"].dead

    def test_recovered_source_answers_after_its_cool_down(self):
        """A cool-down that outlasts the reset interval must not eat the
        half-open probe: once both have passed, a recovered source is
        called again, and its circuit closes."""
        guard = SourceGuard()

        def down():
            raise SourceTimeout("src")

        def always_429():
            raise SourceRateLimited("src")

        for _ in range(FAILURE_THRESHOLD - 1):
            guard.try_call("src", down)
        # the last exhausted call opens the circuit; its RETRIES + 1
        # rate limits cool the source down for 24 guarded calls, past
        # the 16 the open circuit waits before its half-open probe
        guard.try_call("src", always_429)
        assert guard.snapshot()["src"].state == "open"
        answers = [guard.try_call("src", lambda: "data") for _ in range(200)]
        assert answers.count((True, "data")) == 200 - 23
        assert guard.snapshot()["src"].state == "closed"

    def test_snapshot_copies_every_field(self):
        guard = SourceGuard()
        ledger = guard.health("src")
        for number, spec in enumerate(dataclasses.fields(SourceHealth)):
            if spec.type in ("int", "float"):
                setattr(ledger, spec.name, number + 1)
        copy = guard.snapshot()["src"]
        assert copy is not ledger
        assert copy == dataclasses.replace(ledger, state="closed")

    def test_merge_health_copies_then_sums(self):
        first = {"src": SourceHealth("src", calls=2, retries=1)}
        second = {"src": SourceHealth("src", calls=3, state="open")}
        merged = merge_health(first)
        assert merged["src"] == first["src"]
        assert merged["src"] is not first["src"]
        merged = merge_health(first, second)
        assert merged["src"].calls == 5
        assert merged["src"].retries == 1
        assert merged["src"].state == "open"
        # the inputs are left as they were
        assert first["src"].calls == 2

    def test_non_source_errors_propagate(self):
        guard = SourceGuard()

        def boom():
            raise RuntimeError("bug, not flakiness")

        with pytest.raises(RuntimeError):
            guard.try_call("src", boom)

    def test_backoff_accounting(self):
        plan = FailingPlan(first=2)
        guard = SourceGuard()
        guard.try_call("src", lambda: plan.check("src"))
        # two retries, waiting 0.5 s then 1.0 s
        assert guard.snapshot()["src"].backoff_wait == pytest.approx(1.5)

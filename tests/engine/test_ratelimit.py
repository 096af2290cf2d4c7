"""Tests for per-server token-bucket pacing."""

import pytest

from repro.engine.ratelimit import RateLimiter, TokenBucket


class TestTokenBucket:
    def test_first_token_immediate(self):
        bucket = TokenBucket(130.0)
        assert bucket.ready_at(0.0) == 0.0

    def test_refill_after_interval(self):
        bucket = TokenBucket(130.0)
        bucket.take(0.0)
        assert bucket.ready_at(0.0) == pytest.approx(130.0)
        assert bucket.ready_at(130.0) == pytest.approx(130.0)

    def test_partial_refill_is_continuous(self):
        bucket = TokenBucket(100.0)
        bucket.take(0.0)
        assert bucket.ready_at(40.0) == pytest.approx(100.0)

    def test_idle_time_banks_one_token_only(self):
        bucket = TokenBucket(100.0)
        bucket.take(0.0)
        # a long idle spell refills one token, never more
        assert bucket.ready_at(10_000.0) == 10_000.0
        bucket.take(10_000.0)
        assert bucket.ready_at(10_000.0) == pytest.approx(10_100.0)

    def test_zero_interval_never_waits(self):
        bucket = TokenBucket(0.0)
        for _ in range(5):
            assert bucket.ready_at(3.0) == 3.0
            bucket.take(3.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0)


class TestRateLimiter:
    def test_servers_independent(self):
        limiter = RateLimiter(130.0)
        limiter.take("10.0.0.1", 0.0)
        assert limiter.ready_at("10.0.0.1", 0.0) == pytest.approx(130.0)
        assert limiter.ready_at("10.0.0.2", 0.0) == 0.0

    def test_enabled_property(self):
        assert RateLimiter(1.0).enabled
        assert not RateLimiter(0.0).enabled


class TestStrictTake:
    """Regression: take() must refuse to drive the bucket negative."""

    def test_unready_take_raises(self):
        bucket = TokenBucket(100.0)
        bucket.take(0.0)
        with pytest.raises(RuntimeError, match="not ready"):
            bucket.take(10.0)
        # the failed take must not have mutated the balance
        assert bucket.ready_at(10.0) == pytest.approx(100.0)

    def test_take_at_exact_ready_at_is_allowed(self):
        # float refill may land fractionally under one token; the
        # epsilon must absorb that, and the balance must not go negative
        bucket = TokenBucket(130.0)
        bucket.take(0.0)
        ready = bucket.ready_at(0.0)
        bucket.take(ready)
        assert bucket.tokens >= 0.0

    def test_limiter_take_propagates(self):
        limiter = RateLimiter(100.0)
        limiter.take("10.0.0.1", 0.0)
        with pytest.raises(RuntimeError, match="not ready"):
            limiter.take("10.0.0.1", 1.0)


class TestPenalize:
    """penalize() is the explicit cool-down debit: it MAY go negative."""

    def test_penalize_goes_negative_and_stretches_ready_at(self):
        bucket = TokenBucket(100.0)
        bucket.take(0.0)
        bucket.penalize(0.0)
        assert bucket.tokens == pytest.approx(-1.0)
        # two tokens short: the next send is a full two intervals away
        assert bucket.ready_at(0.0) == pytest.approx(200.0)

    def test_limiter_penalize(self):
        limiter = RateLimiter(100.0)
        limiter.penalize("10.0.0.1", 0.0)
        limiter.penalize("10.0.0.1", 0.0)
        assert limiter.ready_at("10.0.0.1", 0.0) == pytest.approx(200.0)

    def test_penalize_disabled_limiter_is_noop(self):
        limiter = RateLimiter(0.0)
        limiter.penalize("10.0.0.1", 0.0)
        assert limiter.ready_at("10.0.0.1", 5.0) == 5.0

"""Per-server pacing against the virtual clock.

Appendix A of the paper commits to roughly one query per nameserver per
130 seconds.  A token bucket per server enforces exactly that invariant
for any engine: a query may only be sent when the server's bucket holds
a token, and tokens refill at ``1 / interval`` per virtual second.
"""

from __future__ import annotations

from typing import Dict


class TokenBucket:
    """A single server's pacing bucket.

    It holds at most one token, available immediately; afterwards one
    token regenerates every ``interval`` virtual seconds.
    """

    __slots__ = ("interval", "tokens", "updated_at")

    def __init__(self, interval: float):
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.interval = interval
        self.tokens = 1.0
        self.updated_at = 0.0

    def _refill(self, now: float) -> None:
        if self.interval <= 0:
            self.tokens = 1.0
            return
        if now > self.updated_at:
            self.tokens = min(
                1.0, self.tokens + (now - self.updated_at) / self.interval
            )
        self.updated_at = max(self.updated_at, now)

    def ready_at(self, now: float) -> float:
        """Earliest virtual time a token will be available."""
        if self.interval <= 0:
            return now
        self._refill(now)
        if self.tokens >= 1.0:
            return now
        return now + (1.0 - self.tokens) * self.interval

    def take(self, now: float) -> None:
        """Consume one token; callers must have waited for readiness.

        Taking without a token would silently drive ``tokens`` negative
        and stretch every later pacing wait, so an unsatisfied take is a
        scheduling bug in the caller and raises instead of clamping:
        wait for :meth:`ready_at` first.  A caller that waited exactly
        until :meth:`ready_at` may refill to fractionally under one
        token (float rounding), so readiness is judged with an epsilon
        and the epsilon shortfall is clamped to zero, never negative.
        """
        if self.interval <= 0:
            return
        self._refill(now)
        if self.tokens < 1.0 - 1e-9:
            raise RuntimeError(
                f"token bucket not ready at t={now}: "
                f"{self.tokens:.6f} tokens (wait for ready_at first)"
            )
        self.tokens = max(self.tokens - 1.0, 0.0)

    def penalize(self, now: float) -> None:
        """Debit one token *without* a readiness check.

        Unlike :meth:`take` this may deliberately drive ``tokens``
        negative, pushing :meth:`ready_at` further into the future —
        the cool-down primitive :class:`~repro.pipeline.resilience.SourceGuard`
        uses when an upstream source reports rate-limiting.
        """
        if self.interval <= 0:
            return
        self._refill(now)
        self.tokens -= 1.0


class RateLimiter:
    """Token buckets keyed by server address."""

    def __init__(self, interval: float):
        self.interval = interval
        self._buckets: Dict[str, TokenBucket] = {}

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def _bucket(self, server_ip: str) -> TokenBucket:
        bucket = self._buckets.get(server_ip)
        if bucket is None:
            bucket = self._buckets[server_ip] = TokenBucket(self.interval)
        return bucket

    def ready_at(self, server_ip: str, now: float) -> float:
        if not self.enabled:
            return now
        return self._bucket(server_ip).ready_at(now)

    def take(self, server_ip: str, now: float) -> None:
        if not self.enabled:
            return
        self._bucket(server_ip).take(now)

    def penalize(self, server_ip: str, now: float) -> None:
        """Debit without a readiness check (see :meth:`TokenBucket.penalize`)."""
        if not self.enabled:
            return
        self._bucket(server_ip).penalize(now)

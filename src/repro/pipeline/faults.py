"""Seeded fault injection for the stage-2/3 data dependencies.

Mirrors what :meth:`repro.net.network.SimulatedInternet.inject_faults`
does for stage-1 nameservers: wrap a real dependency in a decorator that
raises :class:`~repro.pipeline.errors.SourceTimeout` /
:class:`~repro.pipeline.errors.SourceRateLimited` on a deterministic,
seeded schedule.  The chaos harness composes these with network loss to
fault all three stages at once.

The wrappers proxy exactly the reads the pipeline makes of each
source, and every lookup consults the fault plan (a vendor's ``name``
and ``version`` are passed through).
"""

from __future__ import annotations

import random
from typing import FrozenSet

from .errors import SourceRateLimited, SourceTimeout


#: share of injected faults that are rate-limit errors; the rest time out
RATELIMIT_SHARE = 0.5


class FaultPlan:
    """A deterministic schedule of faults for one wrapped source.

    Each call independently fails with probability ``error_rate``, drawn
    from a ``seed``-keyed RNG (background flakiness); a
    :data:`RATELIMIT_SHARE` of the injected faults are rate-limit
    errors, the rest timeouts.
    """

    def __init__(self, seed: int = 0, error_rate: float = 0.0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(
                f"error_rate must be in [0, 1], got {error_rate}"
            )
        self.seed = seed
        self.error_rate = error_rate
        self._rng = random.Random(seed)
        #: calls checked / faults injected, for assertions and reports
        self.calls = 0
        self.faults = 0

    def check(self, source: str) -> None:
        """Raise the scheduled fault for this call, if any."""
        self.calls += 1
        if self.error_rate == 0.0 or self._rng.random() >= self.error_rate:
            return
        self.faults += 1
        if self._rng.random() < RATELIMIT_SHARE:
            raise SourceRateLimited(source)
        raise SourceTimeout(source)


class _Flaky:
    """A wrapped source and the plan its reads consult."""

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    @property
    def deterministic(self) -> bool:
        """Deterministic only when the plan can never fault: only then
        is the wrapped source call-count independent, which stage 2's
        memo requires before it asks once per distinct key."""
        return self.plan.error_rate == 0.0 and getattr(
            self.inner, "deterministic", False
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.inner!r}, "
            f"faults={self.plan.faults})"
        )


class FlakyVendor(_Flaky):
    """A :class:`~repro.intel.vendor.SecurityVendor` that sometimes fails.

    ``is_malicious`` and ``tags`` consult the fault plan; ``name`` is
    the vendor's.
    """

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def _source(self) -> str:
        return f"vendor:{self.inner.name}"

    def is_malicious(self, address: str) -> bool:
        self.plan.check(self._source)
        return self.inner.is_malicious(address)

    def tags(self, address: str) -> FrozenSet[str]:
        self.plan.check(self._source)
        return self.inner.tags(address)


class FlakyPassiveDNS(_Flaky):
    """A :class:`~repro.intel.pdns.PassiveDnsStore` behind a flaky API."""

    SOURCE = "pdns"

    def record_in_history(self, domain, rrtype, rdata_text, now) -> bool:
        self.plan.check(self.SOURCE)
        return self.inner.record_in_history(domain, rrtype, rdata_text, now)


class FlakyIPInfo(_Flaky):
    """An :class:`~repro.intel.ipinfo.IpInfoDatabase` behind a flaky API."""

    SOURCE = "ipinfo"

    def lookup(self, address: str):
        self.plan.check(self.SOURCE)
        return self.inner.lookup(address)

"""Hosting-provider policy model.

Appendix C of the paper probes seven providers along four axes: domain
ownership verification, nameserver allocation, supported domain types, and
duplicate-hosting behaviour.  :class:`HostingPolicy` captures all of them
so one provider implementation can express every observed strategy — and
the post-disclosure mitigations (§6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Union

from ..dns.name import Name, name


class NsAllocation(enum.Enum):
    """How a provider assigns nameservers to hosted zones.

    * ``GLOBAL_FIXED`` — every customer shares one NS set (GoDaddy, Alibaba).
    * ``ACCOUNT_FIXED`` — one NS set per account, constant across that
      account's zones; different users hosting the *same* domain get
      disjoint sets (Cloudflare, Tencent).
    * ``RANDOM`` — an NS subset drawn per zone from a large pool
      (Amazon Route 53: 4 from ~2,006).
    """

    GLOBAL_FIXED = "global-fixed"
    ACCOUNT_FIXED = "account-fixed"
    RANDOM = "random"


class VerificationMode(enum.Enum):
    """Ownership-verification posture.

    * ``NONE`` — host anything, serve immediately (the pre-disclosure norm).
    * ``NOTIFY_ONLY`` — the portal nags about unfinished delegation but the
      nameservers answer anyway (Cloudflare/Tencent/Alibaba/Baidu as
      measured: "even if a user fails to verify ... the nameservers will
      still handle DNS requests").
    * ``REQUIRE_DELEGATION`` — serve only once the TLD NS records point at
      the assigned nameservers (mitigation option 1; DNSPod post-disclosure).
    * ``REQUIRE_TXT_CHALLENGE`` — serve only after a random TXT challenge in
      the domain's live zone is satisfied (mitigation option 2; Alibaba
      adopted it partially).
    """

    NONE = "none"
    NOTIFY_ONLY = "notify-only"
    REQUIRE_DELEGATION = "require-delegation"
    REQUIRE_TXT_CHALLENGE = "require-txt-challenge"

    @property
    def blocks_urs(self) -> bool:
        """True when this mode actually prevents undelegated records."""
        return self in (
            VerificationMode.REQUIRE_DELEGATION,
            VerificationMode.REQUIRE_TXT_CHALLENGE,
        )


@dataclass(frozen=True)
class HostingPolicy:
    """The full policy surface probed by Table 2.

    Defaults model the permissive industry norm the paper found; every
    provider hosts ordinary registrable domains (SLDs).
    """

    #: ownership-verification posture
    verification: VerificationMode = VerificationMode.NONE
    #: nameserver allocation strategy
    ns_allocation: NsAllocation = NsAllocation.GLOBAL_FIXED
    #: nameservers assigned per hosted zone
    nameservers_per_zone: int = 2
    #: size of the provider's NS pool (>= nameservers_per_zone)
    pool_size: int = 2
    #: accept domains that are not registered in any TLD
    allows_unregistered: bool = False
    #: accept subdomains of SLDs (e.g. api.example.com as a zone origin)
    allows_subdomains: bool = False
    #: subdomain hosting is a paid feature (Cloudflare)
    subdomains_require_payment: bool = False
    #: accept public suffixes (gov.cn-style eTLDs)
    allows_etld: bool = True
    #: domains the provider refuses to host (reserved / blacklist)
    reserved: FrozenSet[str] = frozenset()
    #: one account may host several zones for the same domain (Amazon)
    duplicates_single_user: bool = False
    #: different accounts may host the same domain (Cloudflare, Amazon,
    #: Tencent)
    duplicates_cross_user: bool = False
    #: a verified owner can evict a squatter's zone (Tencent, Alibaba);
    #: GoDaddy/ClouDNS/Amazon lack this
    supports_retrieval: bool = False
    #: nameservers answer unhosted domains with protective records
    #: (warning-site A / explanatory TXT) instead of REFUSED
    protective_records: bool = False
    #: paid accounts can sync a zone to every pool nameserver (Cloudflare)
    paid_sync_all_nameservers: bool = False
    #: for RANDOM allocation: refuse new zones for a domain once the pool
    #: is exhausted for it (the Amazon API-exhaustion attack in Appendix C)
    exhaustible_pool: bool = False
    #: every pool nameserver answers for every hosted zone, not just the
    #: assigned set (anycast fleets like Cloudflare, and Alibaba's
    #: undocumented hichina.com servers) — the reason URHunter sees
    #: enormous *correct* UR counts on such providers (Figure 2)
    serves_fleet_wide: bool = False

    def __post_init__(self) -> None:
        if self.nameservers_per_zone < 1:
            raise ValueError("need at least one nameserver per zone")
        if self.pool_size < self.nameservers_per_zone:
            raise ValueError(
                "pool must be at least as large as the per-zone allocation"
            )

    def is_reserved(self, domain: Union[str, Name]) -> bool:
        """True when ``domain`` or an ancestor is on the reserved list."""
        domain = name(domain)
        reserved_names = {name(entry) for entry in self.reserved}
        if domain in reserved_names:
            return True
        return any(
            ancestor in reserved_names for ancestor in domain.ancestors()
        )

    @property
    def hosts_without_verification(self) -> bool:
        """Table 2's "Hosting without Verification" column."""
        return not self.verification.blocks_urs


@dataclass(frozen=True)
class PolicyProbeResult:
    """Outcome of actively probing one provider (drives Table 2)."""

    provider: str
    ns_allocation: NsAllocation
    hosts_without_verification: bool
    allows_unregistered: bool
    allows_subdomain: bool
    allows_sld: bool
    allows_etld: bool
    duplicate_single_user: bool
    duplicate_cross_user: bool
    no_retrieval: bool
    notes: FrozenSet[str] = field(default_factory=frozenset)

"""Preset hosting providers modeled on the paper's Appendix C (Table 2).

Each builder returns a :class:`~repro.hosting.provider.HostingProvider`
whose policy matches the strategy the authors measured for that vendor in
2022/2023, before disclosure.  ``post_disclosure`` variants model the fixes
reported in §6 (DNSPod's full delegation check, Alibaba's partial TXT
challenge, Cloudflare's expanded blacklist).

`make_longtail_provider` generates the ~400-provider tail with policy
mixes drawn from the same distribution, so large scenarios have realistic
diversity.
"""

from __future__ import annotations

import random
from typing import Dict

from ..net.address import AddressPool, PrefixPlanner
from ..net.network import SimulatedInternet
from .policy import HostingPolicy, NsAllocation, VerificationMode
from .provider import HostingProvider

#: Extremely popular domains providers commonly blacklist.
COMMON_RESERVED = frozenset({"google.com", "facebook.com", "microsoft.com"})

#: Cloudflare's expanded blacklist after the paper's disclosure.
EXPANDED_RESERVED = COMMON_RESERVED | frozenset(
    {
        "amazon.com",
        "apple.com",
        "github.com",
        "gitlab.com",
        "ibm.com",
        "netflix.com",
        "speedtest.net",
        "twitter.com",
        "youtube.com",
    }
)


def _provider(
    provider_name: str,
    policy: HostingPolicy,
    network: SimulatedInternet,
    pool: AddressPool,
    ns_domain: str,
    seed: int = 0,
) -> HostingProvider:
    return HostingProvider(
        provider_name,
        policy,
        network,
        pool,
        ns_domain=ns_domain,
        rng=random.Random(seed),
    )


def make_cloudflare(
    network: SimulatedInternet,
    pool: AddressPool,
    post_disclosure: bool,
) -> HostingProvider:
    """Cloudflare: account-fixed NS pairs, paid subdomains & full-pool sync.

    Table 2 row: account-fixed / no verification / no unregistered /
    subdomain (paid) / SLD / eTLD / no single-user dup / cross-user dup /
    has retrieval.
    """
    policy = HostingPolicy(
        verification=VerificationMode.NOTIFY_ONLY,
        ns_allocation=NsAllocation.ACCOUNT_FIXED,
        nameservers_per_zone=2,
        pool_size=24,
        allows_unregistered=False,
        allows_subdomains=True,
        subdomains_require_payment=True,
        allows_etld=True,
        reserved=EXPANDED_RESERVED if post_disclosure else COMMON_RESERVED,
        duplicates_cross_user=True,
        supports_retrieval=True,
        paid_sync_all_nameservers=True,
        serves_fleet_wide=True,
    )
    return _provider(
        "Cloudflare", policy, network, pool, "cloudflare-ns.com", seed=11
    )


def make_amazon(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """Amazon Route 53: 4 random nameservers per zone from a large pool.

    Table 2 row: random / no verification / unregistered ✔ / subdomain ✔ /
    SLD ✔ / eTLD ✔ / dup single ✔ / dup cross ✔ / no retrieval ✔.
    The pool is exhaustible via repeated hosting (the Appendix C attack).
    """
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.RANDOM,
        nameservers_per_zone=4,
        pool_size=40,
        allows_unregistered=True,
        allows_subdomains=True,
        allows_etld=True,
        reserved=COMMON_RESERVED,
        duplicates_single_user=True,
        duplicates_cross_user=True,
        supports_retrieval=False,
        exhaustible_pool=True,
    )
    return _provider(
        "Amazon", policy, network, pool, "awsdns-pool.net", seed=12
    )


def make_cloudns(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """ClouDNS: global-fixed, very permissive, protective records for
    unhosted names (the warning-page behaviour URHunter must learn)."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=4,
        pool_size=8,
        allows_unregistered=True,
        allows_subdomains=True,
        allows_etld=True,
        reserved=frozenset(),
        supports_retrieval=False,
        protective_records=True,
    )
    return _provider(
        "ClouDNS", policy, network, pool, "cloudns-dns.net", seed=13
    )


def make_godaddy(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """GoDaddy: global-fixed pair, subdomains allowed, no retrieval."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=2,
        pool_size=4,
        allows_unregistered=False,
        allows_subdomains=True,
        allows_etld=True,
        reserved=COMMON_RESERVED,
        supports_retrieval=False,
    )
    return _provider(
        "Godaddy", policy, network, pool, "domaincontrol.com", seed=14
    )


def make_tencent(
    network: SimulatedInternet,
    pool: AddressPool,
    post_disclosure: bool,
) -> HostingProvider:
    """Tencent Cloud (DNSPod): account-fixed; post-disclosure it fully
    adopted mitigation option (1), verifying TLD delegation."""
    policy = HostingPolicy(
        verification=(
            VerificationMode.REQUIRE_DELEGATION
            if post_disclosure
            else VerificationMode.NOTIFY_ONLY
        ),
        ns_allocation=NsAllocation.ACCOUNT_FIXED,
        nameservers_per_zone=2,
        pool_size=16,
        allows_unregistered=False,
        allows_subdomains=False,
        allows_etld=True,
        reserved=COMMON_RESERVED,
        duplicates_cross_user=True,
        supports_retrieval=True,
    )
    return _provider(
        "Tencent Cloud", policy, network, pool, "dnspod-ns.net", seed=15
    )


def make_alibaba(
    network: SimulatedInternet,
    pool: AddressPool,
    post_disclosure: bool,
) -> HostingProvider:
    """Alibaba Cloud: global-fixed announced pair, but a wider pool also
    answers (the hidden hichina.com servers); post-disclosure it partially
    adopted the TXT-challenge mitigation."""
    policy = HostingPolicy(
        verification=(
            VerificationMode.REQUIRE_TXT_CHALLENGE
            if post_disclosure
            else VerificationMode.NOTIFY_ONLY
        ),
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=2,
        pool_size=8,
        allows_unregistered=False,
        allows_subdomains=True,
        allows_etld=True,
        reserved=COMMON_RESERVED,
        supports_retrieval=True,
        # The undocumented dns[1-32].hichina.com-style servers answer for
        # hosted zones too.
        serves_fleet_wide=True,
    )
    return _provider(
        "Alibaba Cloud", policy, network, pool, "alidns-pool.com", seed=16
    )


def make_baidu(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """Baidu Cloud: global-fixed, no subdomains, no unregistered."""
    policy = HostingPolicy(
        verification=VerificationMode.NOTIFY_ONLY,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=2,
        pool_size=4,
        allows_unregistered=False,
        allows_subdomains=False,
        allows_etld=True,
        reserved=COMMON_RESERVED,
        supports_retrieval=True,
    )
    return _provider(
        "Baidu Cloud", policy, network, pool, "bdydns-pool.com", seed=17
    )


def make_namecheap(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """Namecheap: host of the masquerading-SPF case study's records."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        # Hosted zones ride the whole 8-server fleet; with CSC's 3 this
        # yields the 11 nameservers of the masquerading-SPF case study.
        nameservers_per_zone=8,
        pool_size=8,
        allows_subdomains=True,
        allows_etld=True,
        supports_retrieval=False,
    )
    return _provider(
        "Namecheap", policy, network, pool, "registrar-servers.com", seed=18
    )


def make_csc(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """CSC: the second provider in the masquerading-SPF case study."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=3,
        pool_size=6,
        allows_subdomains=True,
        allows_etld=True,
        supports_retrieval=False,
    )
    return _provider(
        "CSC", policy, network, pool, "cscdns-pool.net", seed=19
    )


def make_akamai(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """Akamai Edge DNS (Figure 2's #4 provider by UR count)."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.ACCOUNT_FIXED,
        nameservers_per_zone=3,
        pool_size=12,
        allows_subdomains=True,
        allows_etld=False,
        reserved=COMMON_RESERVED,
        supports_retrieval=False,
        serves_fleet_wide=True,
    )
    return _provider(
        "Akamai", policy, network, pool, "akam-pool.net", seed=20
    )


def make_nhn(
    network: SimulatedInternet, pool: AddressPool
) -> HostingProvider:
    """NHN Cloud (Figure 2's #5 provider by UR count)."""
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=NsAllocation.GLOBAL_FIXED,
        nameservers_per_zone=2,
        pool_size=4,
        allows_subdomains=False,
        allows_etld=False,
        supports_retrieval=False,
        protective_records=True,
    )
    return _provider(
        "NHN Cloud", policy, network, pool, "nhn-dnsplus.com", seed=21
    )


#: Builders for the headline providers, keyed by display name.
HEADLINE_BUILDERS = {
    "Cloudflare": make_cloudflare,
    "Amazon": make_amazon,
    "ClouDNS": make_cloudns,
    "Godaddy": make_godaddy,
    "Tencent Cloud": make_tencent,
    "Alibaba Cloud": make_alibaba,
    "Baidu Cloud": make_baidu,
    "Namecheap": make_namecheap,
    "CSC": make_csc,
    "Akamai": make_akamai,
    "NHN Cloud": make_nhn,
}

#: The seven providers probed in Table 2, in the paper's order.
TABLE2_PROVIDERS = (
    "Alibaba Cloud",
    "Amazon",
    "Baidu Cloud",
    "ClouDNS",
    "Cloudflare",
    "Godaddy",
    "Tencent Cloud",
)


def make_longtail_provider(
    index: int,
    network: SimulatedInternet,
    pool: AddressPool,
    rng: random.Random,
) -> HostingProvider:
    """One of the ~400 long-tail providers with a sampled policy mix."""
    allocation = rng.choices(
        [
            NsAllocation.GLOBAL_FIXED,
            NsAllocation.ACCOUNT_FIXED,
            NsAllocation.RANDOM,
        ],
        weights=[0.6, 0.25, 0.15],
    )[0]
    per_zone = 2 if allocation is not NsAllocation.RANDOM else 4
    pool_size = {
        NsAllocation.GLOBAL_FIXED: rng.choice([2, 3, 4]),
        NsAllocation.ACCOUNT_FIXED: rng.choice([6, 8, 12]),
        NsAllocation.RANDOM: rng.choice([12, 16, 20]),
    }[allocation]
    pool_size = max(pool_size, per_zone)
    policy = HostingPolicy(
        verification=VerificationMode.NONE,
        ns_allocation=allocation,
        nameservers_per_zone=per_zone,
        pool_size=pool_size,
        allows_unregistered=rng.random() < 0.3,
        allows_subdomains=rng.random() < 0.5,
        allows_etld=rng.random() < 0.7,
        reserved=COMMON_RESERVED if rng.random() < 0.5 else frozenset(),
        duplicates_cross_user=rng.random() < 0.3,
        supports_retrieval=rng.random() < 0.4,
        protective_records=rng.random() < 0.05,
    )
    return HostingProvider(
        f"Provider-{index:03d}",
        policy,
        network,
        pool,
        ns_domain=f"ns-pool-{index:03d}.net",
        rng=random.Random(rng.getrandbits(32)),
    )


def build_headline_providers(
    network: SimulatedInternet,
    planner: PrefixPlanner,
    post_disclosure: bool = False,
) -> Dict[str, HostingProvider]:
    """Instantiate every headline provider, each with its own address pool."""
    providers: Dict[str, HostingProvider] = {}
    for display_name, builder in HEADLINE_BUILDERS.items():
        pool = planner.pool(display_name)
        if display_name in ("Cloudflare", "Tencent Cloud", "Alibaba Cloud"):
            providers[display_name] = builder(
                network, pool, post_disclosure=post_disclosure
            )
        else:
            providers[display_name] = builder(network, pool)
    return providers

"""Related attack techniques, for comparison with URs (paper §2/§3).

The paper positions URs against two prior domain-abuse techniques:

* **dangling-record takeover** — a domain's TLD delegation still points
  at a hosting provider, but the owner's zone there is gone; on
  global-fixed providers the attacker re-hosts the domain and instantly
  controls its *real* resolution;
* **domain shadowing** — the attacker compromises the owner's hosting
  account and spawns subdomains under the legitimate zone.

Both hijack normal resolution (and are therefore visible to anyone
re-resolving the domain); URs do not touch normal resolution at all.
These builders make that contrast executable — see
``tests/scenario/test_related.py`` and the threat-model comparison in
the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dns.name import Name, name
from ..dns.resolver import RecursiveResolver
from ..hosting.provider import HostedZone, HostingError, HostingProvider
from ..hosting.registry import DnsRoot


@dataclass
class DanglingTakeover:
    """Outcome of a dangling-record takeover attempt."""

    domain: Name
    provider: str
    attacker_zone: Optional[HostedZone]
    #: whether the attacker's zone is served by the *delegated* servers
    hijacks_normal_resolution: bool

    @property
    def succeeded(self) -> bool:
        return self.attacker_zone is not None


def create_dangling_delegation(
    root: DnsRoot, provider: HostingProvider, domain: str
) -> None:
    """Set up the vulnerable state: a registered domain delegated to
    ``provider`` whose zone was deleted there (e.g. an expired trial)."""
    owner = provider.create_account()
    hosted = provider.host_zone(owner, domain, is_registered=True)
    if not root.is_registered(domain):
        root.register(domain, "negligent-owner")
    root.delegate(domain, provider.nameserver_set_for_delegation(hosted))
    # The owner abandons the hosting; the delegation stays.
    provider.delete_zone(hosted)


def attempt_dangling_takeover(
    root: DnsRoot,
    provider: HostingProvider,
    domain: str,
    attacker_ip: str,
) -> DanglingTakeover:
    """The attacker re-hosts a dangling domain at the same provider.

    Success means the attacker's zone answers on nameservers the TLD
    actually delegates to — a full hijack of normal resolution, unlike a
    UR.  On random-allocation providers the attacker may land on other
    nameservers and must retry (the classic Route 53 takeover dance);
    this helper reports whether the allocated set intersects the
    delegation.
    """
    domain_name = name(domain)
    try:
        hosted = provider.host_zone(
            provider.create_account(), domain, is_registered=True
        )
    except HostingError:
        return DanglingTakeover(
            domain=domain_name,
            provider=provider.name,
            attacker_zone=None,
            hijacks_normal_resolution=False,
        )
    provider.add_record(hosted, domain, "A", attacker_ip)
    delegated = set(root.delegated_addresses(domain))
    serving = set(hosted.nameserver_addresses())
    if provider.policy.serves_fleet_wide:
        serving = {entry.address for entry in provider.pool}
    return DanglingTakeover(
        domain=domain_name,
        provider=provider.name,
        attacker_zone=hosted,
        hijacks_normal_resolution=bool(delegated & serving),
    )


@dataclass
class ShadowedDomain:
    """Outcome of a domain-shadowing compromise."""

    parent: Name
    shadow: Name
    attacker_ip: str


def shadow_domain(
    hosted: HostedZone,
    shadow_label: str,
    attacker_ip: str,
) -> ShadowedDomain:
    """Domain shadowing: with control of the owner's account, spawn a
    subdomain under the legitimate zone (Liu et al., CCS'17).

    Unlike URs this requires compromising the victim's hosting account —
    and the shadow resolves through *normal* recursion, so defenders
    re-resolving the domain tree can see it.
    """
    shadow = hosted.domain.prepend(shadow_label)
    hosted.zone.add(shadow, _a(attacker_ip))
    return ShadowedDomain(
        parent=hosted.domain, shadow=shadow, attacker_ip=attacker_ip
    )


def resolves_to(
    resolver: RecursiveResolver, domain: str, address: str
) -> bool:
    """True when normal recursion returns ``address`` for ``domain``."""
    try:
        return address in resolver.lookup_a(domain)
    except Exception:
        return False


def _a(address: str):
    from ..dns.rdata import A

    return A(address)

"""Attacker model: campaigns that plant URs and run malware through them.

One :class:`Attacker` owns C2 infrastructure (addresses from its own
pools, simple C2 server processes) and opens accounts at hosting
providers to plant undelegated records, following the threat model's
steps ① (host URs) and ② (distribute malware).  Campaign builders cover
the generic bulk activity plus the three §5.3 case studies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dns.name import Name, name
from ..dns.rdata import RRType
from ..hosting.provider import Account, HostedZone, HostingError, HostingProvider
from ..net.address import AddressPool
from ..net.network import SimulatedInternet
from ..sandbox.malware import MalwareSample

#: countries attacker infrastructure is rented in (bulletproof-ish mix)
ATTACKER_COUNTRIES = ("RU", "MD", "SC", "PA", "HK", "NL", "RO", "US")


class C2Server:
    """A minimal command-and-control endpoint.

    Accepts any TCP payload and answers with a short task blob; SMTP
    sessions get a banner-style acknowledgement.  Its existence makes the
    malware's connections *succeed*, so captures look like live traffic.
    """

    def __init__(self, address: str):
        self.address = address
        self.connections = 0

    def handle_tcp_connect(
        self, src_ip: str, dst_port: int, payload: bytes,
        network: SimulatedInternet,
    ) -> Optional[bytes]:
        self.connections += 1
        if payload.startswith(b"EHLO"):
            return b"250 OK queued"
        return b"TASK sleep=3600"


@dataclass
class PlantedRecord:
    """Ground truth: one record the attacker configured."""

    domain: Name
    rrtype: int
    rdata_text: str
    provider: str

    @property
    def identity(self) -> Tuple[Name, int, str]:
        return (self.domain, self.rrtype, self.rdata_text)


@dataclass
class AttackerCampaign:
    """One coordinated abuse campaign."""

    name: str
    provider_names: List[str]
    hosted_zones: List[HostedZone] = field(default_factory=list)
    c2_ips: List[str] = field(default_factory=list)
    planted: List[PlantedRecord] = field(default_factory=list)
    samples: List[MalwareSample] = field(default_factory=list)

    def planted_identities(self) -> Set[Tuple[Name, int, str]]:
        return {record.identity for record in self.planted}



class Attacker:
    """The adversary: infrastructure plus provider accounts."""

    def __init__(
        self,
        network: SimulatedInternet,
        c2_pool: AddressPool,
        rng: Optional[random.Random] = None,
    ):
        self.network = network
        self.c2_pool = c2_pool
        self.rng = rng or random.Random(99)
        self._accounts: Dict[str, Account] = {}
        self.c2_servers: Dict[str, C2Server] = {}
        self.campaigns: List[AttackerCampaign] = []

    # -- infrastructure ----------------------------------------------------

    def stand_up_c2(self, count: int = 1) -> List[str]:
        """Rent ``count`` C2 servers; returns their addresses."""
        addresses = []
        for _ in range(count):
            address = self.c2_pool.allocate()
            server = C2Server(address)
            self.network.register_tcp_host(address, server)
            self.c2_servers[address] = server
            addresses.append(address)
        return addresses

    def stand_up_c2_same_slash24(self, count: int) -> List[str]:
        """C2 addresses guaranteed to share a /24 (the SPF case study)."""
        addresses = [self.c2_pool.allocate()]
        base = addresses[0].rsplit(".", 1)[0]
        suffix = int(addresses[0].rsplit(".", 1)[1])
        while len(addresses) < count:
            suffix += 1
            if suffix > 254:
                raise RuntimeError("ran out of room in the /24")
            address = f"{base}.{suffix}"
            addresses.append(address)
        for address in addresses:
            if address not in self.c2_servers:
                server = C2Server(address)
                self.network.register_tcp_host(address, server)
                self.c2_servers[address] = server
        return addresses

    # -- provider interaction -----------------------------------------------

    def account_at(self, provider: HostingProvider) -> Account:
        """One free account per (attacker, provider); reused across
        campaigns."""
        account = self._accounts.get(provider.name)
        if account is None:
            account = provider.create_account()
            self._accounts[provider.name] = account
        return account

    def plant_a_record(
        self,
        campaign: AttackerCampaign,
        provider: HostingProvider,
        domain: str,
        c2_ip: str,
        is_registered: bool = True,
        reuse_account_zone: bool = False,
    ) -> Optional[HostedZone]:
        """Host a UR zone with an A record pointing at a C2.

        Returns None when the provider's policy refuses the domain — the
        attacker just moves on (as Table 2's reserved lists force).
        With ``reuse_account_zone`` a refusal falls back to the zone the
        attacker's account already hosts for the domain (planted by an
        earlier campaign), for campaigns that need this very domain.
        """
        hosted = self._host(
            campaign, provider, domain, is_registered, reuse_account_zone
        )
        if hosted is None:
            return None
        provider.add_record(hosted, domain, "A", c2_ip)
        campaign.planted.append(
            PlantedRecord(
                domain=name(domain),
                rrtype=RRType.A,
                rdata_text=c2_ip,
                provider=provider.name,
            )
        )
        if c2_ip not in campaign.c2_ips:
            campaign.c2_ips.append(c2_ip)
        return hosted

    def plant_txt_record(
        self,
        campaign: AttackerCampaign,
        provider: HostingProvider,
        domain: str,
        value: str,
        embedded_ips: Sequence[str] = (),
    ) -> Optional[HostedZone]:
        """Host a UR zone with a TXT record (command blob or SPF
        masquerade) for a registered domain."""
        hosted = self._host(campaign, provider, domain, True)
        if hosted is None:
            return None
        provider.add_record(hosted, domain, "TXT", f'"{value}"')
        campaign.planted.append(
            PlantedRecord(
                domain=name(domain),
                rrtype=RRType.TXT,
                rdata_text=value,
                provider=provider.name,
            )
        )
        for address in embedded_ips:
            if address not in campaign.c2_ips:
                campaign.c2_ips.append(address)
        return hosted

    def _host(
        self,
        campaign: AttackerCampaign,
        provider: HostingProvider,
        domain: str,
        is_registered: bool,
        reuse_account_zone: bool = False,
    ) -> Optional[HostedZone]:
        account = self.account_at(provider)
        existing = next(
            (
                hosted
                for hosted in campaign.hosted_zones
                if hosted.domain == name(domain)
                and hosted.account is account
            ),
            None,
        )
        if existing is not None:
            return existing
        try:
            hosted = provider.host_zone(
                account, domain, is_registered=is_registered
            )
        except HostingError:
            zones = provider.hosted_zones(domain) if reuse_account_zone else ()
            hosted = next(
                (zone for zone in zones if zone.account is account), None
            )
            if hosted is None:
                return None
        campaign.hosted_zones.append(hosted)
        return hosted

    def new_campaign(
        self, campaign_name: str, provider_names: Sequence[str]
    ) -> AttackerCampaign:
        campaign = AttackerCampaign(
            name=campaign_name, provider_names=list(provider_names)
        )
        self.campaigns.append(campaign)
        return campaign

    # -- ground truth -----------------------------------------------------------

    def all_planted_identities(self) -> Set[Tuple[Name, int, str]]:
        """Every (domain, rrtype, rdata) the attacker configured."""
        identities: Set[Tuple[Name, int, str]] = set()
        for campaign in self.campaigns:
            identities |= campaign.planted_identities()
        return identities

    def all_c2_ips(self) -> Set[str]:
        return set(self.c2_servers)

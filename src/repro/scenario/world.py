"""World generation: assemble a full simulated internet from a config.

:func:`build_world` produces everything URHunter needs, in dependency
order:

1. network + DNS root + public-suffix TLDs;
2. hosting providers (headline presets + sampled long tail);
3. the synthetic top list, legitimately hosted and delegated (including
   past-delegation leftovers and misconfigured recursive nameservers);
4. worldwide open resolvers (a few manipulated);
5. the attacker: generic campaigns plus the three §5.3 case studies;
6. threat-intel flagging calibrated to Figures 3(b)/3(d);
7. sandbox detonation of every sample.

Everything is driven by one seeded RNG, so a config maps to exactly one
world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..dns.message import Message
from ..dns.name import Name, name
from ..dns.rdata import RRType
from ..dns.resolver import OpenResolver, RecursiveResolver
from ..dns.server import UnhostedPolicy
from ..hosting.presets import build_headline_providers, make_longtail_provider
from ..hosting.provider import HostedZone, HostingProvider
from ..hosting.registry import DnsRoot
from ..intel.aggregator import ThreatIntelAggregator
from ..intel.ipinfo import HttpPage, IpInfoDatabase
from ..intel.pdns import PassiveDnsStore
from ..intel.vendor import SecurityVendor, default_vendor_fleet
from ..net.address import AddressPool, PrefixPlanner
from ..net.network import SimulatedInternet
from ..sandbox.families import (
    UrTarget,
    make_benign_updater,
    make_darkiot_2021_variants,
    make_darkiot_2023_variant,
    make_generic_badtraffic,
    make_generic_c2,
    make_generic_exfil,
    make_generic_scanner,
    make_generic_trojan,
    make_micropsia_samples,
    make_specter_variants,
    make_tesla_samples,
)
from ..sandbox.malware import MalwareSample
from ..sandbox.sandbox import Sandbox, SandboxReport
from ..core.collector import DomainTarget, NameserverTarget
from .attacker import Attacker, AttackerCampaign, PlantedRecord
from .config import ScenarioConfig
from .tranco import TrancoList, generate_tranco

#: legitimate-hosting weights across the headline providers (Cloudflare
#: heavy, mirroring real market share and Figure 2's UR volume ordering)
HEADLINE_HOSTING_WEIGHTS = {
    "Cloudflare": 0.34,
    "Amazon": 0.16,
    "Godaddy": 0.12,
    "Akamai": 0.08,
    "Tencent Cloud": 0.06,
    "Alibaba Cloud": 0.06,
    "ClouDNS": 0.05,
    "Namecheap": 0.05,
    "Baidu Cloud": 0.03,
    "NHN Cloud": 0.03,
    "CSC": 0.02,
}

#: providers attackers prefer for generic campaigns (permissive policies)
ATTACKER_PROVIDER_WEIGHTS = {
    "ClouDNS": 0.26,
    "Amazon": 0.22,
    "Cloudflare": 0.16,
    "Namecheap": 0.12,
    "Godaddy": 0.10,
    "Tencent Cloud": 0.07,
    "Alibaba Cloud": 0.07,
}

_LEGIT_OPERATORS = (
    ("HostCo US-East", "US"),
    ("HostCo US-West", "US"),
    ("RheinHosting", "DE"),
    ("SakuraDC", "JP"),
    ("PandaCloud", "CN"),
    ("GallicNet", "FR"),
    ("ThamesHosting", "GB"),
    ("TulipServers", "NL"),
    ("LionCity DC", "SG"),
    ("MapleHost", "CA"),
)

_ATTACKER_ASNS = (
    ("BulletProof Net", "RU"),
    ("OffshoreVPS", "SC"),
    ("GreyCloud", "NL"),
)

#: domains the §5.3 case studies must be able to squat on ClouDNS /
#: Namecheap / CSC; the scenario keeps legitimate owners and parkers off
#: those providers for these names
CASE_STUDY_DOMAINS = frozenset(
    {
        "github.com",
        "gitlab.com",
        "pastebin.com",
        "ibm.com",
        "speedtest.net",
    }
)
CASE_STUDY_PROVIDERS = frozenset({"ClouDNS", "Namecheap", "CSC"})

EMERDNS_IP = "198.18.200.1"
AD_SERVER_IP = "198.18.100.1"


class ScenarioError(RuntimeError):
    """The configured world cannot be built."""


@dataclass
class World:
    """Everything :func:`build_world` assembled."""

    config: ScenarioConfig
    network: SimulatedInternet
    root: DnsRoot
    planner: PrefixPlanner
    providers: Dict[str, HostingProvider]
    tranco: TrancoList
    domain_targets: List[DomainTarget]
    nameserver_targets: List[NameserverTarget]
    delegated_to: Dict[Name, Set[str]]
    open_resolver_ips: List[str]
    open_resolvers: List[OpenResolver]
    ipinfo: IpInfoDatabase
    pdns: PassiveDnsStore
    vendors: List[SecurityVendor]
    intel: ThreatIntelAggregator
    attacker: Attacker
    sandbox: Sandbox
    sandbox_reports: List[SandboxReport]
    samples: List[MalwareSample]
    case_studies: Dict[str, AttackerCampaign]
    #: ground truth: (domain, rrtype, rdata) triples the attacker planted
    attacker_identities: Set[Tuple[Name, int, str]]


def build_world(config: Optional[ScenarioConfig] = None) -> World:
    """Assemble a complete simulated world from ``config``."""
    config = config or ScenarioConfig()
    builder = _WorldBuilder(config)
    return builder.build()


class _WorldBuilder:
    """Stateful assembly, split into readable steps."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.network = SimulatedInternet()
        self.root = DnsRoot(self.network)
        self.planner = PrefixPlanner()
        self.ipinfo = IpInfoDatabase()
        self.pdns = PassiveDnsStore()
        self.vendors = default_vendor_fleet(config.vendor_count)
        self.intel = ThreatIntelAggregator(self.vendors)
        self.providers: Dict[str, HostingProvider] = {}
        self.tranco: Optional[TrancoList] = None
        self.delegated_to: Dict[Name, Set[str]] = {}
        self.samples: List[MalwareSample] = []
        self.case_studies: Dict[str, AttackerCampaign] = {}
        self._operator_pools: List[Tuple[AddressPool, str, str, int]] = []
        self._owner_accounts: Dict[str, object] = {}
        # Simulated epoch: "now" sits well past zero so past-delegation
        # history has somewhere to live.
        self.network.tick(1_000_000.0)

    # -- step 1+2: providers ---------------------------------------------------

    def _build_providers(self) -> None:
        self.providers = build_headline_providers(
            self.network,
            self.planner,
            post_disclosure=self.config.post_disclosure,
        )
        for index in range(self.config.longtail_providers):
            pool = self.planner.pool(f"longtail-{index}")
            provider = make_longtail_provider(
                index, self.network, pool, self.rng
            )
            self.providers[provider.name] = provider
        for asn_offset, provider in enumerate(self.providers.values()):
            self.root.connect_provider(provider)
            provider.delegation_lookup = self.root.delegation_of
        # Legit origin-hosting operators with distinct AS/country.
        for index, (operator, country) in enumerate(_LEGIT_OPERATORS):
            pool = self.planner.pool(operator)
            asn = 64500 + index
            for prefix in pool.prefixes:
                self.ipinfo.register_prefix(
                    prefix.cidr, asn, operator, country
                )
            self._operator_pools.append((pool, operator, country, asn))

    # -- step 3: legitimate hosting ------------------------------------------------

    def _provider_for_rank(self) -> HostingProvider:
        if self.rng.random() < self.config.headline_hosting_fraction:
            names = list(HEADLINE_HOSTING_WEIGHTS)
            weights = [HEADLINE_HOSTING_WEIGHTS[key] for key in names]
            return self.providers[self.rng.choices(names, weights)[0]]
        longtail = [
            provider
            for key, provider in self.providers.items()
            if key.startswith("Provider-")
        ]
        if not longtail:
            return self.providers["Godaddy"]
        return self.rng.choice(longtail)

    def _host_legitimately(
        self,
        domain: Name,
        provider: HostingProvider,
        origin_ips: List[str],
        spf_value: str,
        timestamp: float,
    ):
        account = provider.create_account()
        hosted = provider.host_zone(account, domain, is_registered=True)
        for address in origin_ips:
            provider.add_record(hosted, domain, "A", address)
            self.pdns.observe(domain, RRType.A, address, timestamp)
        for sub in ("www", "api"):
            provider.add_record(
                hosted, domain.prepend(sub), "A", origin_ips[0]
            )
            self.pdns.observe(
                domain.prepend(sub), RRType.A, origin_ips[0], timestamp
            )
        provider.add_record(hosted, domain, "TXT", f'"{spf_value}"')
        self.pdns.observe(domain, RRType.TXT, spf_value, timestamp)
        mx_value = f"10 mail.{domain}."
        provider.add_record(hosted, domain, "MX", mx_value)
        provider.add_record(hosted, domain.prepend("mail"), "A", origin_ips[0])
        self.pdns.observe(domain, RRType.MX, mx_value, timestamp)
        return hosted

    def _build_legitimate_hosting(self) -> None:
        assert self.tranco is not None
        now = self.network.now
        for entry in self.tranco:
            domain = entry.domain
            operator_pool, operator, country, asn = self.rng.choice(
                self._operator_pools
            )
            origin_count = self.rng.randint(*self.config.origins_per_domain)
            origin_ips = []
            for _ in range(origin_count):
                address = operator_pool.allocate()
                self.ipinfo.register_host(
                    address,
                    cert_org=f"{domain} Inc",
                    http=HttpPage(
                        status=200,
                        title=f"Welcome to {domain}",
                        body=f"The official site of {domain}.",
                    ),
                )
                origin_ips.append(address)
            spf_value = f"v=spf1 ip4:{origin_ips[0]} -all"
            self.root.register(domain, registrant=f"owner-{entry.rank}")

            # Optional past delegation: an older provider still serving a
            # stale zone with the *previous* origin addresses.  The move
            # was a full infrastructure change (different operator, no
            # TLS anymore), so only the passive-DNS condition can
            # recognise these as correct records.
            if self.rng.random() < self.config.past_delegation_fraction:
                old_provider = self._provider_for_rank()
                if (
                    self.config.include_case_studies
                    and str(domain) in CASE_STUDY_DOMAINS
                ):
                    while old_provider.name in CASE_STUDY_PROVIDERS:
                        old_provider = self._provider_for_rank()
                old_operator_pool, _, old_country, _ = self.rng.choice(
                    [
                        candidate
                        for candidate in self._operator_pools
                        if candidate[2] != country
                    ]
                    or self._operator_pools
                )
                old_address = old_operator_pool.allocate()
                self.ipinfo.register_host(
                    old_address,
                    cert_org=None,
                    http=HttpPage(status=200, title=f"{domain} (legacy)"),
                )
                try:
                    old_account = old_provider.create_account()
                    old_zone = old_provider.host_zone(
                        old_account, domain, is_registered=True
                    )
                    old_provider.add_record(
                        old_zone, domain, "A", old_address
                    )
                    past = now - 2 * 365 * 24 * 3600.0
                    self.pdns.observe(domain, RRType.A, old_address, past)
                    self.pdns.observe_delegation(
                        domain,
                        [str(n) for n in old_zone.nameserver_names()],
                        past,
                    )
                except Exception:
                    pass  # old provider refused (reserved list etc.)

            provider = self._provider_for_rank()
            if (
                self.config.include_case_studies
                and str(domain) in CASE_STUDY_DOMAINS
            ):
                while provider.name in CASE_STUDY_PROVIDERS:
                    provider = self._provider_for_rank()
            try:
                hosted = self._host_legitimately(
                    domain, provider, origin_ips, spf_value, now
                )
            except Exception:
                # First choice refused (reserved list, duplicate with a
                # stale zone, ...): walk the other providers until one
                # accepts, keeping case-study domains off their case
                # providers.
                hosted = None
                for fallback in self.providers.values():
                    if fallback is provider:
                        continue
                    if (
                        self.config.include_case_studies
                        and str(domain) in CASE_STUDY_DOMAINS
                        and fallback.name in CASE_STUDY_PROVIDERS
                    ):
                        continue
                    try:
                        hosted = self._host_legitimately(
                            domain, fallback, origin_ips, spf_value, now
                        )
                    except Exception:
                        continue
                    provider = fallback
                    break
                if hosted is None:
                    continue
            ns_set = provider.nameserver_set_for_delegation(hosted)
            self.root.delegate(domain, ns_set)
            if provider.policy.verification.blocks_urs:
                # hosting verified the zone before this delegation existed
                provider.recheck_verification(hosted)
            self.pdns.observe_delegation(
                domain, [str(ns) for ns, _ in ns_set], now
            )
            self.delegated_to[domain] = {
                address for _, address in ns_set
            }

    # -- step 3b: squatters / domain parkers --------------------------------------

    def _build_squatters(self) -> None:
        """Parking actors host zones for popular domains they don't own.

        Their URs point at parking pages, which URHunter's HTTP-keyword
        condition (Appendix B) excludes as correct records — false-positive
        pressure on the exclusion stage.
        """
        assert self.tranco is not None
        parking_pool = self.planner.pool("parking")
        self.ipinfo.register_prefix(
            parking_pool.prefixes[0].cidr, 64900, "ParkingLot Inc", "US"
        )
        weights = {
            "Amazon": 0.55,
            "Godaddy": 0.25,
            "ClouDNS": 0.10,
        }
        names = list(weights)
        parked_ips = []
        for _ in range(4):
            address = parking_pool.allocate()
            self.ipinfo.register_host(
                address, cert_org="ParkingLot Inc", http=HttpPage.parked()
            )
            parked_ips.append(address)
        for entry in self.tranco.top(self.config.target_domains):
            if self.rng.random() >= 0.35:
                continue
            if (
                self.config.include_case_studies
                and str(entry.domain) in CASE_STUDY_DOMAINS
            ):
                continue
            provider = self.providers[
                self.rng.choices(names, [weights[key] for key in names])[0]
            ]
            try:
                account = provider.create_account()
                hosted = provider.host_zone(
                    account, entry.domain, is_registered=True
                )
            except Exception:
                continue
            provider.add_record(
                hosted, entry.domain, "A", self.rng.choice(parked_ips)
            )
            if self.rng.random() < 0.5:
                provider.add_record(
                    hosted, entry.domain, "TXT", '"v=spf1 -all"'
                )

    # -- step 3c: misconfigured recursive nameservers ----------------------------

    def _misconfigure_recursives(self) -> None:
        fallback_resolver = RecursiveResolver(
            "198.18.250.1", self.network, self.root.root_addresses
        )

        def recursive_lookup(qname, qtype):
            try:
                return fallback_resolver.resolve(qname, qtype)
            except Exception:
                return None

        for provider in self.providers.values():
            if not provider.name.startswith("Provider-"):
                continue
            for entry in provider.pool:
                if (
                    self.rng.random()
                    < self.config.misconfigured_recursive_fraction
                    and entry.server.unhosted_policy
                    is UnhostedPolicy.REFUSED
                ):
                    entry.server.unhosted_policy = UnhostedPolicy.RECURSIVE
                    entry.server.recursive_fallback = recursive_lookup

    # -- step 4: open resolvers -------------------------------------------------

    def _build_open_resolvers(self) -> Tuple[List[str], List[OpenResolver]]:
        pool = self.planner.pool("open-resolvers")
        countries = ("US", "DE", "BR", "IN", "JP", "ZA", "FR", "KR")
        resolvers: List[OpenResolver] = []
        addresses: List[str] = []
        self.ipinfo.register_host(AD_SERVER_IP, cert_org="AdTech Inc")
        manipulated_budget = int(
            round(
                self.config.open_resolvers
                * self.config.manipulated_resolver_fraction
            )
        )
        for index in range(self.config.open_resolvers):
            address = pool.allocate()
            rewriter = None
            if index < manipulated_budget:
                rewriter = _make_ad_rewriter(AD_SERVER_IP)
            resolver = OpenResolver(
                address,
                self.network,
                self.root.root_addresses,
                rewriter=rewriter,
                country=countries[index % len(countries)],
            )
            self.network.register_dns_host(address, resolver)
            resolvers.append(resolver)
            addresses.append(address)
        return addresses, resolvers

    # -- step 5: attacker ---------------------------------------------------------

    def _build_attacker(self) -> Attacker:
        c2_pool = AddressPool(label="attacker", rotate=True)
        for index, (operator, country) in enumerate(_ATTACKER_ASNS):
            block = self.planner.next_slash16(operator)
            c2_pool.add_prefix(block)
            self.ipinfo.register_prefix(
                block, 65000 + index, operator, country
            )
        return Attacker(self.network, c2_pool, rng=self.rng)

    def _attacker_provider(self) -> HostingProvider:
        names = [
            key
            for key in ATTACKER_PROVIDER_WEIGHTS
            if key in self.providers
        ]
        weights = [ATTACKER_PROVIDER_WEIGHTS[key] for key in names]
        return self.providers[self.rng.choices(names, weights)[0]]

    def _flag_ip_in_intel(self, address: str) -> None:
        """Blacklist ``address`` with Figure 3(b)/3(d)-calibrated noise."""
        buckets = ((1, 2), (3, 4), (5, 6), (7, 11))
        low, high = self.rng.choices(
            buckets, weights=self.config.vendor_count_weights
        )[0]
        high = min(high, len(self.vendors))
        low = min(low, high)
        count = self.rng.randint(low, high)
        tags = [
            tag
            for tag, probability in self.config.tag_probabilities
            if self.rng.random() < probability
        ]
        if not tags:
            tags = ["Other"]
        flagged = self.rng.sample(self.vendors, count)
        for vendor in flagged:
            vendor.flag(address, tags, timestamp=self.network.now)

    def _behaviour_plan(self, total: int) -> List[str]:
        """Apportion ``total`` samples across behaviours per the config
        mix, deterministically (largest-remainder), so small worlds still
        land on the Figure 3(c) proportions."""
        kinds = ("trojan", "scanner", "exfil", "c2", "badtraffic")
        quotas = [weight * total for weight in self.config.behaviour_mix]
        counts = [int(quota) for quota in quotas]
        remainders = sorted(
            range(len(kinds)),
            key=lambda index: quotas[index] - counts[index],
            reverse=True,
        )
        for index in remainders[: total - sum(counts)]:
            counts[index] += 1
        plan: List[str] = []
        for kind, count in zip(kinds, counts):
            plan.extend([kind] * count)
        # Interleave rather than blocking, so truncation keeps the mix.
        self.rng.shuffle(plan)
        return plan

    def _sample_for_behaviour(
        self, index: int, kind: str, ur_target: UrTarget
    ) -> MalwareSample:
        if kind == "trojan":
            return make_generic_trojan(index, ur_target)
        if kind == "scanner":
            return make_generic_scanner(index, ur_target)
        if kind == "exfil":
            return make_generic_exfil(index, ur_target)
        if kind == "c2":
            return make_generic_c2(index, ur_target)
        return make_generic_badtraffic(index, ur_target)

    def _build_generic_campaigns(self, attacker: Attacker) -> None:
        assert self.tranco is not None
        target_domains = [
            entry.domain
            for entry in self.tranco.top(self.config.target_domains)
        ]
        # Phase 1: plant everything, remembering which campaign owns each
        # C2 address.
        campaign_of_c2: Dict[str, AttackerCampaign] = {}
        for campaign_index in range(self.config.attacker_campaigns):
            provider_count = self.rng.randint(
                *self.config.providers_per_campaign
            )
            campaign_providers: List[HostingProvider] = []
            while len(campaign_providers) < provider_count:
                candidate = self._attacker_provider()
                if candidate not in campaign_providers:
                    campaign_providers.append(candidate)
            campaign = attacker.new_campaign(
                f"campaign-{campaign_index:03d}",
                [provider.name for provider in campaign_providers],
            )
            c2_ips = attacker.stand_up_c2(self.rng.randint(1, 2))
            for address in c2_ips:
                self.ipinfo.register_host(address, cert_org=None)
                campaign_of_c2[address] = campaign
            domain_count = self.rng.randint(
                *self.config.domains_per_campaign
            )
            domains = self.rng.sample(
                target_domains, min(domain_count, len(target_domains))
            )
            a_domains = domains[: max(1, len(domains) * 2 // 3)]
            txt_domains = domains[len(a_domains):]
            for domain in a_domains:
                c2_ip = self.rng.choice(c2_ips)
                for provider in campaign_providers:
                    hosted = attacker.plant_a_record(
                        campaign, provider, str(domain), c2_ip
                    )
                    if hosted is None:
                        continue
                    # A minority of TXT URs ride the same zone as an A UR
                    # (exercising §4.3's co-hosting join).
                    if self.rng.random() < 0.03:
                        blob = f"cmd={self.rng.getrandbits(80):020x}"
                        attacker.plant_txt_record(
                            campaign, provider, str(domain), blob
                        )
                    # Rarely, an MX UR for SMTP-based channels (measured
                    # only when the future-work MX sweep is enabled).
                    if self.rng.random() < 0.05:
                        provider.add_record(
                            hosted,
                            str(domain),
                            "MX",
                            f"10 relay.{domain}.",
                        )
                        campaign.planted.append(
                            PlantedRecord(
                                domain=domain,
                                rrtype=RRType.MX,
                                rdata_text=f"10 relay.{domain}.",
                                provider=provider.name,
                            )
                        )
            # TXT-only planting on separate domains: mostly opaque command
            # blobs with no embedded IP (the paper excludes those from
            # maliciousness analysis, so they stay "unknown"); a minority
            # masquerade as SPF/DMARC with the C2 embedded.
            for domain in txt_domains:
                if self.rng.random() >= self.config.txt_campaign_probability:
                    continue
                c2_ip = self.rng.choice(c2_ips)
                provider = self.rng.choice(campaign_providers)
                roll = self.rng.random()
                if roll < 0.30:
                    attacker.plant_txt_record(
                        campaign,
                        provider,
                        str(domain),
                        f"v=spf1 ip4:{c2_ip} ~all",
                        embedded_ips=[c2_ip],
                    )
                elif roll < 0.45:
                    attacker.plant_txt_record(
                        campaign,
                        provider,
                        str(domain),
                        (
                            "v=DMARC1; p=none; rua=mailto:rua@"
                            f"{domain}; fo={c2_ip}"
                        ),
                        embedded_ips=[c2_ip],
                    )
                else:
                    blob = (
                        f"cmd={self.rng.getrandbits(80):020x}"
                        f";k={self.rng.getrandbits(64):016x}"
                    )
                    attacker.plant_txt_record(
                        campaign, provider, str(domain), blob
                    )
        # Phase 2: stratified observability — exactly the configured
        # fraction of generic C2s is observable, split per Figure 3(a).
        all_c2s = sorted(campaign_of_c2)
        self.rng.shuffle(all_c2s)
        observable_count = int(
            round(len(all_c2s) * self.config.c2_observable_probability)
        )
        observable = all_c2s[:observable_count]
        intel_share, ids_share, both_share = self.config.observation_split
        # The case studies contribute fixed provenance (Dark.IoT and the
        # SPF campaign are intel+IDS "both"; Specter is IDS-only), which
        # would skew Figure 3(a) at small scale — compensate by shifting
        # the generic allocation so the *overall* split tracks the config.
        case_both = 5 if self.config.include_case_studies else 0
        case_ids = 1 if self.config.include_case_studies else 0
        grand_total = len(observable) + case_both + case_ids
        intel_count = round(grand_total * intel_share)
        ids_count = max(round(grand_total * ids_share) - case_ids, 0)
        intel_count = min(intel_count, len(observable))
        ids_count = min(ids_count, len(observable) - intel_count)
        intel_cut = intel_count
        ids_cut = intel_cut + ids_count
        ids_total = len(observable) - intel_cut
        behaviour_plan = self._behaviour_plan(max(ids_total, 0))
        sample_index = 0
        for position, address in enumerate(observable):
            if position < intel_cut:
                mode = "intel"
            elif position < ids_cut:
                mode = "ids"
            else:
                mode = "both"
            campaign = campaign_of_c2[address]
            if mode in ("intel", "both"):
                self._flag_ip_in_intel(address)
            if mode in ("ids", "both"):
                planted_for_ip = [
                    record
                    for record in campaign.planted
                    if record.rdata_text == address
                    and record.rrtype == RRType.A
                ]
                if not planted_for_ip:
                    continue
                record = self.rng.choice(planted_for_ip)
                nameserver_ips = _nameservers_serving(
                    campaign, record.domain, record.provider
                )
                if not nameserver_ips:
                    continue
                ur_target = UrTarget(
                    domain=str(record.domain),
                    nameserver_ips=nameserver_ips,
                )
                kind = (
                    behaviour_plan[sample_index % len(behaviour_plan)]
                    if behaviour_plan
                    else "trojan"
                )
                sample = self._sample_for_behaviour(
                    sample_index, kind, ur_target
                )
                sample_index += 1
                campaign.samples.append(sample)
                self.samples.append(sample)

    # -- step 5b: case studies ------------------------------------------------------

    def _build_case_studies(self, attacker: Attacker) -> None:
        cloudns = self.providers["ClouDNS"]
        namecheap = self.providers["Namecheap"]
        csc = self.providers["CSC"]

        # EmerDNS: an alternative-root resolver serving OpenNIC zones.
        from ..dns.server import AuthoritativeServer
        from ..dns.zone import zone_from_records

        emer_c2 = attacker.stand_up_c2(1)[0]
        self.ipinfo.register_host(emer_c2, cert_org=None)
        emer_server = AuthoritativeServer("dns.emercoin.sim")
        emer_server.load_zone(
            zone_from_records(
                "dark.libre", [("dark.libre", "A", emer_c2)]
            )
        )
        self.network.register_dns_host(EMERDNS_IP, emer_server)

        # --- Dark.IoT ---
        darkiot = attacker.new_campaign("Dark.IoT", ["ClouDNS"])
        darkiot_c2_old = attacker.stand_up_c2(1)[0]
        darkiot_c2_new = attacker.stand_up_c2(1)[0]
        for address in (darkiot_c2_old, darkiot_c2_new):
            self.ipinfo.register_host(address, cert_org=None)
            self._flag_ip_in_intel(address)
        gitlab_zone = _plant_case_study(
            attacker, darkiot, cloudns, "api.gitlab.com", darkiot_c2_old
        )
        pastebin_zone = _plant_case_study(
            attacker, darkiot, cloudns, "raw.pastebin.com", darkiot_c2_new
        )
        opennic_zone = _plant_case_study(
            attacker, darkiot, cloudns, "dark.libre", darkiot_c2_new,
            is_registered=False,
        )
        gitlab_target = UrTarget(
            "api.gitlab.com", gitlab_zone.nameserver_addresses()
        )
        pastebin_target = UrTarget(
            "raw.pastebin.com", pastebin_zone.nameserver_addresses()
        )
        opennic_target = UrTarget(
            "dark.libre", opennic_zone.nameserver_addresses()
        )
        darkiot.samples.extend(
            make_darkiot_2021_variants(gitlab_target, EMERDNS_IP)
        )
        darkiot.samples.append(
            make_darkiot_2023_variant(pastebin_target, opennic_target)
        )
        self.samples.extend(darkiot.samples)
        self.case_studies["Dark.IoT"] = darkiot

        # --- Specter ---
        specter = attacker.new_campaign("Specter", ["ClouDNS"])
        specter_c2 = attacker.stand_up_c2(1)[0]
        self.ipinfo.register_host(specter_c2, cert_org=None)
        # Deliberately NOT flagged in intel: IDS-only evidence, matching
        # the paper's "not flagged by 74 mainstream vendors".
        ibm_zone = _plant_case_study(
            attacker, specter, cloudns, "ibm.com", specter_c2
        )
        github_zone = _plant_case_study(
            attacker, specter, cloudns, "api.github.com", specter_c2
        )
        specter.samples.extend(
            make_specter_variants(
                UrTarget("ibm.com", ibm_zone.nameserver_addresses()),
                UrTarget(
                    "api.github.com", github_zone.nameserver_addresses()
                ),
            )
        )
        self.samples.extend(specter.samples)
        self.case_studies["Specter"] = specter

        # --- Masquerading SPF ---
        spf = attacker.new_campaign(
            "SPF-masquerade", ["Namecheap", "CSC"]
        )
        mail_ips = attacker.stand_up_c2_same_slash24(3)
        for address in mail_ips:
            self.ipinfo.register_host(address, cert_org=None)
            self._flag_ip_in_intel(address)
        spf_value = (
            "v=spf1 "
            + " ".join(f"ip4:{address}" for address in mail_ips)
            + " -all"
        )
        spf_zones = []
        for provider in (namecheap, csc):
            hosted = attacker.plant_txt_record(
                spf, provider, "speedtest.net", spf_value,
                embedded_ips=mail_ips,
            )
            if hosted is not None:
                spf_zones.append(hosted)
        nameserver_ips = [
            address
            for hosted in spf_zones
            for address in hosted.nameserver_addresses()
        ]
        spf_target = UrTarget("speedtest.net", nameserver_ips)
        spf.samples.extend(make_micropsia_samples(spf_target, count=2))
        spf.samples.extend(
            make_tesla_samples(spf_target, count=4, detected=3)
        )
        self.samples.extend(spf.samples)
        self.case_studies["SPF-masquerade"] = spf

    # -- step 6: sandbox ------------------------------------------------------------

    def _detonate(self, open_resolver_ips: List[str]) -> Sandbox:
        sandbox = Sandbox(
            self.network,
            victim_ip="198.18.50.10",
            default_resolver_ip=(
                open_resolver_ips[0] if open_resolver_ips else None
            ),
        )
        assert self.tranco is not None
        benign_domains = [
            str(entry.domain)
            for entry in self.tranco.top(self.config.benign_samples or 1)
        ]
        for index in range(self.config.benign_samples):
            self.samples.append(
                make_benign_updater(
                    index, benign_domains[index % len(benign_domains)]
                )
            )
        sandbox.run_all(self.samples)
        return sandbox

    # -- step 7: measurement targets ----------------------------------------------

    def _build_targets(self) -> Tuple[List[DomainTarget], List[NameserverTarget]]:
        assert self.tranco is not None
        domain_targets = [
            DomainTarget(domain=entry.domain, rank=entry.rank)
            for entry in self.tranco.top(self.config.target_domains)
        ]
        # The case-study domains join the target set (§5.3: "we included
        # all FQDNs of the top Tranco 2K sites"); at small scales some of
        # their SLD ranks fall past the target cut, so they are added
        # explicitly.
        if self.config.include_case_studies:
            targeted = {target.domain for target in domain_targets}
            for extra in (
                "api.gitlab.com",
                "raw.pastebin.com",
                "api.github.com",
                "github.com",
                "gitlab.com",
                "pastebin.com",
                "ibm.com",
                "speedtest.net",
            ):
                extra_name = name(extra)
                if extra_name in targeted:
                    continue
                sld = (
                    extra_name
                    if self.tranco.rank_of(extra_name) is not None
                    else extra_name.parent()
                )
                rank = self.tranco.rank_of(sld) or 0
                domain_targets.append(
                    DomainTarget(domain=extra_name, rank=rank)
                )
                targeted.add(extra_name)
        # Nameserver selection: hosted-domain counts over the full list.
        hosting_counts: Dict[str, int] = {}
        for domain, addresses in self.delegated_to.items():
            for address in addresses:
                hosting_counts[address] = hosting_counts.get(address, 0) + 1
        nameserver_targets: List[NameserverTarget] = []
        for provider in self.providers.values():
            for entry in provider.pool:
                count = hosting_counts.get(entry.address, 0)
                provider_hosts = sum(
                    hosting_counts.get(item.address, 0)
                    for item in provider.pool
                )
                if (
                    count >= self.config.min_hosted_domains
                    or provider_hosts >= self.config.min_hosted_domains
                ):
                    nameserver_targets.append(
                        NameserverTarget(
                            address=entry.address,
                            provider=provider.name,
                            hostname=entry.hostname,
                        )
                    )
        return domain_targets, nameserver_targets

    # -- orchestration ---------------------------------------------------------------

    def build(self) -> World:
        self._build_providers()
        self.tranco = generate_tranco(
            self.config.top_list_size, random.Random(self.config.seed + 1)
        )
        self._build_legitimate_hosting()
        self._build_squatters()
        self._misconfigure_recursives()
        open_resolver_ips, open_resolvers = self._build_open_resolvers()
        attacker = self._build_attacker()
        self._build_generic_campaigns(attacker)
        if self.config.include_case_studies:
            self._build_case_studies(attacker)
        sandbox = self._detonate(open_resolver_ips)
        domain_targets, nameserver_targets = self._build_targets()
        return World(
            config=self.config,
            network=self.network,
            root=self.root,
            planner=self.planner,
            providers=self.providers,
            tranco=self.tranco,
            domain_targets=domain_targets,
            nameserver_targets=nameserver_targets,
            delegated_to=self.delegated_to,
            open_resolver_ips=open_resolver_ips,
            open_resolvers=open_resolvers,
            ipinfo=self.ipinfo,
            pdns=self.pdns,
            vendors=self.vendors,
            intel=self.intel,
            attacker=attacker,
            sandbox=sandbox,
            sandbox_reports=list(sandbox.reports),
            samples=list(self.samples),
            case_studies=self.case_studies,
            attacker_identities=attacker.all_planted_identities(),
        )


def _plant_case_study(
    attacker: Attacker, campaign: AttackerCampaign,
    provider: HostingProvider, domain: str, c2_ip: str, **options,
) -> HostedZone:  # fmt: skip
    """Plant an A record a case study cannot do without — in the zone a
    generic campaign of the same account already hosts, if need be."""
    hosted = attacker.plant_a_record(
        campaign, provider, domain, c2_ip, reuse_account_zone=True, **options
    )
    if hosted is None:
        raise ScenarioError(
            f"case study {campaign.name}: {provider.name} would not "
            f"host {domain}"
        )
    return hosted


def _nameservers_serving(
    campaign: AttackerCampaign, domain: Name, provider: str
) -> List[str]:
    """Addresses of the campaign's nameservers hosting ``domain``."""
    for hosted in campaign.hosted_zones:
        if hosted.domain == domain:
            return hosted.nameserver_addresses()
    return []


def _make_ad_rewriter(ad_ip: str):
    """A resolver manipulation: every A answer becomes the ad server."""
    from ..dns.message import ResourceRecord
    from ..dns.rdata import A

    def rewriter(response: Message) -> Message:
        rewritten = []
        for record in response.answers:
            if isinstance(record.rdata, A):
                rewritten.append(
                    ResourceRecord(record.owner, A(ad_ip), record.ttl)
                )
            else:
                rewritten.append(record)
        response.answers = rewritten
        return response

    return rewriter

"""DNS hosting providers.

A :class:`HostingProvider` owns a pool of nameservers (each an
:class:`~repro.dns.server.AuthoritativeServer` registered on the simulated
internet), accepts customer accounts, and hosts zones subject to its
:class:`~repro.hosting.policy.HostingPolicy`.

Because providers do not verify ownership (the paper's core finding), a
zone hosted here is served regardless of whether the domain's real
delegation points at the provider — that's an undelegated record.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..dns.name import Name, name
from ..dns.psl import DEFAULT_PSL
from ..dns.rdata import A, NS, SOA, TXT, RRType
from ..dns.server import AuthoritativeServer, UnhostedPolicy
from ..dns.zone import Zone
from ..net.address import AddressPool
from ..net.network import SimulatedInternet
from .policy import HostingPolicy, NsAllocation, VerificationMode


class HostingError(RuntimeError):
    """Raised when a hosting operation violates provider policy."""


@dataclass
class Account:
    """A customer (or attacker) account at a provider."""

    account_id: str
    paid: bool = False
    #: nameservers pinned to this account under ACCOUNT_FIXED allocation
    fixed_nameservers: List["Nameserver"] = field(default_factory=list)


@dataclass
class Nameserver:
    """One nameserver in a provider's pool."""

    hostname: Name
    address: str
    server: AuthoritativeServer


@dataclass
class HostedZone:
    """A zone hosted at a provider by some account."""

    zone: Zone
    account: Account
    nameservers: List[Nameserver]
    created_at: float
    verified: bool = False
    zone_id: str = ""

    @property
    def domain(self) -> Name:
        return self.zone.origin

    def nameserver_names(self) -> List[Name]:
        return [entry.hostname for entry in self.nameservers]

    def nameserver_addresses(self) -> List[str]:
        return [entry.address for entry in self.nameservers]


#: Returns the NS target names the TLD currently delegates for a domain.
DelegationLookup = Callable[[Name], List[Name]]
#: Returns TXT record values observed in the live (delegated) zone.
LiveTxtLookup = Callable[[Name], List[str]]


class HostingProvider:
    """A DNS hosting service with a configurable policy.

    Construction wires the nameserver fleet into the network; afterwards
    the portal-style methods (:meth:`create_account`, :meth:`host_zone`,
    :meth:`add_record`, ...) drive everything.
    """

    def __init__(
        self,
        provider_name: str,
        policy: HostingPolicy,
        network: SimulatedInternet,
        address_pool: AddressPool,
        ns_domain: Optional[str] = None,
        rng: Optional[random.Random] = None,
    ):
        self.name = provider_name
        self.policy = policy
        self.network = network
        self._rng = rng or random.Random(0)
        self._accounts: Dict[str, Account] = {}
        self._zones: List[HostedZone] = []
        #: the same zones by domain, in hosting order: the duplicate,
        #: allocation, loading and retrieval rules read only one domain's
        #: zones, so hosting a zone costs O(zones of that domain)
        self._by_domain: Dict[Name, List[HostedZone]] = {}
        self._account_counter = itertools.count(1)
        self._zone_counter = itertools.count(1)
        self.delegation_lookup: Optional[DelegationLookup] = None
        self.live_txt_lookup: Optional[LiveTxtLookup] = None
        self._txt_challenges: Dict[Tuple[str, Name], str] = {}

        ns_domain = ns_domain or _slugify(provider_name) + "-dns.com"
        self.ns_domain = name(ns_domain)
        #: the warning-site address every protective record points at
        self.protective_ip: Optional[str] = None
        self.pool: List[Nameserver] = []
        for index in range(policy.pool_size):
            hostname = self.ns_domain.prepend(f"ns{index + 1}")
            address = address_pool.allocate()
            server = AuthoritativeServer(hostname)
            if policy.protective_records:
                server.unhosted_policy = UnhostedPolicy.PROTECTIVE
                if self.protective_ip is None:
                    self.protective_ip = address_pool.allocate()
                server.protective_records = [
                    (RRType.A, A(self.protective_ip)),
                    (
                        RRType.TXT,
                        TXT.from_value(
                            f"v=parked; this domain is not hosted at "
                            f"{provider_name}"
                        ),
                    ),
                ]
            network.register_dns_host(address, server)
            server.addresses.append(address)
            self.pool.append(Nameserver(hostname, address, server))

    # -- account management ------------------------------------------------

    def create_account(self, paid: bool = False) -> Account:
        """Open a customer account (no identity checks, as in the wild)."""
        account_id = f"{_slugify(self.name)}-acct-{next(self._account_counter)}"
        account = Account(account_id=account_id, paid=paid)
        if self.policy.ns_allocation is NsAllocation.ACCOUNT_FIXED:
            account.fixed_nameservers = self._pick_account_set(account_id)
        self._accounts[account_id] = account
        return account

    def _pick_account_set(self, account_id: str) -> List[Nameserver]:
        count = self.policy.nameservers_per_zone
        start = (len(self._accounts) * count) % len(self.pool)
        picked = [
            self.pool[(start + offset) % len(self.pool)]
            for offset in range(count)
        ]
        return picked

    # -- hosting -------------------------------------------------------------

    def host_zone(
        self,
        account: Account,
        domain: Union[str, Name],
        is_registered: Optional[bool] = None,
    ) -> HostedZone:
        """Host a zone for ``domain`` under ``account``.

        Enforces the policy: supported domain types, the reserved list,
        duplicate-hosting rules, and (for mitigated providers) ownership
        verification.  Raises :class:`HostingError` when refused.
        """
        domain = name(domain)
        self._check_domain_supported(account, domain, is_registered)
        self._check_duplicates(account, domain)
        nameservers = self._allocate_nameservers(account, domain)
        zone = Zone(domain)
        zone.add(
            domain,
            SOA(
                mname=nameservers[0].hostname,
                rname=self.ns_domain.prepend("hostmaster"),
                serial=1,
            ),
        )
        for entry in nameservers:
            zone.add(domain, NS(entry.hostname))
        hosted = HostedZone(
            zone=zone,
            account=account,
            nameservers=nameservers,
            created_at=self.network.now,
            zone_id=f"zone-{next(self._zone_counter)}",
        )
        verified = self._verify_ownership(account, hosted)
        hosted.verified = verified
        if self._should_serve(hosted):
            self._load_everywhere(hosted)
        self._zones.append(hosted)
        self._by_domain.setdefault(domain, []).append(hosted)
        return hosted

    def _check_domain_supported(
        self,
        account: Account,
        domain: Name,
        is_registered: Optional[bool],
    ) -> None:
        if self.policy.is_reserved(domain):
            raise HostingError(
                f"{self.name} refuses reserved domain {domain}"
            )
        if DEFAULT_PSL.is_public_suffix(domain):
            if not self.policy.allows_etld:
                raise HostingError(f"{self.name} does not host eTLDs")
            return
        registrable = DEFAULT_PSL.registrable_domain(domain)
        if registrable is None:
            raise HostingError(f"{domain} has no registrable form")
        if domain != registrable:
            if not self.policy.allows_subdomains:
                raise HostingError(f"{self.name} does not host subdomains")
            if self.policy.subdomains_require_payment and not account.paid:
                raise HostingError(
                    f"{self.name} hosts subdomains only for paid accounts"
                )
        if is_registered is False and not self.policy.allows_unregistered:
            raise HostingError(
                f"{self.name} does not host unregistered domains"
            )

    def _check_duplicates(self, account: Account, domain: Name) -> None:
        existing = self._by_domain.get(domain, ())
        if not existing:
            return
        same_account = [
            entry
            for entry in existing
            if entry.account.account_id == account.account_id
        ]
        if same_account and not self.policy.duplicates_single_user:
            raise HostingError(
                f"{self.name}: account already hosts {domain}"
            )
        if (
            len(same_account) < len(existing)
            and not self.policy.duplicates_cross_user
        ):
            raise HostingError(
                f"{self.name}: {domain} is already hosted by another user"
            )
        if (
            self.policy.ns_allocation is NsAllocation.RANDOM
            and self.policy.exhaustible_pool
        ):
            used = {
                entry.address
                for hosted in existing
                for entry in hosted.nameservers
            }
            free = len(self.pool) - len(used)
            if free < self.policy.nameservers_per_zone:
                raise HostingError(
                    f"{self.name}: nameserver pool exhausted for {domain}"
                )

    def _allocate_nameservers(
        self, account: Account, domain: Name
    ) -> List[Nameserver]:
        policy = self.policy
        if policy.ns_allocation is NsAllocation.GLOBAL_FIXED:
            return self.pool[: policy.nameservers_per_zone]
        if policy.ns_allocation is NsAllocation.ACCOUNT_FIXED:
            chosen = list(account.fixed_nameservers)
            # Ensure distinct sets across users for the same domain.
            conflicting = {
                entry.address
                for hosted in self._by_domain.get(domain, ())
                if hosted.account.account_id != account.account_id
                for entry in hosted.nameservers
            }
            if any(entry.address in conflicting for entry in chosen):
                replacement = [
                    entry
                    for entry in self.pool
                    if entry.address not in conflicting
                ]
                if len(replacement) < policy.nameservers_per_zone:
                    raise HostingError(
                        f"{self.name}: no disjoint nameserver set left "
                        f"for {domain}"
                    )
                chosen = replacement[: policy.nameservers_per_zone]
            return chosen
        # RANDOM: draw without replacement, avoiding sets already used
        # for this domain when the pool is exhaustible.
        exclude = set()
        if policy.exhaustible_pool:
            exclude = {
                entry.address
                for hosted in self._by_domain.get(domain, ())
                for entry in hosted.nameservers
            }
        candidates = [
            entry for entry in self.pool if entry.address not in exclude
        ]
        if len(candidates) < policy.nameservers_per_zone:
            raise HostingError(
                f"{self.name}: nameserver pool exhausted for {domain}"
            )
        return self._rng.sample(candidates, policy.nameservers_per_zone)

    # -- verification ---------------------------------------------------------

    def _verify_ownership(self, account: Account, hosted: HostedZone) -> bool:
        mode = self.policy.verification
        if mode in (VerificationMode.NONE, VerificationMode.NOTIFY_ONLY):
            return False  # never verified, but serving is unaffected
        if mode is VerificationMode.REQUIRE_DELEGATION:
            return self._delegation_points_here(hosted)
        if mode is VerificationMode.REQUIRE_TXT_CHALLENGE:
            return self._txt_challenge_satisfied(account, hosted)
        return False

    def _delegation_points_here(self, hosted: HostedZone) -> bool:
        if self.delegation_lookup is None:
            return False
        delegated = set(self.delegation_lookup(hosted.domain))
        pool_names = {entry.hostname for entry in self.pool}
        return bool(delegated) and delegated <= pool_names

    def issue_txt_challenge(
        self, account: Account, domain: Union[str, Name]
    ) -> str:
        """Issue the random TXT token for challenge-based verification."""
        domain = name(domain)
        token = f"{_slugify(self.name)}-verify-{self._rng.getrandbits(64):016x}"
        self._txt_challenges[(account.account_id, domain)] = token
        return token

    def _txt_challenge_satisfied(
        self, account: Account, hosted: HostedZone
    ) -> bool:
        token = self._txt_challenges.get(
            (account.account_id, hosted.domain)
        )
        if token is None or self.live_txt_lookup is None:
            return False
        live_values = self.live_txt_lookup(hosted.domain)
        return any(token in value for value in live_values)

    def recheck_verification(self, hosted: HostedZone) -> bool:
        """Re-run verification (e.g. after the user fixes delegation)."""
        hosted.verified = self._verify_ownership(hosted.account, hosted)
        if self._should_serve(hosted):
            self._load_everywhere(hosted)
        else:
            self._unload_everywhere(hosted)
        return hosted.verified

    def _should_serve(self, hosted: HostedZone) -> bool:
        if self.policy.verification.blocks_urs:
            return hosted.verified
        return True

    # -- record management ------------------------------------------------------

    def add_record(
        self,
        hosted: HostedZone,
        owner: Union[str, Name],
        rrtype: Union[int, str],
        text: str,
    ) -> None:
        """Add a record through the portal (zone serial bumps, servers see it)."""
        hosted.zone.add_text(owner, rrtype, text)

    def delete_zone(self, hosted: HostedZone) -> None:
        """Remove a hosted zone entirely (matched by identity: equality
        would deep-compare whole zones)."""
        self._unload_everywhere(hosted)
        if _remove_identical(self._zones, hosted):
            siblings = self._by_domain[hosted.domain]
            _remove_identical(siblings, hosted)
            if not siblings:
                del self._by_domain[hosted.domain]

    def retrieve_domain(
        self, claimant: Account, domain: Union[str, Name]
    ) -> List[HostedZone]:
        """Verified-owner retrieval: evict other accounts' zones for ``domain``.

        Only available when the policy supports retrieval and the claimant
        proves control via delegation or TXT challenge.  Returns the zones
        evicted.
        """
        domain = name(domain)
        if not self.policy.supports_retrieval:
            raise HostingError(f"{self.name} has no retrieval mechanism")
        proven = False
        if self.delegation_lookup is not None:
            delegated = self.delegation_lookup(domain)
            pool_names = {entry.hostname for entry in self.pool}
            proven = bool(delegated) and set(delegated) <= pool_names
        if not proven and self.live_txt_lookup is not None:
            token = self._txt_challenges.get((claimant.account_id, domain))
            if token is not None:
                proven = any(
                    token in value
                    for value in self.live_txt_lookup(domain)
                )
        if not proven:
            raise HostingError(
                f"retrieval of {domain} requires proof of control"
            )
        evicted = [
            hosted
            for hosted in self._by_domain.get(domain, ())
            if hosted.account.account_id != claimant.account_id
        ]
        for hosted in evicted:
            self.delete_zone(hosted)
        return evicted

    # -- zone loading -------------------------------------------------------------

    def _load_everywhere(self, hosted: HostedZone) -> None:
        if not self.policy.serves_fleet_wide:
            for entry in hosted.nameservers:
                entry.server.load_zone(hosted.zone)
            return
        # Fleet-wide serving: every pool server answers for the zone, but
        # a server assigned to *another account's* zone for the same
        # domain keeps that zone (duplicate cross-user hosting must not
        # let a later customer shadow the earlier one's assigned set).
        assigned = set(id(entry.server) for entry in hosted.nameservers)
        for entry in self.pool:
            current = entry.server.zone_at(hosted.domain)
            if current is not None and current is not hosted.zone:
                other_assigned = any(
                    other.zone is current and entry in other.nameservers
                    for other in self._by_domain.get(hosted.domain, ())
                    if other is not hosted
                )
                if other_assigned and id(entry.server) not in assigned:
                    continue
            entry.server.load_zone(hosted.zone)

    def _unload_everywhere(self, hosted: HostedZone) -> None:
        targets = (
            self.pool if self.policy.serves_fleet_wide else hosted.nameservers
        )
        for entry in targets:
            other_zones = [
                other
                for other in self._by_domain.get(hosted.domain, ())
                if other is not hosted
                and (
                    self.policy.serves_fleet_wide
                    or entry in other.nameservers
                )
            ]
            if not other_zones:
                entry.server.unload_zone(hosted.domain)
            else:
                entry.server.load_zone(other_zones[-1].zone)

    # -- introspection -------------------------------------------------------------

    def hosted_zones(
        self, domain: Optional[Union[str, Name]] = None
    ) -> List[HostedZone]:
        if domain is None:
            return list(self._zones)
        return list(self._by_domain.get(name(domain), ()))

    def nameserver_addresses(self) -> List[str]:
        return [entry.address for entry in self.pool]

    def nameserver_names(self) -> List[Name]:
        return [entry.hostname for entry in self.pool]

    def nameserver_set_for_delegation(
        self, hosted: HostedZone
    ) -> Sequence[Tuple[Name, str]]:
        """The (hostname, address) pairs a customer configures at the TLD."""
        return [
            (entry.hostname, entry.address) for entry in hosted.nameservers
        ]

    def __repr__(self) -> str:
        return (
            f"HostingProvider({self.name!r}, pool={len(self.pool)}, "
            f"zones={len(self._zones)})"
        )


def _remove_identical(entries: List[HostedZone], hosted: HostedZone) -> bool:
    for index, entry in enumerate(entries):
        if entry is hosted:
            del entries[index]
            return True
    return False


def _slugify(value: str) -> str:
    return "".join(
        char.lower() if char.isalnum() else "-" for char in value
    ).strip("-").replace("--", "-")

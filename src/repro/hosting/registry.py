"""The delegation tree: root and TLD registries.

Builds the authoritative hierarchy the recursive resolvers walk: a root
zone served at well-known addresses, one zone per TLD, and registration /
delegation operations that install NS (+ glue) records at the parent.

A domain is *delegated* to a hosting provider when its TLD zone's NS
records point at that provider's nameservers; an *undelegated record* is
served by a provider for a domain whose delegation points elsewhere (or
nowhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dns.name import Name, name
from ..dns.rdata import A, NS, RRType, SOA
from ..dns.server import AuthoritativeServer
from ..dns.zone import Zone
from ..net.network import SimulatedInternet


class RegistryError(ValueError):
    """Raised for invalid registration or delegation operations."""


#: (nameserver hostname, nameserver IPv4) pairs used in delegations.
NameserverSet = Sequence[Tuple[Union[str, Name], str]]


@dataclass
class Registration:
    """One registered domain and its current delegation."""

    domain: Name
    registrant: str
    nameservers: List[Tuple[Name, str]] = field(default_factory=list)
    registered_at: float = 0.0


class DnsRoot:
    """The root of the simulated DNS: root servers plus TLD registries.

    One instance owns the root zone, creates TLD zones and their servers
    on demand, and applies delegations.  Resolvers bootstrap from
    :attr:`root_addresses`.
    """

    ROOT_SERVER_IPS = ("198.41.0.4", "198.41.0.5")

    def __init__(self, network: SimulatedInternet):
        self.network = network
        self._root_zone = Zone(".")
        self._root_zone.add(
            name("."),
            SOA(
                mname=name("a.root-servers.net"),
                rname=name("nstld.verisign-grs.com"),
                serial=1,
            ),
        )
        self._root_server = AuthoritativeServer("a.root-servers.net")
        self._root_server.load_zone(self._root_zone)
        for address in self.ROOT_SERVER_IPS:
            network.register_dns_host(address, self._root_server)
            self._root_server.addresses.append(address)
        self._tld_servers: Dict[Name, AuthoritativeServer] = {}
        self._tld_zones: Dict[Name, Zone] = {}
        self._tld_addresses: Dict[Name, str] = {}
        self._registrations: Dict[Name, Registration] = {}
        self._next_tld_host = 0

    # -- root hints --------------------------------------------------------

    @property
    def root_addresses(self) -> List[str]:
        """Addresses for resolver root hints."""
        return list(self.ROOT_SERVER_IPS)

    # -- TLD management ------------------------------------------------------

    def ensure_tld(self, tld: Union[str, Name]) -> Zone:
        """Create (or return) the zone and server for ``tld``.

        The root zone gains the delegation NS + glue.
        """
        tld = name(tld)
        if len(tld) != 1:
            raise RegistryError(f"a TLD has exactly one label: {tld}")
        existing = self._tld_zones.get(tld)
        if existing is not None:
            return existing
        ns_name = name(f"ns1.nic.{tld}")
        address = self._allocate_tld_address()
        zone = Zone(tld)
        zone.add(
            tld,
            SOA(mname=ns_name, rname=name(f"hostmaster.nic.{tld}"), serial=1),
        )
        zone.add(tld, NS(ns_name))
        zone.add(ns_name, A(address))
        server = AuthoritativeServer(ns_name)
        server.load_zone(zone)
        self.network.register_dns_host(address, server)
        server.addresses.append(address)
        self._tld_zones[tld] = zone
        self._tld_servers[tld] = server
        self._tld_addresses[tld] = address
        # Delegate the TLD from the root.
        self._root_zone.add(tld, NS(ns_name))
        self._root_zone.add(ns_name, A(address))
        return zone

    def _allocate_tld_address(self) -> str:
        index = self._next_tld_host
        self._next_tld_host += 1
        if index >= 250 * 250:
            raise RegistryError("TLD address space exhausted")
        return f"192.5.{index // 250}.{index % 250 + 1}"

    def tlds(self) -> List[Name]:
        return sorted(self._tld_zones)

    # -- registration / delegation --------------------------------------------

    def _parent_zone_for(self, domain: Name) -> Zone:
        """The TLD (or deeper public-suffix) zone that delegates ``domain``."""
        if len(domain) < 2:
            raise RegistryError(f"cannot register the TLD {domain} itself")
        tld = domain.tld()
        assert tld is not None
        return self.ensure_tld(tld)

    def register(
        self,
        domain: Union[str, Name],
        registrant: str,
    ) -> Registration:
        """Register ``domain`` (no delegation yet)."""
        domain = name(domain)
        if domain in self._registrations:
            raise RegistryError(f"{domain} is already registered")
        self._parent_zone_for(domain)
        registration = Registration(
            domain=domain,
            registrant=registrant,
            registered_at=self.network.now,
        )
        self._registrations[domain] = registration
        return registration

    def is_registered(self, domain: Union[str, Name]) -> bool:
        return name(domain) in self._registrations

    def registration(self, domain: Union[str, Name]) -> Optional[Registration]:
        return self._registrations.get(name(domain))

    def delegate(
        self,
        domain: Union[str, Name],
        nameservers: NameserverSet,
    ) -> Registration:
        """Point ``domain``'s NS records at ``nameservers`` (with glue).

        Replaces any existing delegation; this is what a real registrant
        does at their registrar when switching hosting providers.
        """
        domain = name(domain)
        registration = self._registrations.get(domain)
        if registration is None:
            raise RegistryError(f"{domain} is not registered")
        parent = self._parent_zone_for(domain)
        self._remove_delegation_records(parent, domain, registration)
        resolved: List[Tuple[Name, str]] = []
        for ns_host, address in nameservers:
            ns_name = name(ns_host)
            parent.add(domain, NS(ns_name))
            if ns_name.is_subdomain_of(parent.origin):
                parent.add(ns_name, A(address))
            resolved.append((ns_name, address))
        registration.nameservers = resolved
        return registration

    def undelegate(self, domain: Union[str, Name]) -> None:
        """Remove ``domain``'s delegation (registration remains)."""
        domain = name(domain)
        registration = self._registrations.get(domain)
        if registration is None:
            raise RegistryError(f"{domain} is not registered")
        parent = self._parent_zone_for(domain)
        self._remove_delegation_records(parent, domain, registration)
        registration.nameservers = []

    def _remove_delegation_records(
        self, parent: Zone, domain: Name, registration: Registration
    ) -> None:
        parent.remove(domain, RRType.NS)
        for ns_name, _ in registration.nameservers:
            if ns_name.is_subdomain_of(parent.origin):
                parent.remove(ns_name, RRType.A)

    def delegation_of(self, domain: Union[str, Name]) -> List[Name]:
        """The NS targets currently delegated for ``domain`` (may be [])."""
        registration = self._registrations.get(name(domain))
        if registration is None:
            return []
        return [ns_name for ns_name, _ in registration.nameservers]

    def delegated_addresses(self, domain: Union[str, Name]) -> List[str]:
        """Addresses of the delegated nameservers for ``domain``."""
        registration = self._registrations.get(name(domain))
        if registration is None:
            return []
        return [address for _, address in registration.nameservers]

    def registrations(self) -> List[Registration]:
        return list(self._registrations.values())

    # -- provider wiring -----------------------------------------------------

    def connect_provider(self, provider: "object") -> Registration:
        """Make a hosting provider's own NS domain resolvable.

        Registers the provider's ``ns_domain``, serves a zone with A
        records for every pool nameserver from the pool itself, and
        delegates the domain (with glue) — so glueless delegations to
        e.g. ``ns1.cloudflare-ns.com`` resolve like they do on the real
        internet.

        ``provider`` is duck-typed (needs ``ns_domain`` and ``pool``) to
        keep this module independent of :mod:`repro.hosting.provider`.
        """
        ns_domain: Name = provider.ns_domain  # type: ignore[attr-defined]
        pool = provider.pool  # type: ignore[attr-defined]
        zone = Zone(ns_domain)
        zone.add(
            ns_domain,
            SOA(
                mname=pool[0].hostname,
                rname=ns_domain.prepend("hostmaster"),
                serial=1,
            ),
        )
        for entry in pool:
            zone.add(ns_domain, NS(entry.hostname))
            zone.add(entry.hostname, A(entry.address))
        for entry in pool:
            entry.server.load_zone(zone)
        if not self.is_registered(ns_domain):
            self.register(ns_domain, registrant=str(ns_domain))
        return self.delegate(
            ns_domain,
            [(entry.hostname, entry.address) for entry in pool],
        )

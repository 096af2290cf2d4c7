"""IPv4 address arithmetic and allocation pools.

The simulation assigns every host an IPv4 address drawn from per-operator
prefixes so that AS- and prefix-level reasoning (URHunter's uniformity
conditions, the SPF case study's "three IPs in the same /24") behaves
realistically.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Union

IPv4 = str


class AddressError(ValueError):
    """Raised for invalid addresses or exhausted pools."""


def ip_to_int(address: IPv4) -> int:
    """Dotted-quad to 32-bit integer."""
    try:
        return int(ipaddress.IPv4Address(address))
    except ipaddress.AddressValueError as exc:
        raise AddressError(f"invalid IPv4 address {address!r}") from exc


def int_to_ip(value: int) -> IPv4:
    """32-bit integer to dotted-quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"IPv4 integer out of range: {value}")
    return str(ipaddress.IPv4Address(value))


def same_slash24(first: IPv4, second: IPv4) -> bool:
    """True when two addresses share a /24."""
    return ip_to_int(first) >> 8 == ip_to_int(second) >> 8


@dataclass
class Prefix:
    """A CIDR block with sequential allocation."""

    cidr: str
    _network: ipaddress.IPv4Network = field(init=False, repr=False)
    _cursor: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        try:
            self._network = ipaddress.IPv4Network(self.cidr)
        except ValueError as exc:
            raise AddressError(f"invalid prefix {self.cidr!r}") from exc
        self._cursor = 1  # skip the network address

    @property
    def size(self) -> int:
        return self._network.num_addresses

    def allocate(self) -> IPv4:
        """The next unused address in the block."""
        # Leave the broadcast address unallocated for /31-and-larger blocks.
        limit = self.size - (1 if self.size > 2 else 0)
        if self._cursor >= limit:
            raise AddressError(f"prefix {self.cidr} exhausted")
        address = int(self._network.network_address) + self._cursor
        self._cursor += 1
        return int_to_ip(address)

    def contains(self, address: IPv4) -> bool:
        return ipaddress.IPv4Address(address) in self._network

    def __iter__(self) -> Iterator[IPv4]:
        for host in self._network.hosts():
            yield str(host)


@dataclass
class AddressPool:
    """A set of prefixes allocated to one operator (AS).

    Pools allocate addresses round-robin-free (first prefix with space),
    and track every address they hand out.
    """

    label: str
    prefixes: List[Prefix] = field(default_factory=list)
    allocated: Set[IPv4] = field(default_factory=set)
    #: rotate across prefixes instead of filling them in order — used for
    #: operators whose hosts should be spread over several ASes
    rotate: bool = False
    _rotation_cursor: int = field(default=0, repr=False)

    @classmethod
    def from_cidrs(cls, label: str, cidrs: Union[str, List[str]]) -> "AddressPool":
        if isinstance(cidrs, str):
            cidrs = [cidrs]
        return cls(label=label, prefixes=[Prefix(cidr) for cidr in cidrs])

    def add_prefix(self, cidr: str) -> None:
        self.prefixes.append(Prefix(cidr))

    def allocate(self) -> IPv4:
        """Allocate one address (first-fit, or round-robin with ``rotate``)."""
        if not self.prefixes:
            raise AddressError(f"address pool {self.label!r} has no prefixes")
        if self.rotate:
            order = [
                self.prefixes[(self._rotation_cursor + offset)
                              % len(self.prefixes)]
                for offset in range(len(self.prefixes))
            ]
            self._rotation_cursor = (
                self._rotation_cursor + 1
            ) % len(self.prefixes)
        else:
            order = self.prefixes
        for prefix in order:
            try:
                address = prefix.allocate()
            except AddressError:
                continue
            self.allocated.add(address)
            return address
        raise AddressError(f"address pool {self.label!r} exhausted")

    def contains(self, address: IPv4) -> bool:
        return any(prefix.contains(address) for prefix in self.prefixes)


class PrefixPlanner:
    """Deterministically carves the simulated address space into /16 blocks.

    Operators (providers, attackers, resolver fleets, origin hosting) each
    receive disjoint /16s, so prefix membership alone identifies an
    operator — mirroring how real AS-level data behaves.
    """

    def __init__(self, base_octet: int = 10):
        if not 1 <= base_octet <= 223:
            raise AddressError(f"base octet out of range: {base_octet}")
        self._base = base_octet
        self._next_block = 0

    def next_slash16(self, label: Optional[str] = None) -> str:
        """The next unused /16, as a CIDR string."""
        block = self._next_block
        self._next_block += 1
        first_octet = self._base + (block >> 8)
        second_octet = block & 0xFF
        if first_octet > 223:
            raise AddressError("prefix planner exhausted the address space")
        return f"{first_octet}.{second_octet}.0.0/16"

    def pool(self, label: str, blocks: int = 1) -> AddressPool:
        """Allocate a pool backed by ``blocks`` consecutive /16s."""
        cidrs = [self.next_slash16(label) for _ in range(blocks)]
        return AddressPool.from_cidrs(label, cidrs)

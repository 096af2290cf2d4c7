"""DNS message model: header, question, resource records, responses.

This is the in-memory representation both ends of the simulated network
exchange; :mod:`repro.dns.wire` round-trips it through RFC 1035 wire format
so the simulation exercises real encode/decode paths rather than passing
Python objects by reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple, Union

from .name import Name, name
from .rdata import NS, A, Rdata, RRClass, RRType


class Rcode:
    """DNS response codes (RFC 1035 section 4.1.1, RFC 2136)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5

    _NAMES = {
        0: "NOERROR",
        1: "FORMERR",
        2: "SERVFAIL",
        3: "NXDOMAIN",
        4: "NOTIMP",
        5: "REFUSED",
    }

    @classmethod
    def to_text(cls, code: int) -> str:
        return cls._NAMES.get(code, f"RCODE{code}")


class Opcode:
    """DNS opcodes; only QUERY is used by the measurement."""

    QUERY = 0
    STATUS = 2
    UPDATE = 5


@dataclass(frozen=True, slots=True)
class Question:
    """A question section entry."""

    qname: Name
    qtype: int
    qclass: int = RRClass.IN

    def __str__(self) -> str:
        return (
            f"{self.qname.to_text(trailing_dot=True)} "
            f"IN {RRType.to_text(self.qtype)}"
        )


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A complete resource record (owner, type, class, TTL, RDATA)."""

    owner: Name
    rdata: Rdata
    ttl: int = 300
    rrclass: int = RRClass.IN

    @property
    def rrtype(self) -> int:
        return self.rdata.rrtype

    def to_text(self) -> str:
        return (
            f"{self.owner.to_text(trailing_dot=True)} {self.ttl} IN "
            f"{RRType.to_text(self.rrtype)} {self.rdata.to_text()}"
        )

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True, slots=True)
class Header:
    """The fixed DNS header."""

    message_id: int = 0
    is_response: bool = False
    opcode: int = Opcode.QUERY
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: int = Rcode.NOERROR

    def flags_word(self) -> int:
        """Pack the flag bits into the 16-bit header flags word."""
        word = 0
        if self.is_response:
            word |= 0x8000
        word |= (self.opcode & 0xF) << 11
        if self.authoritative:
            word |= 0x0400
        if self.truncated:
            word |= 0x0200
        if self.recursion_desired:
            word |= 0x0100
        if self.recursion_available:
            word |= 0x0080
        word |= self.rcode & 0xF
        return word

    @classmethod
    def from_flags_word(cls, message_id: int, word: int) -> "Header":
        return cls(
            message_id=message_id,
            is_response=bool(word & 0x8000),
            opcode=(word >> 11) & 0xF,
            authoritative=bool(word & 0x0400),
            truncated=bool(word & 0x0200),
            recursion_desired=bool(word & 0x0100),
            recursion_available=bool(word & 0x0080),
            rcode=word & 0xF,
        )


_id_counter = itertools.count(1)


def next_message_id() -> int:
    """A monotonically increasing 16-bit message id.

    Deterministic (no randomness) so simulations replay identically.
    """
    return next(_id_counter) & 0xFFFF


@dataclass(slots=True)
class Message:
    """A full DNS message with the four standard sections.

    ``compiled_wire`` is not part of the message: an authoritative
    server's compiled answer carries its wire there for the transport,
    which reads and resets it (``SimulatedInternet._transact``) before
    the message goes on.
    """

    header: Header = field(default_factory=Header)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    compiled_wire: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- constructors ---------------------------------------------------

    @classmethod
    def make_query(
        cls,
        qname: Union[str, Name],
        qtype: int,
        recursion_desired: bool = True,
        message_id: Optional[int] = None,
    ) -> "Message":
        """Build a standard query for ``qname``/``qtype``."""
        return cls(
            header=Header(
                message_id=(
                    message_id if message_id is not None else next_message_id()
                ),
                recursion_desired=recursion_desired,
            ),
            questions=[Question(name(qname), qtype)],
        )

    def make_response(
        self,
        rcode: int = Rcode.NOERROR,
        authoritative: bool = False,
        recursion_available: bool = False,
    ) -> "Message":
        """Build an empty response echoing this query's id and question."""
        return Message(
            header=replace(
                self.header,
                is_response=True,
                authoritative=authoritative,
                recursion_available=recursion_available,
                rcode=rcode,
            ),
            questions=list(self.questions),
        )

    # -- accessors ------------------------------------------------------

    @property
    def question(self) -> Question:
        """The single question; raises when there is not exactly one."""
        if len(self.questions) != 1:
            raise ValueError(
                f"expected exactly one question, found {len(self.questions)}"
            )
        return self.questions[0]

    @property
    def rcode(self) -> int:
        return self.header.rcode

    def answer_rdatas(self, rrtype: Optional[int] = None) -> List[Rdata]:
        """RDATA of answer records, optionally filtered by type."""
        return [
            record.rdata
            for record in self.answers
            if rrtype is None or record.rrtype == rrtype
        ]

    def referral_targets(self) -> List[Name]:
        """NS targets from the authority section (delegation referral)."""
        return [
            record.rdata.target
            for record in self.authorities
            if isinstance(record.rdata, NS)
        ]

    def glue_address(self, server_name: Union[str, Name]) -> Optional[str]:
        """IPv4 glue for ``server_name`` from the additional section."""
        server_name = name(server_name)
        for record in self.additionals:
            if record.owner == server_name and isinstance(record.rdata, A):
                return record.rdata.address
        return None

    def is_referral(self) -> bool:
        """True for a NOERROR response that only delegates elsewhere."""
        return (
            self.header.rcode == Rcode.NOERROR
            and not self.answers
            and bool(self.referral_targets())
        )

    def all_records(self) -> Iterable[ResourceRecord]:
        """All resource records across the three record sections."""
        yield from self.answers
        yield from self.authorities
        yield from self.additionals

    def summary(self) -> str:
        """One-line human-readable summary, for logs and debugging."""
        question = (
            str(self.questions[0]) if self.questions else "<no question>"
        )
        return (
            f"{'response' if self.header.is_response else 'query'} "
            f"id={self.header.message_id} {question} "
            f"{Rcode.to_text(self.header.rcode)} "
            f"ans={len(self.answers)} auth={len(self.authorities)} "
            f"add={len(self.additionals)}"
        )


def rrset(
    owner: Union[str, Name],
    rdatas: Iterable[Rdata],
    ttl: int = 300,
) -> Tuple[ResourceRecord, ...]:
    """Build a tuple of records sharing an owner and TTL."""
    owner = name(owner)
    return tuple(ResourceRecord(owner, rdata, ttl) for rdata in rdatas)

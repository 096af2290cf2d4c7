"""DNS resource data (RDATA) types.

Each record type the library uses is a small frozen, slotted dataclass
with a presentation-format parser/renderer; the opaque types also carry
their wire-format encoder/decoder.
A registry maps RR type codes to classes so :mod:`repro.dns.wire` can
dispatch generically.

Only the record types the paper's measurement touches are implemented
(A, AAAA, NS, CNAME, SOA, MX, TXT, PTR) — URHunter collects undelegated
A and TXT records, correct-record collection needs NS/SOA/CNAME, and the
SPF case study rides on TXT.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple, Type, Union

from .name import Name, name


class RdataError(ValueError):
    """Raised for malformed RDATA in either presentation or wire format."""


class RRType:
    """RR type codes (RFC 1035 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    ANY = 255

    _NAMES: ClassVar[Dict[int, str]] = {}

    @classmethod
    def to_text(cls, code: int) -> str:
        if not cls._NAMES:
            cls._NAMES = {
                value: key
                for key, value in vars(cls).items()
                if isinstance(value, int)
            }
        return cls._NAMES.get(code, f"TYPE{code}")

    @classmethod
    def from_text(cls, text: str) -> int:
        text = text.upper()
        value = getattr(cls, text, None)
        if isinstance(value, int):
            return value
        if text.startswith("TYPE"):
            return int(text[4:])
        raise RdataError(f"unknown RR type {text!r}")


class RRClass:
    """RR class codes; only IN is used operationally."""

    IN = 1
    CH = 3
    ANY = 255


@dataclass(frozen=True, slots=True)
class Rdata:
    """Base class for RDATA values.

    Subclasses set :attr:`rrtype` and implement ``to_text`` /
    ``from_text``.  The opaque types (A, AAAA, TXT) also implement
    ``to_wire`` / ``from_wire``; :mod:`repro.dns.wire` encodes the
    name-bearing ones (NS, CNAME, PTR, SOA, MX) itself, with name
    compression.
    """

    rrtype: ClassVar[int] = 0

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_text(cls, text: str) -> "Rdata":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class A(Rdata):
    """An IPv4 address record."""

    address: str

    rrtype: ClassVar[int] = RRType.A

    def __post_init__(self) -> None:
        try:
            ipaddress.IPv4Address(self.address)
        except ipaddress.AddressValueError as exc:
            raise RdataError(f"invalid IPv4 address {self.address!r}") from exc

    def to_wire(self) -> bytes:
        return ipaddress.IPv4Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "A":
        if len(data) != 4:
            raise RdataError(f"A RDATA must be 4 octets, got {len(data)}")
        return cls(str(ipaddress.IPv4Address(data)))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, text: str) -> "A":
        return cls(text.strip())


@dataclass(frozen=True, slots=True)
class AAAA(Rdata):
    """An IPv6 address record."""

    address: str

    rrtype: ClassVar[int] = RRType.AAAA

    def __post_init__(self) -> None:
        try:
            packed = ipaddress.IPv6Address(self.address)
        except ipaddress.AddressValueError as exc:
            raise RdataError(f"invalid IPv6 address {self.address!r}") from exc
        object.__setattr__(self, "address", str(packed))

    def to_wire(self) -> bytes:
        return ipaddress.IPv6Address(self.address).packed

    @classmethod
    def from_wire(cls, data: bytes) -> "AAAA":
        if len(data) != 16:
            raise RdataError(f"AAAA RDATA must be 16 octets, got {len(data)}")
        return cls(str(ipaddress.IPv6Address(data)))

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_text(cls, text: str) -> "AAAA":
        return cls(text.strip())


@dataclass(frozen=True, slots=True)
class NS(Rdata):
    """A nameserver record delegating to ``target``."""

    target: Name

    rrtype: ClassVar[int] = RRType.NS

    def to_text(self) -> str:
        return self.target.to_text(trailing_dot=True)

    @classmethod
    def from_text(cls, text: str) -> "NS":
        return cls(name(text.strip()))


@dataclass(frozen=True, slots=True)
class CNAME(Rdata):
    """A canonical-name alias record."""

    target: Name

    rrtype: ClassVar[int] = RRType.CNAME

    def to_text(self) -> str:
        return self.target.to_text(trailing_dot=True)

    @classmethod
    def from_text(cls, text: str) -> "CNAME":
        return cls(name(text.strip()))


@dataclass(frozen=True, slots=True)
class PTR(Rdata):
    """A pointer record (reverse DNS)."""

    target: Name

    rrtype: ClassVar[int] = RRType.PTR

    def to_text(self) -> str:
        return self.target.to_text(trailing_dot=True)

    @classmethod
    def from_text(cls, text: str) -> "PTR":
        return cls(name(text.strip()))


@dataclass(frozen=True, slots=True)
class SOA(Rdata):
    """A start-of-authority record."""

    mname: Name
    rname: Name
    serial: int
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300

    rrtype: ClassVar[int] = RRType.SOA

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text(trailing_dot=True)} "
            f"{self.rname.to_text(trailing_dot=True)} "
            f"{self.serial} {self.refresh} {self.retry} "
            f"{self.expire} {self.minimum}"
        )

    @classmethod
    def from_text(cls, text: str) -> "SOA":
        parts = text.split()
        if len(parts) != 7:
            raise RdataError(f"SOA needs 7 fields, got {len(parts)}")
        return cls(
            name(parts[0]),
            name(parts[1]),
            *(int(part) for part in parts[2:]),
        )


@dataclass(frozen=True, slots=True)
class MX(Rdata):
    """A mail-exchanger record."""

    preference: int
    exchange: Name

    rrtype: ClassVar[int] = RRType.MX

    def __post_init__(self) -> None:
        if not 0 <= self.preference <= 0xFFFF:
            raise RdataError(f"MX preference out of range: {self.preference}")

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text(trailing_dot=True)}"

    @classmethod
    def from_text(cls, text: str) -> "MX":
        parts = text.split(None, 1)
        if len(parts) != 2:
            raise RdataError(f"MX needs preference and exchange: {text!r}")
        return cls(int(parts[0]), name(parts[1]))


@dataclass(frozen=True, slots=True)
class TXT(Rdata):
    """A text record: one or more character strings.

    The paper's TXT analysis (SPF/DMARC classification, embedded IP
    extraction) operates on :meth:`value`, the concatenation of all
    strings, mirroring how SPF (RFC 7208 section 3.3) treats multiple
    strings.
    """

    strings: Tuple[str, ...]

    rrtype: ClassVar[int] = RRType.TXT

    def __post_init__(self) -> None:
        if not self.strings:
            raise RdataError("TXT requires at least one string")
        for item in self.strings:
            if len(item.encode("utf-8")) > 255:
                raise RdataError("TXT character-string longer than 255 octets")

    @classmethod
    def from_value(cls, value: str) -> "TXT":
        """Build a TXT record from an arbitrary-length string.

        The value is chunked into 255-octet character strings, the inverse
        of :meth:`value`.
        """
        raw = value.encode("utf-8")
        if not raw:
            return cls(("",))
        chunks = [
            raw[index : index + 255].decode("utf-8", errors="surrogateescape")
            for index in range(0, len(raw), 255)
        ]
        return cls(tuple(chunks))

    @property
    def value(self) -> str:
        """All character strings concatenated."""
        return "".join(self.strings)

    def to_wire(self) -> bytes:
        out = bytearray()
        for item in self.strings:
            raw = item.encode("utf-8")
            out.append(len(raw))
            out.extend(raw)
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "TXT":
        strings: List[str] = []
        offset = 0
        while offset < len(data):
            length = data[offset]
            offset += 1
            if offset + length > len(data):
                raise RdataError("truncated TXT character-string")
            strings.append(
                data[offset : offset + length].decode(
                    "utf-8", errors="surrogateescape"
                )
            )
            offset += length
        if not strings:
            raise RdataError("empty TXT RDATA")
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join(
            '"' + item.replace("\\", "\\\\").replace('"', '\\"') + '"'
            for item in self.strings
        )

    @classmethod
    def from_text(cls, text: str) -> "TXT":
        strings = _parse_quoted_strings(text)
        if not strings:
            raise RdataError(f"no strings in TXT text {text!r}")
        return cls(tuple(strings))


def _parse_quoted_strings(text: str) -> List[str]:
    """Parse zone-file style quoted character strings.

    Unquoted whitespace-separated tokens are also accepted, matching
    common zone-file practice.
    """
    strings: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        while index < length and text[index].isspace():
            index += 1
        if index >= length:
            break
        if text[index] == '"':
            index += 1
            current: List[str] = []
            while index < length and text[index] != '"':
                if text[index] == "\\" and index + 1 < length:
                    index += 1
                current.append(text[index])
                index += 1
            if index >= length:
                raise RdataError(f"unterminated string in {text!r}")
            index += 1  # consume closing quote
            strings.append("".join(current))
        else:
            start = index
            while index < length and not text[index].isspace():
                index += 1
            strings.append(text[start:index])
    return strings


#: Registry of implemented RDATA classes by type code.
RDATA_CLASSES: Dict[int, Type[Rdata]] = {
    cls.rrtype: cls for cls in (A, AAAA, NS, CNAME, PTR, SOA, MX, TXT)
}


def rdata_from_text(rrtype: Union[int, str], text: str) -> Rdata:
    """Parse RDATA presentation text for a given type."""
    code = RRType.from_text(rrtype) if isinstance(rrtype, str) else rrtype
    cls = RDATA_CLASSES.get(code)
    if cls is None:
        raise RdataError(f"unsupported RR type {RRType.to_text(code)}")
    return cls.from_text(text)

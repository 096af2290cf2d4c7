"""Undelegated-record data types and the unique-UR key.

The paper defines a *unique UR* as "a DNS record provided by a nameserver
(IP address) for an undelegated domain" — the same record served from two
nameservers counts twice, because each server is an independent retrieval
option for the attacker.  :attr:`UndelegatedRecord.key` implements exactly
that identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..dns.name import Name
from ..dns.rdata import RRType


class URCategory(enum.Enum):
    """URHunter's final four-way classification (§4.3)."""

    MALICIOUS = "malicious"
    CORRECT = "correct"
    PROTECTIVE = "protective"
    UNKNOWN = "unknown"

    @property
    def is_suspicious(self) -> bool:
        """Suspicious = everything that survives exclusion (§5.1)."""
        return self in (URCategory.MALICIOUS, URCategory.UNKNOWN)


@dataclass(frozen=True, slots=True)
class UndelegatedRecord:
    """One record collected from a nameserver it was never delegated to."""

    domain: Name
    nameserver_ip: str
    provider: str
    rrtype: int
    rdata_text: str
    nameserver_name: Optional[Name] = None
    ttl: int = 300

    @property
    def key(self) -> Tuple[Name, str, int, str]:
        """The unique-UR identity (domain, server IP, type, rdata)."""
        return (self.domain, self.nameserver_ip, self.rrtype, self.rdata_text)

    @property
    def rrtype_text(self) -> str:
        return RRType.to_text(self.rrtype)

    def describe(self) -> str:
        return (
            f"{self.domain} {self.rrtype_text} {self.rdata_text!r} "
            f"@ {self.nameserver_ip} ({self.provider})"
        )


@dataclass
class ClassifiedUR:
    """An undelegated record with its verdict and supporting evidence."""

    record: UndelegatedRecord
    category: URCategory
    #: why the verdict was reached (condition names, rule ids, ...)
    reasons: Tuple[str, ...] = ()
    #: the IPs URHunter associated with this record (§4.3)
    corresponding_ips: Tuple[str, ...] = ()
    #: TXT semantic category (for TXT records; see repro.core.txt)
    txt_category: Optional[str] = None

    @property
    def is_suspicious(self) -> bool:
        return self.category.is_suspicious

    @property
    def is_malicious(self) -> bool:
        return self.category is URCategory.MALICIOUS


@dataclass(frozen=True)
class IpVerdict:
    """Stage-3 evidence about one corresponding IP address."""

    address: str
    intel_flagged: bool
    ids_flagged: bool
    vendor_count: int = 0
    tags: FrozenSet[str] = frozenset()
    alert_categories: Tuple[str, ...] = ()
    #: some intel vendors were unreachable — the verdict covers only the
    #: surviving quorum (degraded run)
    intel_partial: bool = False

    @property
    def is_malicious(self) -> bool:
        return self.intel_flagged or self.ids_flagged

    @property
    def label_source(self) -> str:
        """Figure 3(a) provenance: 'intel', 'ids', 'both', or 'none'."""
        if self.intel_flagged and self.ids_flagged:
            return "both"
        if self.intel_flagged:
            return "intel"
        if self.ids_flagged:
            return "ids"
        return "none"


def dedupe_urs(records: List[UndelegatedRecord]) -> List[UndelegatedRecord]:
    """Drop duplicate unique-UR keys, keeping first occurrences in order."""
    seen = set()
    unique: List[UndelegatedRecord] = []
    for record in records:
        if record.key in seen:
            continue
        seen.add(record.key)
        unique.append(record)
    return unique

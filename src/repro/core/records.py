"""Undelegated-record data types, the unique-UR key, and the UR table.

The paper defines a *unique UR* as "a DNS record provided by a nameserver
(IP address) for an undelegated domain" — the same record served from two
nameservers counts twice, because each server is an independent retrieval
option for the attacker.  :attr:`UndelegatedRecord.key` implements exactly
that identity.

Every unique UR is kept from the scan to the report, and their number
grows with the attacker campaigns, so the run holds them as rows, not
objects: a :class:`URTable` keeps one row of interned columns per record
(domain, server, type, rdata, TTL), :class:`URVerdicts` keeps stage 2's
verdict columns beside it, and :class:`ReportEntries` is the report's
order over both.  Each is a ``Sequence`` that builds its
:class:`UndelegatedRecord` / :class:`ClassifiedUR` values on demand
(equal rows give equal, not identical, values).
"""

from __future__ import annotations

import enum
import operator
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
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


def is_unverifiable(reasons: Sequence[str]) -> bool:
    """Does a verdict with these reasons rest on incomplete evidence
    (an ``unverifiable...`` reason: a source it needed was down)?"""
    return any(reason.startswith("unverifiable") for reason in reasons)


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


# -- the UR table ----------------------------------------------------------


class _Rows(Sequence):
    """A read-only row sequence whose values are built on demand.

    Equal to any sequence of equal values in the same order (a list of
    records compares equal to the table holding them), and unhashable.
    """

    __slots__ = ()

    def _row(self, index: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        return self._row(index)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _intern(ids: Dict, values: List, key, value) -> int:
    """``value``'s row in ``values`` (appended on first sight), looked
    up by ``key``."""
    row = ids.get(key)
    if row is None:
        row = ids[key] = len(values)
        values.append(value)
    return row


#: the per-row columns of a :class:`URTable`
_ROW_COLUMNS = (
    "domain_index",
    "server_index",
    "rrtypes",
    "rdata_index",
    "ttls",
)


class URTable(_Rows):
    """Unique URs, one row of interned columns per record.

    ``domains``, ``servers`` (``(address, provider, hostname)``) and
    ``rdatas`` are the value tables, each value held once;
    ``domain_index``, ``server_index`` and ``rdata_index`` hold one
    table row per record, ``rrtypes`` and ``ttls`` the record's own
    values — 18 bytes a row.  Domains are interned by their exact
    labels, so a row reads back the spelling it was appended with.

    :meth:`append` interns through three lookup dicts; :meth:`take`
    returns a sealed table that shares the value tables and keeps no
    lookup dicts (appending to it raises).
    """

    __slots__ = (
        "domains",
        "servers",
        "rdatas",
        "domain_index",
        "server_index",
        "rrtypes",
        "rdata_index",
        "ttls",
        "_ids",
    )

    def __init__(self, records: Iterable[UndelegatedRecord] = ()):
        self.domains: List[Name] = []
        self.servers: List[Tuple[str, str, Optional[Name]]] = []
        self.rdatas: List[str] = []
        self.domain_index = array("I")
        self.server_index = array("I")
        self.rrtypes = array("H")
        self.rdata_index = array("I")
        #: wire TTLs are unsigned 32-bit
        self.ttls = array("I")
        self._ids: Optional[Tuple[Dict, Dict, Dict]] = ({}, {}, {})
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self.rrtypes)

    def append(self, record: UndelegatedRecord) -> None:
        """Add ``record`` as the last row."""
        if self._ids is None:
            raise TypeError("a sealed URTable takes no rows")
        domain_ids, server_ids, rdata_ids = self._ids
        domain = record.domain
        self.domain_index.append(
            _intern(domain_ids, self.domains, domain.labels, domain)
        )
        address, provider = record.nameserver_ip, record.provider
        hostname = record.nameserver_name
        self.server_index.append(
            _intern(
                server_ids,
                self.servers,
                (
                    address,
                    provider,
                    None if hostname is None else hostname.labels,
                ),
                (address, provider, hostname),
            )
        )
        self.rrtypes.append(record.rrtype)
        rdata = record.rdata_text
        self.rdata_index.append(_intern(rdata_ids, self.rdatas, rdata, rdata))
        self.ttls.append(record.ttl)

    def take(self, rows: Iterable[int]) -> "URTable":
        """A sealed table of ``rows``, in that order."""
        rows = list(rows)
        taken = URTable()
        taken._ids = None
        taken.domains = self.domains
        taken.servers = self.servers
        taken.rdatas = self.rdatas
        for column in _ROW_COLUMNS:
            values = getattr(self, column)
            setattr(
                taken,
                column,
                array(values.typecode, map(values.__getitem__, rows)),
            )
        return taken

    def _record(
        self, domain: int, server: int, rrtype: int, rdata: int, ttl: int
    ) -> UndelegatedRecord:
        address, provider, hostname = self.servers[server]
        return UndelegatedRecord(
            self.domains[domain],
            address,
            provider,
            rrtype,
            self.rdatas[rdata],
            hostname,
            ttl,
        )

    def _row(self, index: int) -> UndelegatedRecord:
        return self._record(
            self.domain_index[index],
            self.server_index[index],
            self.rrtypes[index],
            self.rdata_index[index],
            self.ttls[index],
        )

    def __iter__(self) -> Iterator[UndelegatedRecord]:
        return map(
            self._record,
            self.domain_index,
            self.server_index,
            self.rrtypes,
            self.rdata_index,
            self.ttls,
        )


#: verdict column codes: a category's position in the enum
_CATEGORIES = tuple(URCategory)
_CATEGORY_CODES = {category: code for code, category in enumerate(_CATEGORIES)}


class _VerdictRows(_Rows):
    """Classified entries whose categories and reasons can be read
    without building the entries (see :func:`categories_of`,
    :func:`reasons_of`, :func:`select`)."""

    __slots__ = ()

    def categories(self) -> Iterable[URCategory]:
        raise NotImplementedError

    def reasons(self) -> Iterable[Tuple[str, ...]]:
        raise NotImplementedError

    def select(
        self, categories: Collection[URCategory]
    ) -> List[ClassifiedUR]:
        raise NotImplementedError


class URVerdicts(_VerdictRows):
    """Stage 2's verdict columns beside a :class:`URTable`'s rows.

    Row ``i`` is ``table[i]`` with its category (``categories``, one
    byte), its reasons (``reason_index`` into ``reasons``: every row
    with one verdict shares one tuple) and its TXT category
    (``txt_index`` into ``txt_categories``).  A stage-2 entry names no
    corresponding IPs; stage 3 adds them to its own refined entries.
    The verdicts are the classification's own, so classifying one
    table twice leaves the first outcome as it was.
    """

    __slots__ = (
        "table",
        "codes",
        "reason_table",
        "reason_index",
        "txt_table",
        "txt_index",
        "_ids",
    )

    def __init__(self, table: URTable):
        self.table = table
        self.codes = array("B")
        self.reason_table: List[Tuple[str, ...]] = []
        self.reason_index = array("H")
        self.txt_table: List[Optional[str]] = []
        self.txt_index = array("B")
        self._ids: Tuple[Dict, Dict] = ({}, {})

    @classmethod
    def from_entries(cls, entries: Iterable[ClassifiedUR]) -> "URVerdicts":
        """The verdict columns (and their table) of stage-2 entries."""
        table = URTable()
        verdicts = cls(table)
        for entry in entries:
            if entry.corresponding_ips:
                raise ValueError("a stage-2 entry names no corresponding IP")
            table.append(entry.record)
            verdicts.append(entry.category, entry.reasons, entry.txt_category)
        return verdicts

    def __len__(self) -> int:
        return len(self.codes)

    def append(
        self,
        category: URCategory,
        reasons: Tuple[str, ...],
        txt_category: Optional[str],
    ) -> None:
        """The verdict of the next table row."""
        reason_ids, txt_ids = self._ids
        self.codes.append(_CATEGORY_CODES[category])
        self.reason_index.append(
            _intern(reason_ids, self.reason_table, reasons, reasons)
        )
        self.txt_index.append(
            _intern(txt_ids, self.txt_table, txt_category, txt_category)
        )

    def _entry(
        self, record: UndelegatedRecord, code: int, reasons: int, txt: int
    ) -> ClassifiedUR:
        return ClassifiedUR(
            record,
            _CATEGORIES[code],
            self.reason_table[reasons],
            (),
            self.txt_table[txt],
        )

    def _row(self, index: int) -> ClassifiedUR:
        return self._entry(
            self.table._row(index),
            self.codes[index],
            self.reason_index[index],
            self.txt_index[index],
        )

    def __iter__(self) -> Iterator[ClassifiedUR]:
        return map(
            self._entry,
            self.table,
            self.codes,
            self.reason_index,
            self.txt_index,
        )

    def categories(self) -> Iterable[URCategory]:
        return map(_CATEGORIES.__getitem__, self.codes)

    def reasons(self) -> Iterable[Tuple[str, ...]]:
        return map(self.reason_table.__getitem__, self.reason_index)

    def rows_in(self, categories: Collection[URCategory]) -> array:
        """The rows whose category is one of ``categories``, in order."""
        codes = {_CATEGORY_CODES[category] for category in categories}
        wanted = map(codes.__contains__, self.codes)
        return array("I", compress(range(len(self)), wanted))

    def select(
        self, categories: Collection[URCategory]
    ) -> List[ClassifiedUR]:
        """The entries whose category is one of ``categories``, in row
        order (only those are built)."""
        return list(map(self._row, self.rows_in(categories)))


_CLEAN = (URCategory.CORRECT, URCategory.PROTECTIVE)


class ReportEntries(_VerdictRows):
    """The report's entries: stage 2's clean rows (correct and
    protective, in record order), then stage 3's refined entries.

    Holds the clean rows' numbers (4 bytes each), not their entries.
    """

    __slots__ = ("verdicts", "clean", "refined")

    def __init__(
        self, verdicts: URVerdicts, refined: Sequence[ClassifiedUR]
    ):
        self.verdicts = verdicts
        self.clean = verdicts.rows_in(_CLEAN)
        self.refined = refined

    def __len__(self) -> int:
        return len(self.clean) + len(self.refined)

    def _row(self, index: int) -> ClassifiedUR:
        clean = len(self.clean)
        if index < 0:
            index += len(self)
        if 0 <= index < clean:
            return self.verdicts._row(self.clean[index])
        if index < 0:
            raise IndexError(index)
        return self.refined[index - clean]

    def __iter__(self) -> Iterator[ClassifiedUR]:
        yield from map(self.verdicts._row, self.clean)
        yield from self.refined

    def categories(self) -> Iterable[URCategory]:
        codes = self.verdicts.codes
        yield from (_CATEGORIES[codes[row]] for row in self.clean)
        yield from (entry.category for entry in self.refined)

    def reasons(self) -> Iterable[Tuple[str, ...]]:
        table = self.verdicts.reason_table
        index = self.verdicts.reason_index
        yield from (table[index[row]] for row in self.clean)
        yield from (entry.reasons for entry in self.refined)

    def select(
        self, categories: Collection[URCategory]
    ) -> List[ClassifiedUR]:
        # the clean rows are exactly the verdicts' correct and
        # protective rows, in the same order
        clean = [category for category in categories if category in _CLEAN]
        selected = self.verdicts.select(clean) if clean else []
        selected.extend(
            entry for entry in self.refined if entry.category in categories
        )
        return selected


def categories_of(entries: Sequence[ClassifiedUR]) -> Iterable[URCategory]:
    """Each entry's category, in order (off the verdict column, for a
    view)."""
    if isinstance(entries, _VerdictRows):
        return entries.categories()
    return (entry.category for entry in entries)


def reasons_of(entries: Sequence[ClassifiedUR]) -> Iterable[Tuple[str, ...]]:
    """Each entry's reasons, in order (off the verdict column, for a
    view)."""
    if isinstance(entries, _VerdictRows):
        return entries.reasons()
    return (entry.reasons for entry in entries)


def select(
    entries: Sequence[ClassifiedUR], categories: Collection[URCategory]
) -> List[ClassifiedUR]:
    """The entries whose category is one of ``categories``, in order
    (for a view, only those are built)."""
    if isinstance(entries, _VerdictRows):
        return entries.select(categories)
    return [entry for entry in entries if entry.category in categories]

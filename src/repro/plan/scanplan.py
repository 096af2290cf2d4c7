"""The scan-plan IR: stage 1 as an explicit, hashable query plan.

A :class:`ScanPlan` is a *pure, deterministic* value computed from the
measurement world and the :class:`~repro.core.hunter.HunterConfig`
before a single packet moves: every stage-1 query — protective probe,
correct-record resolution, UR scan — is enumerated as a planned unit,
UR units are grouped per target nameserver into
:class:`NameserverGroup`\\ s, and the whole plan carries a stable
content hash that checkpoints and traces stamp so a resumed or replayed
run can prove it is executing the *same* scan.

Determinism contract
--------------------
``build_plan`` owns the enumeration and the randomized (ethics) query
order of stage 1: one ``random.Random(seed)`` shuffles the
correct-record matrix first and the UR matrix second
(``tests/plan/oracle.py`` is the order reference).  The plan hash
covers only structural query identity —
``(server_ip, qname, qtype, recursion_desired)`` per unit
plus the scan knobs that shape the matrix — so it is invariant under
the order groups run in and the iteration order of the world's dicts
and sets.

Storage
-------
The paper's stage 1 is a 36M-cell work matrix, so a unit is a *cell*,
not an object.  Each collection is a :class:`UnitColumns`: a server
table, a qname table and the query types — the rows of a ``server x
qname x query type`` grid — and one array holding each planned unit's
cell, in planned order.  The cells are enumerated server-major (a UR
server's row skips the domains delegated to it) and shuffled once, so
a unit's cell names its question: ``divmod`` by the block
``len(qnames) * width`` gives its server row, and ``divmod`` of the
rest by ``width`` its qname and qtype rows.  A UR group holds its
unit indices.  Each array is the narrowest unsigned type that holds
its values (2 bytes up to 65,536, 4 above), so a UR unit costs 4 or 8
bytes and any other 2 or 4.  No object and no column per unit exists:
the group runner decodes each row's question as it sends it
(:func:`repro.plan.shards.lane_queries`), and a collector fold decodes
a row by its unit index (:meth:`UnitColumns.row`).

This module is a leaf: it imports only the DNS name type and the
digest, so every other layer (collector, hunter, pipeline, CLI) can
import it without cycles.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..digest import sha256
from ..dns.name import Name, name

__all__ = [
    "PLAN_FORMAT_VERSION",
    "UnitColumns",
    "NameserverGroup",
    "ScanPlan",
    "build_plan",
]

#: bumped whenever the hashed plan layout changes
PLAN_FORMAT_VERSION = 1

#: the three stage-1 collections, in §4.1 execution order
COLLECTIONS = ("protective", "correct", "ur")

#: units rendered per piece of streamed canonical JSON: small, so a
#: piece stays a few tens of KiB however large the plan
_JSON_CHUNK = 256


def _index_array(size: int, items: Iterable[int]) -> array:
    """``items`` as an array of the narrowest unsigned type that holds
    every value below ``size``: 2 bytes an entry up to 65,536, 4
    above."""
    return array("H" if size <= 1 << 16 else "I", items)


class UnitColumns:
    """One collection's units, in planned scan order, as cells of its
    ``server x qname x query type`` grid.

    ``servers``/``qnames``/``query_types`` are the grid's row tables
    (one entry per *input position*, so duplicate inputs stay
    distinct); cell ``(s * len(qnames) + q) * width + t`` asks server
    row ``s`` for qname row ``q`` in query type ``t``.  Server row ``s``
    asks every qname row but the ones in ``skipped[s]``, each in every
    query type, server-major — the enumeration ``rng`` (if given)
    shuffles once.  Nothing per unit is kept but its cell, one
    :func:`_index_array` entry: 2 or 4 bytes.
    """

    __slots__ = (
        "collection",
        "recursion_desired",
        "servers",
        "qnames",
        "query_types",
        "_cells",
        "_json_tables",
    )

    def __init__(
        self,
        collection: str,
        recursion_desired: bool,
        servers: Tuple[str, ...],
        qnames: Tuple[Name, ...],
        query_types: Tuple[int, ...],
        skipped: Sequence[Collection[int]],
        rng: Optional[random.Random],
    ):
        self.collection = collection
        self.recursion_desired = recursion_desired
        self.servers = servers
        self.qnames = qnames
        self.query_types = query_types
        width = len(query_types)
        block = len(qnames) * width
        cells = _index_array(len(servers) * block, ())
        for server, rows in enumerate(skipped):
            start = server * block
            for row in (*sorted(rows), len(qnames)):
                end = server * block + row * width
                cells.extend(range(start, end))
                start = end + width
        # ``random.shuffle`` draws ``randbelow(i + 1)`` for ``i`` from
        # ``n - 1`` down to 1 and swaps — a function of the length
        # alone — so shuffling the cells puts every unit exactly where
        # shuffling a list of unit objects would have
        if rng is not None:
            rng.shuffle(cells)
        self._cells = cells
        self._json_tables: Optional[Tuple[List[str], List[str]]] = None

    def __len__(self) -> int:
        return len(self._cells)

    def _decode(self, cell: int) -> Tuple[int, int, int]:
        """``(server row, qname row, qtype row)`` of ``cell``."""
        width = len(self.query_types)
        server, question = divmod(cell, len(self.qnames) * width)
        return (server, *divmod(question, width))

    def rows(self, indices: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
        """``(server row, qname row, qtype row)`` of each unit in
        ``indices``, decoded only when asked for."""
        return map(self._decode, map(self._cells.__getitem__, indices))

    def row(self, index: int) -> Tuple[int, int, int]:
        """``(server row, qname row, qtype row)`` of unit ``index``."""
        if index < 0:
            raise IndexError(f"unit {index} out of range")
        return self._decode(self._cells[index])

    def qname(self, index: int) -> Name:
        """The qname unit ``index`` asks for."""
        return self.qnames[self.row(index)[1]]

    def lanes(self) -> Dict[str, array]:
        """Unit indices per server address: keyed in server-table order
        (table rows naming one address share its lane), each lane in
        planned scan order.  Servers without a unit have no lane."""
        lanes = {
            address: _index_array(len(self), ()) for address in self.servers
        }
        by_row = [lanes[address] for address in self.servers]
        block = len(self.qnames) * len(self.query_types)
        for index, cell in enumerate(self._cells):
            by_row[cell // block].append(index)
        return {address: lane for address, lane in lanes.items() if lane}

    def identity_json(
        self, indices: Optional[Sequence[int]] = None
    ) -> Iterator[str]:
        """The hashed structural identities (no world objects) of
        ``indices`` (default: every unit) as canonical JSON.

        Yields the comma-joined ``[server_ip, qname, qtype,
        recursion_desired]`` elements in pieces — the body of the JSON
        array ``json.dumps(..., separators=(",", ":"))`` would write for
        them, each assembled from two pre-encoded fragments, one per
        server row and one per ``(qname, qtype)`` question, so no
        per-unit list and no whole-document string ever exists.
        """
        tables = self._json_tables
        if tables is None:
            flag = "true" if self.recursion_desired else "false"
            tables = (
                ["[" + json.dumps(server) + "," for server in self.servers],
                [
                    f"{json.dumps(qname.to_text())},{int(qtype)},{flag}]"
                    for qname in self.qnames
                    for qtype in self.query_types
                ],
            )
            # kept for the next group's units, which read the same rows;
            # the whole collection (the plan hash) is read only once
            if indices is not None:
                self._json_tables = tables
        servers, questions = tables
        block = len(questions)
        cells = iter(
            self._cells
            if indices is None
            else map(self._cells.__getitem__, indices)
        )
        separator = ""
        while True:
            chunk = [
                servers[cell // block] + questions[cell % block]
                for cell in islice(cells, _JSON_CHUNK)
            ]
            if not chunk:
                return
            yield separator + ",".join(chunk)
            separator = ","


@dataclass(frozen=True, slots=True)
class NameserverGroup:
    """All units of one collection aimed at one nameserver — the unit
    of execution (:func:`repro.plan.shards.run_group`); the plan's
    :attr:`ScanPlan.groups`, the UR scan's, are also the unit of
    storage and resumption.

    ``unit_indices`` (an unsigned ``array``) index into the collection's
    units — :attr:`ScanPlan.ur_units` for a UR group (the global,
    shuffled scan order), so merging group results back into one
    sequence is a sort by index, not a re-shuffle.  Groups are keyed by
    nameserver because per-server pacing, circuit breaking, and fault
    profiles are all server-scoped: a group is the largest slice that
    can run in isolation without changing any engine decision.
    """

    index: int
    server_ip: str
    unit_indices: array


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """The full stage-1 query plan plus its content hash (which, not
    ``==``, is what says two plans are the same scan)."""

    protective_units: UnitColumns
    correct_units: UnitColumns
    ur_units: UnitColumns
    groups: Tuple[NameserverGroup, ...]
    plan_hash: str
    seed: int
    probe_domain: Name
    scanner_ip: str
    query_types: Tuple[int, ...]

    def units(self, collection: str) -> UnitColumns:
        if collection == "protective":
            return self.protective_units
        if collection == "correct":
            return self.correct_units
        if collection == "ur":
            return self.ur_units
        raise KeyError(f"unknown collection {collection!r}")

    def unit_counts(self) -> Dict[str, int]:
        return {
            collection: len(self.units(collection))
            for collection in COLLECTIONS
        }

    def summary(self) -> str:
        """Deterministic human-readable plan summary (``repro plan``)."""
        counts = self.unit_counts()
        lines = [
            f"scan plan {self.plan_hash}",
            f"  seed: {self.seed}",
            f"  probe domain: {self.probe_domain.to_text()}",
            f"  query types: "
            + ",".join(str(int(qt)) for qt in self.query_types),
            f"  protective units: {counts['protective']}",
            f"  correct units: {counts['correct']}",
            f"  ur units: {counts['ur']}",
            f"  nameserver groups: {len(self.groups)}",
        ]
        return "\n".join(lines)


def _canonical_json(
    protective: UnitColumns,
    correct: UnitColumns,
    ur: UnitColumns,
    seed: int,
    probe_domain: Name,
    scanner_ip: str,
    query_types: Sequence[int],
) -> Iterator[str]:
    """The hashed plan document, piece by piece.

    Concatenated, the pieces are byte-for-byte
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of
    ``{version, seed, probe_domain, scanner_ip, query_types, units:
    {protective, correct, ur}}`` with every unit as its identity list;
    the key order below *is* the sorted order.
    """
    scalars = json.dumps(
        {
            "probe_domain": probe_domain.to_text(),
            "query_types": [int(qt) for qt in query_types],
            "scanner_ip": scanner_ip,
            "seed": seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    yield scalars[:-1] + ',"units":{"correct":['
    yield from correct.identity_json()
    yield '],"protective":['
    yield from protective.identity_json()
    yield '],"ur":['
    yield from ur.identity_json()
    yield f']}},"version":{PLAN_FORMAT_VERSION}}}'


def build_plan(
    nameservers: Sequence[Any],
    domains: Sequence[Any],
    delegated_to: Dict[Name, Set[str]],
    open_resolver_ips: Sequence[str],
    config: Any,
) -> ScanPlan:
    """Enumerate stage 1 as a :class:`ScanPlan`.

    ``config`` is duck-typed over :class:`~repro.core.hunter.HunterConfig`
    (``seed``, ``query_types``, ``probe_domain``, ``scanner_ip``); the
    world inputs are the hunter's target lists.  Protective units are
    never shuffled, the correct matrix consumes the first shuffle, the
    UR matrix the second — an order plan hashes and stored group
    identities depend on.  Raises :class:`ValueError` naming any
    address that is both an open resolver and a UR-scanned nameserver.
    """
    rng = random.Random(config.seed)
    query_types = tuple(config.query_types)
    probe = name(config.probe_domain)
    nameservers = tuple(nameservers)
    domains = tuple(domains)
    addresses = tuple(nameserver.address for nameserver in nameservers)
    qnames = tuple(target.domain for target in domains)

    protective = UnitColumns(
        "protective",
        False,
        addresses,
        (probe,),
        query_types,
        [()] * len(addresses),
        None,
    )

    resolvers = tuple(open_resolver_ips)
    correct = UnitColumns(
        "correct",
        True,
        resolvers,
        qnames,
        query_types,
        [()] * len(resolvers),
        rng,
    )

    # "excludes the domains exactly delegated to the nameserver"
    delegated_rows: Dict[str, Set[int]] = {}
    for qname_row, qname in enumerate(qnames):
        for address in delegated_to.get(qname, ()):
            delegated_rows.setdefault(address, set()).add(qname_row)
    ur = UnitColumns(
        "ur",
        False,
        addresses,
        qnames,
        query_types,
        [delegated_rows.get(address, ()) for address in addresses],
        rng,  # ethics: randomized query order
    )

    # one UR group per nameserver lane, numbered in first-appearance
    # order of the shuffled scan (a lane's first unit index) so grouping
    # is as deterministic as the shuffle
    groups = tuple(
        NameserverGroup(
            index=group_index, server_ip=server_ip, unit_indices=indices
        )
        for group_index, (server_ip, indices) in enumerate(
            sorted(ur.lanes().items(), key=lambda lane: lane[1][0])
        )
    )
    # the correct collection and the UR scan run side by side from one
    # clock pin, so a server in both would be sent two lanes at once
    shared = sorted(
        set(resolvers).intersection(group.server_ip for group in groups)
    )
    if shared:
        raise ValueError(
            "the correct collection and the UR scan run side by side, so "
            "no server may be in both: open resolver(s) "
            f"{', '.join(shared)} are also target nameservers"
        )

    digest = sha256()
    for piece in _canonical_json(
        protective,
        correct,
        ur,
        seed=config.seed,
        probe_domain=probe,
        scanner_ip=config.scanner_ip,
        query_types=query_types,
    ):
        digest.update(piece.encode("utf-8"))
    return ScanPlan(
        protective_units=protective,
        correct_units=correct,
        ur_units=ur,
        groups=groups,
        plan_hash=digest.hexdigest(),
        seed=config.seed,
        probe_domain=probe,
        scanner_ip=config.scanner_ip,
        query_types=query_types,
    )

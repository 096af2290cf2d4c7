"""The scan-plan IR: stage 1 as an explicit, shardable query plan.

A :class:`ScanPlan` is a *pure, deterministic* value computed from the
measurement world and the :class:`~repro.core.hunter.HunterConfig`
before a single packet moves: every stage-1 query — protective probe,
correct-record resolution, UR scan — is enumerated as a typed
:class:`QueryUnit`, UR units are grouped per target nameserver into
:class:`NameserverGroup`\\ s, and the whole plan carries a stable
content hash that checkpoints and traces stamp so a resumed or sharded
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
shard count, worker count, engine choice, execution mode, and the
iteration order of the world's dicts and sets.

Storage
-------
The paper's stage 1 is a 36M-cell work matrix, so a unit is a *row of
three columns*, not an object: each collection is a
:class:`UnitColumns` — a server table, a qname table, and one ``array``
per column (server row, qname row, query-type row) in the
already-shuffled scan order — and a group holds its unit indices as an
``array('I')``.  :class:`QueryUnit` and
:class:`~repro.engine.api.QueryTask` instances are built on demand from
a row; they are values, not identities.

This module is a leaf: it imports only the DNS name type and the
engine task type, so every other layer (collector, hunter, pipeline,
CLI) can import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..dns.name import Name, name
from ..engine.api import QueryTask

__all__ = [
    "PLAN_FORMAT_VERSION",
    "QueryUnit",
    "UnitColumns",
    "PlannedTasks",
    "NameserverGroup",
    "Shard",
    "ScanPlan",
    "build_plan",
]

#: bumped whenever the hashed plan layout changes
PLAN_FORMAT_VERSION = 1

#: the three stage-1 collections, in §4.1 execution order
COLLECTIONS = ("protective", "correct", "ur")

#: units rendered per piece of streamed canonical JSON
_JSON_CHUNK = 4096


@dataclass(frozen=True, slots=True)
class QueryUnit:
    """One planned stage-1 query, as a view of one :class:`UnitColumns`
    row (built on demand: equal rows give equal, not identical, units).

    ``collection`` names which of the three collections the unit
    belongs to and doubles as the engine stage label.  ``tag`` carries
    the interpretation context the collector's response handlers expect
    (the :class:`~repro.core.collector.NameserverTarget` for UR units,
    the :class:`~repro.core.collector.DomainTarget` for correct units);
    it is derived from the world and therefore excluded from the hash.
    """

    collection: str
    server_ip: str
    qname: Name
    qtype: int
    recursion_desired: bool = False
    tag: Any = None


class UnitColumns(Sequence[QueryUnit]):
    """One collection's units, column-wise, in planned scan order.

    ``servers``/``qnames``/``query_types`` are the row tables (one
    entry per *input position*, so duplicate inputs stay distinct);
    ``server_index``/``qname_index`` (``array('I')``) and
    ``qtype_index`` (``array('B')``) hold one table row per unit.
    ``tags`` optionally parallels the server table (``tags_by_server``)
    or the qname table.  Reading a unit or a task builds it from its
    row; nothing per unit is kept but the 9 column bytes.
    """

    __slots__ = (
        "collection",
        "recursion_desired",
        "servers",
        "qnames",
        "query_types",
        "server_index",
        "qname_index",
        "qtype_index",
        "tags",
        "_tag_index",
        "_json_tables",
    )

    def __init__(
        self,
        collection: str,
        recursion_desired: bool,
        servers: Tuple[str, ...],
        qnames: Tuple[Name, ...],
        query_types: Tuple[int, ...],
        server_index: array,
        qname_index: array,
        qtype_index: array,
        tags: Optional[Tuple[Any, ...]] = None,
        tags_by_server: bool = False,
    ):
        self.collection = collection
        self.recursion_desired = recursion_desired
        self.servers = servers
        self.qnames = qnames
        self.query_types = query_types
        self.server_index = server_index
        self.qname_index = qname_index
        self.qtype_index = qtype_index
        self.tags = tags
        self._tag_index = server_index if tags_by_server else qname_index
        self._json_tables: Optional[Tuple[List[str], ...]] = None

    def __len__(self) -> int:
        return len(self.qtype_index)

    def __getitem__(self, index: int) -> QueryUnit:
        task = self.task(index)
        return QueryUnit(
            task.stage,
            task.server_ip,
            task.qname,
            task.qtype,
            task.recursion_desired,
            task.tag,
        )

    def __iter__(self) -> Iterator[QueryUnit]:
        return map(self.__getitem__, range(len(self)))

    def task(self, index: int) -> QueryTask:
        """Materialize the engine task unit ``index`` stands for."""
        return QueryTask(
            self.servers[self.server_index[index]],
            self.qnames[self.qname_index[index]],
            self.query_types[self.qtype_index[index]],
            self.collection,
            self.recursion_desired,
            None if self.tags is None else self.tags[self._tag_index[index]],
        )

    def lanes(self) -> Dict[str, array]:
        """Unit indices per server address, read off the server column
        alone: keyed in server-table order (table rows naming one
        address share its lane), each lane in planned scan order.
        Servers without a unit have no lane."""
        lanes: Dict[str, array] = {
            address: array("I") for address in self.servers
        }
        servers = self.servers
        for index, row in enumerate(self.server_index):
            lanes[servers[row]].append(index)
        return {address: lane for address, lane in lanes.items() if lane}

    def identity_json(
        self, indices: Optional[Sequence[int]] = None
    ) -> Iterator[str]:
        """The hashed structural identities (no tags, no world objects)
        of ``indices`` (default: every unit) as canonical JSON.

        Yields the comma-joined ``[server_ip, qname, qtype,
        recursion_desired]`` elements in pieces — the body of the JSON
        array ``json.dumps(..., separators=(",", ":"))`` would write for
        them, assembled from per-row pre-encoded fragments so no
        per-unit list and no whole-document string ever exists.
        """
        if self._json_tables is None:
            flag = "true" if self.recursion_desired else "false"
            self._json_tables = (
                ["[" + json.dumps(server) + "," for server in self.servers],
                [json.dumps(qname.to_text()) for qname in self.qnames],
                [f",{int(qtype)},{flag}]" for qtype in self.query_types],
            )
        servers, qnames, qtypes = self._json_tables
        if indices is None:
            indices = range(len(self))
        separator = ""
        for start in range(0, len(indices), _JSON_CHUNK):
            chunk = indices[start : start + _JSON_CHUNK]
            yield separator + ",".join(
                [
                    servers[s] + qnames[q] + qtypes[t]
                    for s, q, t in zip(
                        map(self.server_index.__getitem__, chunk),
                        map(self.qname_index.__getitem__, chunk),
                        map(self.qtype_index.__getitem__, chunk),
                    )
                ]
            )
            separator = ","


class PlannedTasks(Sequence[QueryTask]):
    """A lazy ``Sequence[QueryTask]`` over planned units.

    Position ``i`` is unit ``indices[i]`` (default: every unit, in
    scan order).  A task exists only while its reader holds it, so
    handing the engine 36M planned queries costs nothing up front.
    """

    __slots__ = ("units", "indices")

    def __init__(
        self, units: UnitColumns, indices: Optional[Sequence[int]] = None
    ):
        self.units = units
        self.indices = range(len(units)) if indices is None else indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, position: int) -> QueryTask:
        return self.units.task(self.indices[position])

    def __iter__(self) -> Iterator[QueryTask]:
        return map(self.units.task, self.indices)


@dataclass(frozen=True)
class NameserverGroup:
    """All UR units aimed at one nameserver — the sharding atom.

    ``unit_indices`` (an ``array('I')``) index into
    :attr:`ScanPlan.ur_units` (the global, shuffled scan order), so
    merging group results back into one sequence is a sort by index,
    not a re-shuffle.  Groups are keyed by nameserver because
    per-server pacing, circuit breaking, and fault profiles are all
    server-scoped: a group is the largest slice that can run in
    isolation without changing any engine decision.
    """

    index: int
    server_ip: str
    unit_indices: array


@dataclass(frozen=True)
class Shard:
    """A round-robin bundle of nameserver groups for one worker."""

    index: int
    count: int
    groups: Tuple[NameserverGroup, ...]

    @property
    def unit_count(self) -> int:
        return sum(len(group.unit_indices) for group in self.groups)


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

    def tasks(
        self, collection: str, indices: Optional[Sequence[int]] = None
    ) -> PlannedTasks:
        """Engine tasks for one collection, in planned scan order —
        or, given a group's ``unit_indices``, for just those units."""
        return PlannedTasks(self.units(collection), indices)

    def unit_counts(self) -> Dict[str, int]:
        return {
            "protective": len(self.protective_units),
            "correct": len(self.correct_units),
            "ur": len(self.ur_units),
        }

    def shard(self, count: int) -> List[Shard]:
        """Partition the nameserver groups into ``count`` shards.

        Round-robin by group index: every group lands in exactly one
        shard, shard membership depends only on (plan, count), and the
        union over shards is the whole plan.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        buckets: List[List[NameserverGroup]] = [[] for _ in range(count)]
        for group in self.groups:
            buckets[group.index % count].append(group)
        return [
            Shard(index=index, count=count, groups=tuple(bucket))
            for index, bucket in enumerate(buckets)
        ]

    def summary(self, shards: int = 1) -> str:
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
        partition = self.shard(shards)
        lines.append(f"  shards: {shards}")
        for shard in partition:
            lines.append(
                f"    shard {shard.index}: {len(shard.groups)} groups, "
                f"{shard.unit_count} units"
            )
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


def _matrix(
    rows: Sequence[Tuple[int, Sequence[int]]],
    width: int,
    rng: Optional[random.Random],
) -> Tuple[array, array, array]:
    """Enumerate ``server row x qname rows x query types`` as the three
    unit columns, then put them in ``rng``'s shuffled order.

    ``random.shuffle`` draws ``randbelow(i + 1)`` for ``i`` from
    ``n - 1`` down to 1 and swaps — a function of the length alone — so
    shuffling the positions ``0..n-1`` and gathering each column
    through them lands every unit exactly where shuffling a list of
    unit objects would have.
    """
    server_index = array("I")
    qname_index = array("I")
    qtype_index = array("B")
    pattern = array("B", range(width))
    for server_row, qname_rows in rows:
        server_index.extend(
            array("I", [server_row]) * (len(qname_rows) * width)
        )
        qname_index.extend([row for row in qname_rows for _ in pattern])
        qtype_index.extend(pattern * len(qname_rows))
    if rng is None:
        return server_index, qname_index, qtype_index
    order = array("I", range(len(qtype_index)))
    rng.shuffle(order)
    return tuple(  # type: ignore[return-value]
        array(column.typecode, map(column.__getitem__, order))
        for column in (server_index, qname_index, qtype_index)
    )


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
    width = len(query_types)
    probe = name(config.probe_domain)
    nameservers = tuple(nameservers)
    domains = tuple(domains)
    addresses = tuple(nameserver.address for nameserver in nameservers)
    qnames = tuple(target.domain for target in domains)
    every_qname = range(len(qnames))

    protective = UnitColumns(
        "protective",
        False,
        addresses,
        (probe,),
        query_types,
        *_matrix([(row, (0,)) for row in range(len(addresses))], width, None),
    )

    resolvers = tuple(open_resolver_ips)
    correct = UnitColumns(
        "correct",
        True,
        resolvers,
        qnames,
        query_types,
        *_matrix(
            [(row, every_qname) for row in range(len(resolvers))], width, rng
        ),
        tags=domains,
    )

    # "excludes the domains exactly delegated to the nameserver"
    delegated_rows: Dict[str, Set[int]] = {}
    for qname_row, qname in enumerate(qnames):
        for address in delegated_to.get(qname, ()):
            delegated_rows.setdefault(address, set()).add(qname_row)
    ur_rows = []
    for server_row, address in enumerate(addresses):
        skipped = delegated_rows.get(address)
        ur_rows.append(
            (
                server_row,
                every_qname
                if not skipped
                else [row for row in every_qname if row not in skipped],
            )
        )
    ur = UnitColumns(
        "ur",
        False,
        addresses,
        qnames,
        query_types,
        *_matrix(ur_rows, width, rng),  # ethics: randomized query order
        tags=nameservers,
        tags_by_server=True,
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

    digest = hashlib.sha256()
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

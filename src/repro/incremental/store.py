"""The content-addressed group result store.

A longitudinal deployment re-runs the same scan plan over a slowly
changing world: most nameserver groups answer exactly as they did last
round.  :class:`GroupResultStore` persists each group's merged outcome
(the encoded :class:`~repro.plan.shards.GroupResult`: reduced
responses, buffered trace events, ScanMetrics/resilience slices) under
a two-level key:

* the **identity** — a digest over the group's :class:`QueryUnit`
  identities (server, qname, qtype, RD bit) — names the file, so one
  group maps to one slot across runs of the same plan;
* the **state digest** — a digest over the identity *plus*
  :func:`group_state`, everything else a group's outcome is a function
  of: the serving nameserver's answer-relevant state, the provider, the
  scan-shaping config, the fault profiles installed on that server, and
  the time anchors a fault window or a run deadline reads — decides
  whether the slot may be replayed.

A stored digest equal to the current one is a **hit** (replay, no
queries); a stored file under a different digest is an **invalidate**
(the world moved — re-execute and overwrite); no file is a **miss**.
The classification epoch (the scan start every UR group is pinned to)
joins the digest only where the group reads the clock (a flap, a
bounded fault window, a run deadline): everything else a group result
carries is epoch-relative (elapsed times, latency deltas, clock-free
deterministic events), so a clean or uniformly lossy group replayed
thirty virtual days later, or pinned at any other epoch, composes
byte-identically — that is the whole point of the warm run.

Writes are atomic (:func:`atomic_write`, shared with the checkpoint
store).  A directory written under another
:data:`STORE_FORMAT_VERSION` is refused when it is opened
(:class:`StoreFormatError`): its slots are named and keyed differently,
so reading on would be a silent all-miss run.  This module is a leaf:
it imports nothing from the rest of :mod:`repro`, so the plan layer can
import it lazily without cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple, Union

__all__ = [
    "STORE_FORMAT_VERSION",
    "StoreFormatError",
    "GroupResultStore",
    "atomic_write",
    "group_identity",
    "server_fingerprint",
    "scan_config_fingerprint",
    "group_state",
    "state_digest",
]

#: bumped whenever the stored payload or key derivation changes — every
#: identity and digest hashes it in, so no slot of another version can
#: ever match (2: the scan-shaping knobs went from 13 to 11; 3: fault
#: profiles and time anchors joined the state digest; 4: a hedged
#: group's ``elapsed`` and latency histogram hold estimator-timed waits)
STORE_FORMAT_VERSION = 4

#: per-group result files: ``group-<identity>.json``
GROUP_PREFIX = "group-"

#: the store's run-counter sidecar (CI uploads it as an artifact)
STATS_FILE = "store-stats.json"

#: how every file ``GroupResultStore._write`` produces begins (``\s*``:
#: formats 1 and 2 were indented, and must be recognised to be refused)
_FORMAT_HEAD = re.compile(rb'\A\{\s*"format":\s*(\d+)')


class StoreFormatError(Exception):
    """The directory holds a result store of another format version."""


@contextmanager
def atomic_write(path: Path) -> Iterator[TextIO]:
    """A text handle whose content becomes ``path`` when the block ends
    cleanly — a reader sees the previous file or the new one, never a
    torn one.  The content is staged in a file of the writer's own
    (``mkstemp`` beside the target), so two writers of one slot cannot
    truncate each other's staging file: each ``os.replace`` installs a
    whole payload and the last one wins.  If the block raises, the
    staging file is removed and ``path`` is left as it was.
    """
    fd, staged = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(staged, path)
    except BaseException:
        os.unlink(staged)
        raise


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def group_identity(plan: Any, group: Any) -> str:
    """The content address of one nameserver group.

    Derived from the group's :class:`QueryUnit` identities in planned
    scan order — the same structural tuple the plan hash covers — so it
    is invariant under shard count, worker count, engine, execution
    mode, and dict iteration order, and stable across runs of the same
    plan.  The digest is streamed from the plan's unit columns; its
    input is byte-for-byte :func:`_digest` of ``{version, server,
    units: [identity, ...]}`` (keys below are in sorted order).
    """
    digest = hashlib.sha256()
    digest.update(
        f'{{"server":{json.dumps(group.server_ip)},"units":['.encode()
    )
    for piece in plan.ur_units.identity_json(group.unit_indices):
        digest.update(piece.encode("utf-8"))
    digest.update(f'],"version":{STORE_FORMAT_VERSION}}}'.encode())
    return digest.hexdigest()


def server_fingerprint(network: Any, server_ip: str) -> Optional[Dict[str, Any]]:
    """Everything about the serving nameserver that can change answers.

    Returns ``None`` when the address does not resolve to an
    authoritative server with observable state (the group is then
    uncacheable), and for servers with a ``recursive`` unhosted policy —
    their answers depend on the wider network through the fallback
    resolver, which no per-server stamp can witness.
    """
    service = network.dns_hosts().get(server_ip)
    if service is None:
        return None
    zones = getattr(service, "zones", None)
    generation = getattr(service, "generation", None)
    policy = getattr(service, "unhosted_policy", None)
    if zones is None or generation is None or policy is None:
        return None
    policy_value = getattr(policy, "value", str(policy))
    if policy_value == "recursive" or getattr(
        service, "recursive_fallback", None
    ) is not None:
        return None
    return {
        "generation": generation,
        "zones": sorted(
            [zone.origin.to_text(), zone.serial] for zone in zones
        ),
        "policy": policy_value,
        "protective": sorted(
            [int(rrtype), rdata.to_text()]
            for rrtype, rdata in getattr(service, "protective_records", ())
        ),
        "online": bool(network.is_online(server_ip)),
    }


#: config knobs that shape what a group's scan computes — anything that
#: can change a single query's outcome or the group's reduced counters.
#: Over-keying is safe (a spurious re-execute); under-keying is not.
SCAN_SHAPING_KNOBS = (
    "seed",
    "scanner_ip",
    "probe_domain",
    "query_types",
    "retries",
    "timeout",
    "per_server_interval",
    "run_deadline",
    "stage_deadline",
    "hedge_delay",
    "aimd",
)

#: the ``HunterConfig`` fields that are neither scan-shaping nor in
#: ``FINGERPRINT_EXCLUDE``: they act on the plan (whose units the group
#: identity already hashes) or on stages 2/3 only.  Every field is in
#: exactly one of the three (asserted by a test), so a new one cannot
#: be left out of the fingerprint by forgetting it.
PLAN_OR_LATER_STAGE_KNOBS = (
    "expand_pdns_subdomains",
    "enabled_conditions",
    "min_severity",
    "use_intel",
    "use_ids",
    "use_cohost_join",
)


def scan_config_fingerprint(config: Any) -> str:
    """Digest of the scan-shaping config knobs (see the tuple above)."""
    knobs: Dict[str, Any] = {}
    for knob in SCAN_SHAPING_KNOBS:
        value = getattr(config, knob)
        if isinstance(value, tuple):
            value = [int(item) for item in value]
        knobs[knob] = value
    return _digest({"version": STORE_FORMAT_VERSION, "knobs": knobs})


def group_state(
    network: Any,
    config: Any,
    server_ip: str,
    provider: str,
    epoch: Optional[float] = None,
    origin: Optional[float] = None,
) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Everything a UR group's outcome is a function of, its query units
    (the identity) aside — the group runner's purity invariant as data.

    * ``server`` — :func:`server_fingerprint`: what the nameserver answers;
    * ``provider`` — stamped on every record the group yields;
    * ``config`` — :func:`scan_config_fingerprint`: how the engine asks;
    * ``faults`` — the network's base fault seed (every group reseeds
      from it) and every profile a query to this server is evaluated
      against (:meth:`SimulatedInternet.fault_profiles`).  Empty when
      none is installed: the fault RNG is then never drawn, so the group
      shares its slot with a clean run whatever faults other servers
      carry.  A profile that reads the clock — a flap phase, a window
      that opens or closes — is keyed with its ``start`` relative to
      ``epoch``, where the group's clock is pinned; uniform loss and
      jitter never read it, so their slots are epoch-free;
    * ``deadline_offset`` — ``epoch - origin`` under a run deadline: how
      much of the budget the protective probes had spent when the group
      started.

    ``epoch`` is the classification epoch — the scan start, after the
    protective probes, where every UR group (and, side by side, every
    correct-collection group) is pinned — and ``origin`` where the run
    deadline is measured from (the epoch itself by default).  Returns
    ``(state, None)``, or ``(None, reason)`` when no digest can be
    taken: ``"uncacheable"`` (no server fingerprint) or
    ``"time-anchored"`` (an input reads the clock and no ``epoch`` was
    given — a plan inspected before its scan has run).
    """
    server = server_fingerprint(network, server_ip)
    if server is None:
        return None, "uncacheable"
    profiles = network.fault_profiles(server_ip)
    timed = [
        profile.flap_down > 0 or profile.start > 0 or profile.duration > 0
        for profile in profiles
    ]
    if epoch is None and (config.run_deadline > 0 or any(timed)):
        return None, "time-anchored"
    state: Dict[str, Any] = {
        "server": server,
        "provider": provider,
        "config": scan_config_fingerprint(config),
        "faults": {},
    }
    if profiles:
        state["faults"] = {
            "seed": network.fault_seed,
            "profiles": [
                {
                    "loss": profile.loss_rate,
                    "jitter": profile.latency_jitter,
                    "flap": [profile.flap_up, profile.flap_down],
                    "duration": profile.duration,
                    "start": profile.start - epoch if reads_clock else None,
                }
                for profile, reads_clock in zip(profiles, timed)
            ],
        }
    if config.run_deadline > 0:
        state["deadline_offset"] = 0.0 if origin is None else epoch - origin
    return state, None


def state_digest(identity: str, state: Dict[str, Any]) -> str:
    """The full replay-safety digest of one group slot: its identity
    plus its :func:`group_state`."""
    return _digest(
        {"version": STORE_FORMAT_VERSION, "identity": identity, **state}
    )


class GroupResultStore:
    """One directory of per-group result files plus run counters.

    Payloads are the JSON-safe dicts produced by
    :func:`~repro.plan.shards.encode_group_result` — the same encoding
    the process-pool wire format uses — so replaying a slot is exactly
    the merge path a freshly executed group takes.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        for stored in (
            self.path / STATS_FILE,
            *self.path.glob(f"{GROUP_PREFIX}*.json"),
        ):
            found = self._stored_format(stored)
            if found is not None and found != STORE_FORMAT_VERSION:
                raise StoreFormatError(
                    f"result store {self.path} was written in store "
                    f"format {found} ({stored.name}); this build reads "
                    f"and writes format {STORE_FORMAT_VERSION} — point "
                    "--result-store at a fresh directory"
                )
        #: run-scoped counters (reset per process, persisted on demand)
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "invalidated": 0,
            "stored": 0,
            "uncacheable": 0,
        }

    def _group_file(self, identity: str) -> Path:
        return self.path / f"{GROUP_PREFIX}{identity}.json"

    # -- slots -------------------------------------------------------------

    def get(
        self, identity: str, digest: str
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """``(payload, "stored")`` when the slot matches ``digest``, else
        ``(None, why)``: ``"miss"`` (no readable slot) or ``"stale"``
        (a slot under another digest — the caller re-executes and
        :meth:`put` overwrites it).  Counts a hit, a miss, or an
        invalidate accordingly.
        """
        path = self._group_file(identity)
        try:
            with path.open("r", encoding="utf-8") as handle:
                slot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # no slot; a torn or unreadable one degrades to a miss too,
            # never an abort
            self.stats["misses"] += 1
            return None, "miss"
        if (
            slot.get("format") != STORE_FORMAT_VERSION
            or slot.get("digest") != digest
        ):
            self.stats["invalidated"] += 1
            return None, "stale"
        self.stats["hits"] += 1
        return slot["group"], "stored"

    def put(
        self, identity: str, digest: str, payload: Dict[str, Any]
    ) -> None:
        """Persist one freshly executed group under its current digest."""
        self.path.mkdir(parents=True, exist_ok=True)
        self._write(
            self._group_file(identity),
            {
                "format": STORE_FORMAT_VERSION,
                "identity": identity,
                "digest": digest,
                "group": payload,
            },
        )
        self.stats["stored"] += 1

    def identities(self) -> List[str]:
        """All stored slot identities (sorted, for inspection/tests)."""
        return sorted(
            path.name[len(GROUP_PREFIX) : -len(".json")]
            for path in self.path.glob(f"{GROUP_PREFIX}*.json")
        )

    # -- stats -------------------------------------------------------------

    def write_stats(self) -> Path:
        """Persist the run counters next to the slots (CI artifact)."""
        self.path.mkdir(parents=True, exist_ok=True)
        target = self.path / STATS_FILE
        self._write(
            target,
            {
                "format": STORE_FORMAT_VERSION,
                "slots": len(self.identities()),
                **self.stats,
            },
        )
        return target

    # -- raw io ------------------------------------------------------------

    @staticmethod
    def _stored_format(path: Path) -> Optional[int]:
        """The ``format`` a store file was written under, read off its
        first bytes (:meth:`_write` puts the key first); None for a
        missing, torn or foreign file — :meth:`get` reads those as a
        miss."""
        try:
            with path.open("rb") as handle:
                head = _FORMAT_HEAD.match(handle.read(64))
        except OSError:
            return None
        return int(head.group(1)) if head else None

    @staticmethod
    def _write(path: Path, payload: Dict[str, Any]) -> None:
        # compact and in one piece: ``json.dump`` and any ``indent`` run
        # the pure-Python encoder, ``dumps`` without one the C encoder
        with atomic_write(path) as handle:
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")

"""The simulated internet: host registry, transport, and a virtual clock.

Hosts register under IPv4 addresses and implement small service protocols
(:class:`DnsService`, :class:`TcpService`).  Every DNS exchange is encoded
to RFC 1035 wire format and decoded on the far side, so the simulation
exercises the same parsing paths a real scanner would.

The clock is virtual — time advances only when :meth:`SimulatedInternet.tick`
runs or a transaction charges latency — keeping every run deterministic.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Dict, Iterator, List, Optional, Protocol as TypingProtocol, Sequence,
)  # fmt: skip

from ..dns.message import Message, Rcode
from ..dns.wire import (
    WireCodecCache,
    WireError,
    _with_message_id,
    decode_message,
    encode_message,
)
from .scanpath import ScanPathMetrics
from .traffic import DNS_PORT, FlowRecord, Protocol, TrafficCapture

#: classic UDP payload ceiling (RFC 1035 §4.2.1); larger responses are
#: truncated and the client retries over TCP
MAX_UDP_PAYLOAD = 512


class NetworkError(RuntimeError):
    """Raised for transport-level failures (no route, no listener)."""


class DnsService(TypingProtocol):
    """A host-side DNS handler.

    Implementations receive the decoded query and return a response
    message; returning None simulates a drop (the client times out).
    """

    def handle_dns_query(
        self,
        query: Message,
        src_ip: str,
        network: "SimulatedInternet",
        query_key: object = None,
    ) -> Optional[Message]:
        ...


class TcpService(TypingProtocol):
    """A host-side TCP handler for non-DNS ports."""

    def handle_tcp_connect(
        self, src_ip: str, dst_port: int, payload: bytes,
        network: "SimulatedInternet",
    ) -> Optional[bytes]:
        ...


@dataclass
class _HostEntry:
    dns: Optional[DnsService] = None
    tcp: Optional[TcpService] = None
    online: bool = True


@dataclass
class FaultProfile:
    """Failure-injection knobs for one host (or the whole network).

    * ``loss_rate`` — fraction of DNS queries silently dropped;
    * ``latency_jitter`` — extra per-query latency, uniform in
      ``[0, latency_jitter)`` virtual seconds;
    * ``flap_up`` / ``flap_down`` — when both are set the host cycles
      online for ``flap_up`` seconds then dead for ``flap_down``
      seconds, phase-locked to the virtual clock (deterministic);
    * ``start`` / ``duration`` — optional activity window: the profile
      only applies from ``start`` for ``duration`` virtual seconds
      (``duration == 0`` means open-ended).  Flap phase is measured
      relative to ``start``.

    ``flap_down > 0`` with ``flap_up == 0`` is rejected: that shape is
    a permanently-dead host disguised as a flapping one — use
    :meth:`SimulatedInternet.set_online` (or ``loss_rate=1.0``) to
    model a dead host explicitly.
    """

    loss_rate: float = 0.0
    latency_jitter: float = 0.0
    flap_up: float = 0.0
    flap_down: float = 0.0
    start: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1], got {self.loss_rate}"
            )
        if self.latency_jitter < 0:
            raise ValueError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )
        if self.flap_up < 0 or self.flap_down < 0:
            raise ValueError("flap durations must be >= 0")
        if self.flap_down > 0 and self.flap_up <= 0:
            raise ValueError(
                "flap_down > 0 requires flap_up > 0: a host that never "
                "comes back up is dead, not flapping (use set_online or "
                "loss_rate=1.0)"
            )
        if self.start < 0 or self.duration < 0:
            raise ValueError("start/duration must be >= 0")

    @property
    def active(self) -> bool:
        return (
            self.loss_rate > 0
            or self.latency_jitter > 0
            or (self.flap_up > 0 and self.flap_down > 0)
        )

    def active_at(self, now: float) -> bool:
        """Is the profile's activity window open at ``now``?"""
        if now < self.start:
            return False
        return self.duration <= 0 or now < self.start + self.duration

    def flapped_down(self, now: float) -> bool:
        """Is a flapping host inside its dead window at ``now``?"""
        period = self.flap_up + self.flap_down
        if self.flap_down <= 0 or period <= 0:
            return False
        return ((now - self.start) % period) >= self.flap_up


class SimulatedInternet:
    """Registry plus transport for all simulated hosts.

    All exchanges are synchronous request/response; latency is charged to
    the virtual clock per transaction.
    """

    def __init__(self, latency: float = 0.01):
        self._hosts: Dict[str, _HostEntry] = {}
        self._clock = 0.0
        #: bumped by :meth:`set_clock`; a resolver cache entry is valid
        #: only under the generation it was learned in
        self.clock_generation = 0
        self.latency = latency
        #: the capture an open :meth:`capturing` block named; with none
        #: open, flows are counted in :attr:`stats` and not built
        self._tap: Optional[TrafficCapture] = None
        #: scan-path fast-lane hit/miss counters (timing-only telemetry)
        self.scanpath = ScanPathMetrics()
        #: memoized wire codec shared by every transaction on this network
        self.codec = WireCodecCache(self.scanpath)
        #: master switch for the fast lane (compiled answers + codec
        #: memoization).  Output is byte-identical either way; tests set
        #: it False to reach the naive path, the correctness reference.
        self.scan_cache_enabled = True
        #: network-wide pool of unhosted-REFUSED ``(template, wire)``
        #: answers: the same REFUSED body goes out whichever server is
        #: probed, so the per-server compiled caches share one pool
        self.refused_pool: Dict[object, tuple] = {}
        #: counters for observability / benchmarks — all preinitialized
        #: so the schema is stable for tests and metrics documents
        self.stats: Dict[str, int] = {
            "dns_queries": 0,
            "dns_timeouts": 0,
            "tcp_connects": 0,
            "tcp_failures": 0,
            "wire_errors": 0,
            "injected_losses": 0,
            "flap_drops": 0,
            "truncated_responses": 0,
        }
        #: failure injection (None / empty = zero overhead)
        self._global_faults: Optional[FaultProfile] = None
        self._server_faults: Dict[str, FaultProfile] = {}
        self._fault_windows: Dict[str, List[FaultProfile]] = {}
        self._fault_rng = random.Random(0)
        #: the base seed the fault RNG was last (re)seeded from — the
        #: anchor the group runner derives its per-group seeds from
        self.fault_seed = 0
        #: bumped whenever the host registry or fault profiles change;
        #: DnsChannel instances revalidate their cached lookups against it
        self._topology_generation = 0

    # -- failure injection --------------------------------------------------

    def inject_faults(
        self,
        loss_rate: float = 0.0,
        latency_jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        """Apply a network-wide fault profile (deterministic via ``seed``).

        Per-server profiles from :meth:`set_server_faults` take
        precedence over the global one.
        """
        profile = FaultProfile(
            loss_rate=loss_rate, latency_jitter=latency_jitter
        )
        self._global_faults = profile if profile.active else None
        self._fault_rng = random.Random(seed)
        self.fault_seed = seed
        self._topology_generation += 1

    def set_server_faults(
        self,
        address: str,
        loss_rate: float = 0.0,
        latency_jitter: float = 0.0,
        flap_up: float = 0.0,
        flap_down: float = 0.0,
    ) -> None:
        """Attach a fault profile to one host (zeros clear it)."""
        profile = FaultProfile(
            loss_rate=loss_rate,
            latency_jitter=latency_jitter,
            flap_up=flap_up,
            flap_down=flap_down,
        )
        if profile.active:
            self._server_faults[address] = profile
        else:
            self._server_faults.pop(address, None)
        self._topology_generation += 1

    def add_fault_window(self, address: str, profile: FaultProfile) -> None:
        """Attach a time-windowed fault profile to one host.

        Windows stack: several may target the same address (chaos
        scenarios compile onto this hook) and each active window is
        evaluated, in insertion order, before the static per-server /
        global profile.
        """
        if profile.active:
            self._fault_windows.setdefault(address, []).append(profile)
            self._topology_generation += 1

    def seed_faults(self, seed: int) -> None:
        """Re-seed the fault RNG (scenario scripts pin their own seed)."""
        self._fault_rng = random.Random(seed)
        self.fault_seed = seed

    def clear_faults(self) -> None:
        """Remove every injected fault profile."""
        self._global_faults = None
        self._server_faults.clear()
        self._fault_windows.clear()
        self._topology_generation += 1

    def _fault_profile(self, address: str) -> Optional[FaultProfile]:
        if not self._server_faults and self._global_faults is None:
            return None
        return self._server_faults.get(address, self._global_faults)

    def fault_profiles(self, address: str) -> List[FaultProfile]:
        """Every profile a query to ``address`` is evaluated against, in
        evaluation order: its windows (insertion order; each applies
        while :meth:`FaultProfile.active_at`), then the static profile
        (per-server, else global).  Empty means the fault RNG is never
        drawn for this address."""
        profiles = list(self._fault_windows.get(address, ()))
        static = self._fault_profile(address)
        if static is not None:
            profiles.append(static)
        return profiles

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._clock

    def tick(self, seconds: float = 1.0) -> float:
        """Advance the virtual clock."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._clock += seconds
        return self._clock

    def set_clock(self, seconds: float) -> float:
        """Pin the virtual clock to an absolute time.

        The group runner's isolation primitive: every nameserver group
        starts at the classification epoch, and the parent clock is
        advanced to ``epoch + makespan`` afterwards.  Unlike
        :meth:`tick` this may move the clock backwards — it rewinds to
        a previously observed instant, it never invents time.

        TTL expiries taken on the old timeline mean nothing on the new
        one, so **no resolver cache entry (answer or zone cut) survives
        a pin**: every :class:`~repro.dns.resolver.RecursiveResolver`
        on this network — registered or not, in this process or a pool
        worker's replica — compares :attr:`clock_generation` in
        ``resolve()`` and starts cold.  Every group of every phase
        therefore finds the same (empty) caches whatever ran before it.
        """
        if seconds < 0:
            raise ValueError(f"clock must be >= 0, got {seconds}")
        self._clock = float(seconds)
        self.clock_generation += 1
        return self._clock

    # -- host registry ------------------------------------------------------

    def register_dns_host(self, address: str, service: DnsService) -> None:
        """Attach a DNS service to an address (port 53)."""
        entry = self._hosts.setdefault(address, _HostEntry())
        entry.dns = service
        self._topology_generation += 1

    def register_tcp_host(self, address: str, service: TcpService) -> None:
        """Attach a generic TCP service to an address."""
        entry = self._hosts.setdefault(address, _HostEntry())
        entry.tcp = service
        self._topology_generation += 1

    def register_stub(self, address: str) -> None:
        """Register an address with no services (a plain endpoint)."""
        self._hosts.setdefault(address, _HostEntry())
        self._topology_generation += 1

    def set_online(self, address: str, online: bool) -> None:
        """Take a host down or bring it back (failure injection)."""
        entry = self._hosts.get(address)
        if entry is None:
            raise NetworkError(f"unknown host {address}")
        entry.online = online

    def knows(self, address: str) -> bool:
        return address in self._hosts

    def is_online(self, address: str) -> bool:
        entry = self._hosts.get(address)
        return entry is not None and entry.online

    def dns_hosts(self) -> Dict[str, DnsService]:
        """All currently registered DNS services by address."""
        return {
            address: entry.dns
            for address, entry in self._hosts.items()
            if entry.dns is not None
        }

    # -- traffic capture --------------------------------------------------

    @contextmanager
    def capturing(self, capture: TrafficCapture) -> Iterator[TrafficCapture]:
        """Record every flow observed while the block runs into
        ``capture`` — the exchanges a resolver makes on the caller's
        behalf included.  One tap is open at a time: an inner block
        takes over and hands back to the outer one when it ends."""
        previous = self._tap
        self._tap = capture
        try:
            yield capture
        finally:
            self._tap = previous

    # -- transport ----------------------------------------------------------

    def query_dns(
        self,
        src_ip: str,
        dst_ip: str,
        query: Message,
        transport: str = "udp",
    ) -> Message:
        """Send a DNS query and return the decoded response.

        The query is wire-encoded and re-decoded on each side.  Transport
        failures (unknown host, offline host, handler drop) raise
        :class:`NetworkError`, which callers treat as a timeout.

        Over ``"udp"`` a response larger than :data:`MAX_UDP_PAYLOAD`
        comes back truncated (TC bit set, record sections emptied);
        ``"tcp"`` carries any size.  :meth:`query_dns_auto` performs the
        standard retry-over-TCP dance.
        """
        if transport not in ("udp", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        return self._transact(
            src_ip,
            dst_ip,
            self._hosts.get(dst_ip),
            self._fault_windows.get(dst_ip, ()),
            self._fault_profile(dst_ip),
            query,
            transport,
        )

    def _transact(
        self,
        src_ip: str,
        dst_ip: str,
        entry: Optional[_HostEntry],
        windows: Sequence[FaultProfile],
        static: Optional[FaultProfile],
        query: Message,
        transport: str,
    ) -> Message:
        """One DNS transaction with the destination lookups hoisted out.

        ``entry``/``windows``/``static`` are the per-destination host
        entry and fault profiles — resolved by :meth:`query_dns` per
        call, or cached across a burst by a :class:`DnsChannel`.  The
        clock charge, fault dice, truncation check, and loss accounting
        are identical on both entry paths and on both sides of the
        ``scan_cache_enabled`` switch.
        """
        self._clock += self.latency
        stats = self.stats
        stats["dns_queries"] += 1
        # an open tap gets one row per transaction, stamped now (before
        # any jitter) and written when the transaction ends
        flow = None
        if self._tap is not None:
            flow = (self._tap, self._clock, src_ip, dst_ip, query)
        if entry is None or not entry.online or entry.dns is None:
            raise self._unanswered(flow, f"no DNS service at {dst_ip}")
        if windows or static is not None:
            now = self._clock
            profiles = [
                window for window in windows if window.active_at(now)
            ]
            if static is not None:
                profiles.append(static)
            for faults in profiles:
                if faults.flapped_down(self._clock):
                    stats["flap_drops"] += 1
                    raise self._unanswered(
                        flow, f"host {dst_ip} is flapping (down)"
                    )
                if (
                    faults.loss_rate > 0
                    and self._fault_rng.random() < faults.loss_rate
                ):
                    stats["injected_losses"] += 1
                    raise self._unanswered(
                        flow, f"query to {dst_ip} lost (injected)"
                    )
                if faults.latency_jitter > 0:
                    self._clock += (
                        self._fault_rng.random() * faults.latency_jitter
                    )
        fast = self.scan_cache_enabled
        cached = self.codec.query_hit(query) if fast else None
        query_key = None
        if cached is not None:
            # the first occurrence of this (flags, question) shape
            # proved decode(encode(q)) == q, so the original message
            # stands in for its own decode; the key is threaded to the
            # server's compiled cache, which shares its structure
            wire, query_key = cached
            decoded_query = query
        else:
            wire = encode_message(query)
            try:
                decoded_query = decode_message(wire)
            except WireError as exc:
                stats["wire_errors"] += 1
                raise NetworkError(f"query failed to encode cleanly: {exc}")
            if fast:
                self.codec.query_store(query, wire)
        response = entry.dns.handle_dns_query(
            decoded_query, src_ip, self, query_key=query_key
        )
        if response is None:
            raise self._unanswered(
                flow, f"DNS service at {dst_ip} dropped the query"
            )
        # ``decoded`` stays None until something stands in for the
        # decode of ``response_wire``: a compiled answer is already a
        # fresh clone of its codec template (its wire attached, taken
        # off here), and a codec entry's template is cloned under the
        # response's id
        decoded = None
        if not fast:
            response_wire = encode_message(response)
        else:
            response_wire = response.compiled_wire
            if response_wire is not None:
                response.compiled_wire = None
                decoded = response
            else:
                response_wire, template = self.codec.encode(response)
                if template is not None:
                    decoded = _with_message_id(
                        template, response.header.message_id
                    )
        if transport == "udp" and len(response_wire) > MAX_UDP_PAYLOAD:
            stats["truncated_responses"] += 1
            truncated = Message(
                header=replace(response.header, truncated=True),
                questions=list(response.questions),
            )
            response_wire = encode_message(truncated)
            decoded = None
        if decoded is None:
            try:
                decoded = decode_message(response_wire)
            except WireError as exc:
                stats["wire_errors"] += 1
                raise NetworkError(f"response failed to decode: {exc}")
        if flow is not None:
            self._record_dns(*flow, len(response_wire), decoded)
        return decoded

    def _unanswered(self, flow: Optional[tuple], reason: str) -> NetworkError:
        """Count a query nothing answered, write its failed row if a tap
        is open, and hand back the error to raise."""
        self.stats["dns_timeouts"] += 1
        if flow is not None:
            self._record_dns(*flow)
        return NetworkError(reason)

    def _record_dns(
        self, tap: TrafficCapture, timestamp: float, src_ip: str,
        dst_ip: str, query: Message, size: int = 0,
        response: Optional[Message] = None,
    ) -> None:  # fmt: skip
        """One DNS transaction into ``tap``; without a ``response`` the
        row is a failure and has no ``rcode``/``answers`` keys."""
        first = query.questions[0] if query.questions else None
        metadata: Dict[str, object] = {
            "qname": None if first is None else str(first.qname),
            "qtype": None if first is None else first.qtype,
        }
        if response is not None:
            metadata["rcode"] = Rcode.to_text(response.header.rcode)
            metadata["answers"] = [
                record.rdata.to_text() for record in response.answers
            ]
        tap.record(
            FlowRecord(
                timestamp, src_ip, dst_ip, Protocol.DNS, DNS_PORT, size,
                response is not None, metadata,
            )  # fmt: skip
        )
        self.scanpath.flows_recorded += 1

    def open_channel(self, src_ip: str, dst_ip: str) -> "DnsChannel":
        """A reusable (src, dst) query path with cached destination
        lookups — the engine opens one per server it queries."""
        return DnsChannel(self, src_ip, dst_ip)

    def query_dns_auto(
        self, src_ip: str, dst_ip: str, query: Message
    ) -> Message:
        """UDP first; on a truncated response, retry the query over TCP."""
        response = self.query_dns(src_ip, dst_ip, query, transport="udp")
        if response.header.truncated:
            response = self.query_dns(
                src_ip, dst_ip, query, transport="tcp"
            )
        return response

    def connect_tcp(
        self,
        src_ip: str,
        dst_ip: str,
        dst_port: int,
        payload: bytes = b"",
        protocol: Protocol = Protocol.TCP,
        metadata: Optional[Dict[str, object]] = None,
    ) -> Optional[bytes]:
        """Open a TCP exchange; returns the response bytes or None.

        A connection to an unregistered or offline address fails (an
        unsuccessful flow under an open tap, and None) — malware
        beaconing to a dead C2 looks exactly like this in the capture.
        """
        self._clock += self.latency
        self.stats["tcp_connects"] += 1
        entry = self._hosts.get(dst_ip)
        reachable = (
            entry is not None and entry.online and entry.tcp is not None
        )
        if self._tap is not None:
            merged_metadata = dict(metadata or {})
            # Keep a payload excerpt so content-inspection (IDS
            # signatures) works on the capture, as it would on a pcap.
            merged_metadata.setdefault("payload", payload[:256])
            self._tap.record(
                FlowRecord(
                    self._clock, src_ip, dst_ip, protocol, dst_port,
                    len(payload), reachable, merged_metadata,
                )  # fmt: skip
            )
            self.scanpath.flows_recorded += 1
        if not reachable:
            self.stats["tcp_failures"] += 1
            return None
        assert entry is not None and entry.tcp is not None
        return entry.tcp.handle_tcp_connect(src_ip, dst_port, payload, self)


class DnsChannel:
    """A pinned (src, dst) DNS path with destination lookups hoisted out.

    The scan engine opens one channel per nameserver and sends all of
    that server's queries through it, amortizing the host-entry and
    fault-profile resolution that :meth:`SimulatedInternet.query_dns`
    performs per call.  Cached lookups revalidate against the network's
    topology generation, which is bumped on every host registration and
    fault-profile change — so channels can never serve a stale host or
    miss a newly installed chaos window.  (``set_online`` mutates the
    cached entry in place and needs no bump.)
    """

    __slots__ = (
        "network",
        "src_ip",
        "dst_ip",
        "_generation",
        "_entry",
        "_windows",
        "_static",
    )

    def __init__(
        self, network: SimulatedInternet, src_ip: str, dst_ip: str
    ):
        self.network = network
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self._generation = -1
        self._entry: Optional[_HostEntry] = None
        self._windows: Sequence[FaultProfile] = ()
        self._static: Optional[FaultProfile] = None

    def _refresh(self) -> None:
        network = self.network
        self._entry = network._hosts.get(self.dst_ip)
        self._windows = network._fault_windows.get(self.dst_ip, ())
        self._static = network._fault_profile(self.dst_ip)
        self._generation = network._topology_generation

    def query(self, query: Message, transport: str = "udp") -> Message:
        """Exactly :meth:`SimulatedInternet.query_dns` over this path."""
        network = self.network
        if self._generation != network._topology_generation:
            self._refresh()
        return network._transact(
            self.src_ip,
            self.dst_ip,
            self._entry,
            self._windows,
            self._static,
            query,
            transport,
        )

    def query_auto(self, query: Message) -> Message:
        """UDP first; on a truncated response, retry over TCP."""
        response = self.query(query, "udp")
        if response.header.truncated:
            response = self.query(query, "tcp")
        return response

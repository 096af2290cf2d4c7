"""The group-end rule: a finished group leaves nothing behind.

Every executed stage-1 group — protective, correct, UR and the §4.2
sample — ends with :func:`repro.plan.shards.end_group`: the server it
queried drops its caches (a resolver's answers and zone cuts, an
authoritative server's compiled answers).  Nothing compiled for one
group is held for a later one, so what a scan keeps alive does not grow
with the scan matrix.  Dropping a cache must change no answer, no
store key and no report.
"""

from collections import Counter

from repro.core import URHunter
from repro.core import hunter as hunter_module
from repro.dns.message import Message
from repro.dns.rdata import RRType
from repro.dns.resolver import RecursiveResolver
from repro.dns.server import AuthoritativeServer
from repro.incremental.store import server_fingerprint
from repro.obs import RunTrace
from repro.plan import shards
from repro.scenario import build_world, small_config

SEED = 7


def _held(service) -> int:
    """Entries a service still holds for a later question."""
    if isinstance(service, AuthoritativeServer):
        return len(service._compiled)
    if isinstance(service, RecursiveResolver):
        return len(service._cache) + len(service._cuts)
    return 0


def test_every_group_leaves_its_server_empty(monkeypatch):
    world = build_world(small_config(seed=SEED))
    services = world.network.dns_hosts()
    hunter = URHunter.from_world(world)
    #: (phase, server) of every group, in execution order
    pinned = []
    #: (phase, server, entries held) of each group when the next began
    held = []
    #: compiled answers each phase's groups dropped on the way out
    dropped = Counter()
    real_pin = shards.pin_group
    real_flush = AuthoritativeServer.flush_cache

    def pin(network, start, phase, server_ip):
        if pinned:
            held.append((*pinned[-1], _held(services[pinned[-1][1]])))
        pinned.append((phase, server_ip))
        real_pin(network, start, phase, server_ip)

    def flush(server):
        dropped[pinned[-1][0]] += len(server._compiled)
        real_flush(server)

    monkeypatch.setattr(shards, "pin_group", pin)
    monkeypatch.setattr(hunter_module, "pin_group", pin)
    monkeypatch.setattr(AuthoritativeServer, "flush_cache", flush)
    hunter.run()
    held.append((*pinned[-1], _held(services[pinned[-1][1]])))

    phases = Counter(phase for phase, _ in pinned)
    assert set(phases) == {"protective", "correct", "ur", "sample"}
    assert len(held) == len(pinned)
    assert [entry for entry in held if entry[2]] == []
    # the servers did compile during their groups: the flush was real
    for phase in ("protective", "ur", "sample"):
        assert dropped[phase] > 0, phase


def _multihomed_run(scan_cache: bool):
    """A full run with one server object answering at two target
    addresses: its first group's end drops what its second would hit."""
    world = build_world(small_config(seed=SEED))
    network = world.network
    network.scan_cache_enabled = scan_cache
    first, second = world.nameserver_targets[:2]
    server = network.dns_hosts()[first.address]
    network.register_dns_host(second.address, server)
    drops = []
    real_flush = server.flush_cache

    def flush():
        drops.append(len(server._compiled))
        real_flush()

    server.flush_cache = flush
    hunter = URHunter.from_world(world)
    trace = RunTrace()
    hunter.attach_trace(trace)
    report = hunter.run()
    return (report.summary(), trace.deterministic_lines()), drops


def test_a_multihomed_server_reports_as_the_naive_path():
    fast, fast_drops = _multihomed_run(scan_cache=True)
    naive, naive_drops = _multihomed_run(scan_cache=False)
    assert fast == naive
    # both addresses' groups compiled on the one object, and each
    # group's end dropped what it had compiled
    assert sum(1 for count in fast_drops if count) >= 2
    assert not any(naive_drops)


def test_flush_cache_moves_no_store_key():
    world = build_world(small_config(seed=SEED))
    network = world.network
    target = next(
        target
        for target in world.nameserver_targets
        if network.dns_hosts()[target.address].zones
    )
    server = network.dns_hosts()[target.address]
    query = Message.make_query(
        server.zones[0].origin, RRType.SOA, recursion_desired=False
    )
    network.query_dns_auto("198.51.100.7", target.address, query)
    assert server._compiled
    generation = server.generation
    fingerprint = server_fingerprint(network, target.address)
    server.flush_cache()
    assert not server._compiled
    assert server.generation == generation
    assert server_fingerprint(network, target.address) == fingerprint

"""Tests for repro.dns.resolver against a real delegation tree.

The answer cache and the zone-cut cache are held to two rules: on a
static tree a caching resolver answers what ``cache_enabled=False``
(every lookup walked from the root hints) answers, and after a change
nothing is served past the TTL it was learned under.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import render_full_report
from repro.core import HunterConfig, URHunter
from repro.dns.message import Message, Rcode, ResourceRecord
from repro.dns.name import name
from repro.dns.rdata import A, CNAME, NS, RRType, TXT
from repro.dns.resolver import (
    OpenResolver,
    RecursiveResolver,
    ResolutionError,
    StubResolver,
)
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.hosting.registry import DnsRoot
from repro.net.network import SimulatedInternet
from repro.pipeline.checkpoint import encode_stage1
from repro.scenario import ScenarioConfig, build_world, small_config


@pytest.fixture
def tree():
    """A network with root, .com/.net TLDs and three authoritative zones."""
    return _build_tree()


def _build_tree():
    network = SimulatedInternet()
    root = DnsRoot(network)

    example_server = AuthoritativeServer("ns1.example.com")
    example_zone = zone_from_records(
        "example.com",
        [
            ("example.com", "A", "192.0.2.10"),
            ("www", "CNAME", "example.com."),
            ("alias", "CNAME", "target.other.net."),
            ("ns1", "A", "10.10.0.1"),
        ],
    )
    example_zone.ensure_soa("ns1.example.com")
    example_server.load_zone(example_zone)
    network.register_dns_host("10.10.0.1", example_server)

    other_server = AuthoritativeServer("ns1.other.net")
    other_zone = zone_from_records(
        "other.net",
        [
            ("target", "A", "192.0.2.20"),
            ("ns1", "A", "10.20.0.1"),
        ],
    )
    other_zone.ensure_soa("ns1.other.net")
    other_server.load_zone(other_zone)
    network.register_dns_host("10.20.0.1", other_server)

    sibling_server = AuthoritativeServer("ns1.sibling.com")
    sibling_zone = zone_from_records(
        "sibling.com", [("sibling.com", "A", "192.0.2.30")]
    )
    sibling_zone.ensure_soa("ns1.sibling.com")
    sibling_server.load_zone(sibling_zone)
    network.register_dns_host("10.30.0.1", sibling_server)

    # delegate() installs glue for nameservers under the same TLD
    root.register("example.com", "owner")
    root.delegate("example.com", [(name("ns1.example.com"), "10.10.0.1")])
    root.register("other.net", "owner2")
    root.delegate("other.net", [(name("ns1.other.net"), "10.20.0.1")])
    root.register("sibling.com", "owner3")
    root.delegate("sibling.com", [(name("ns1.sibling.com"), "10.30.0.1")])

    resolver = RecursiveResolver("10.99.0.1", network, root.root_addresses)
    return network, root, resolver


class TestIterativeResolution:
    def test_simple_a_lookup(self, tree):
        _, _, resolver = tree
        assert resolver.lookup_a("example.com") == ["192.0.2.10"]

    def test_in_zone_cname(self, tree):
        _, _, resolver = tree
        assert resolver.lookup_a("www.example.com") == ["192.0.2.10"]

    def test_cross_zone_cname_chase(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("alias.example.com", RRType.A)
        rdatas = [record.rdata for record in response.answers]
        assert A("192.0.2.20") in rdatas
        assert any(isinstance(rdata, CNAME) for rdata in rdatas)

    def test_nxdomain(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("missing.example.com", RRType.A)
        assert response.header.rcode == Rcode.NXDOMAIN

    def test_nodata(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("example.com", RRType.TXT)
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers == []

    def test_unregistered_domain_nxdomain(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("nonexistent.com", RRType.A)
        assert response.header.rcode == Rcode.NXDOMAIN

    def test_dead_nameserver_resolution_error(self, tree):
        network, root, resolver = tree
        network.set_online("10.10.0.1", False)
        resolver.flush_cache()
        with pytest.raises(ResolutionError):
            resolver.resolve("example.com", RRType.A)

    def test_upstream_query_counter(self, tree):
        _, _, resolver = tree
        before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > before


class TestCache:
    def test_cache_hit_avoids_upstream(self, tree):
        _, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries == upstream_before
        assert resolver.stats.cache_hits == 1

    def test_cache_expires_with_ttl(self, tree):
        network, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        network.tick(10_000)  # well past the 300 s default TTL
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before

    def test_cache_disabled(self, tree):
        network, root, _ = tree
        resolver = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        resolver.resolve("example.com", RRType.A)
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before

    @pytest.mark.parametrize(
        "qname, qtype, rcode",
        [
            ("missing.example.com", RRType.A, Rcode.NXDOMAIN),
            ("example.com", RRType.TXT, Rcode.NOERROR),
        ],
        ids=["nxdomain", "nodata"],
    )
    def test_negative_hit_returns_the_sections_of_the_miss(
        self, tree, qname, qtype, rcode
    ):
        """RFC 2308 §5: a cached negative answer keeps its SOA."""
        _, _, resolver = tree
        miss = resolver.resolve(qname, qtype)
        hit = resolver.resolve(qname, qtype)
        assert resolver.stats.cache_hits == 1
        assert miss.header.rcode == hit.header.rcode == rcode
        assert [record.rrtype for record in miss.authorities] == [RRType.SOA]
        assert (hit.answers, hit.authorities) == (
            miss.answers,
            miss.authorities,
        )

    def test_flush(self, tree):
        _, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        resolver.flush_cache()
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before


OLD, NEW = "192.0.2.10", "192.0.2.99"


def _ledger(resolver):
    stats = resolver.stats
    return (
        stats.upstream_queries,
        stats.delegation_hits,
        stats.delegation_expired,
        stats.delegation_evicted,
    )


def _zone(network, address, origin):
    return network.dns_hosts()[address].zone_at(origin)


def _move_example_com(network, root):
    """example.com changes provider: a new server answers every name
    under it with NEW and the TLD delegates there.  The old provider is
    not told — it keeps serving its copy (every name: OLD), which is
    how an undelegated record comes to be."""
    _zone(network, "10.10.0.1", "example.com").add("*", A(OLD))
    moved = AuthoritativeServer("ns1.newhost.com")
    zone = zone_from_records(
        "example.com", [("example.com", "A", NEW), ("*", "A", NEW)]
    )
    zone.ensure_soa("ns1.newhost.com")
    moved.load_zone(zone)
    network.register_dns_host("10.40.0.1", moved)
    root.delegate("example.com", [(name("ns1.newhost.com"), "10.40.0.1")])


class TestDelegationCache:
    """Zone cuts learned from referrals: where the next walk starts."""

    def test_counters_account_for_every_upstream_exchange(self, tree):
        network, _, resolver = tree
        resolver.resolve("example.com", RRType.A)  # root, com, the zone
        assert _ledger(resolver) == (3, 0, 0, 0)
        resolver.resolve("sibling.com", RRType.A)  # com, the zone
        assert _ledger(resolver) == (5, 1, 0, 0)
        resolver.resolve("example.com", RRType.TXT)  # the zone
        assert _ledger(resolver) == (6, 2, 0, 0)
        assert resolver.stats.cache_hits == 0
        network.tick(300)
        # both cuts above the name are past their TTL: the full walk,
        resolver.resolve("www.example.com", RRType.A)
        assert _ledger(resolver) == (9, 2, 2, 0)
        # which learned them again
        resolver.resolve("missing.example.com", RRType.A)
        assert _ledger(resolver) == (10, 3, 2, 0)

    def test_uncached_resolver_learns_no_cut(self, tree):
        network, root, _ = tree
        resolver = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        for _ in range(2):
            resolver.resolve("example.com", RRType.A)
        assert _ledger(resolver) == (6, 0, 0, 0)

    def test_flush_forgets_cuts_too(self, tree):
        _, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        resolver.flush_cache()
        resolver.resolve("example.com", RRType.TXT)
        assert _ledger(resolver) == (6, 0, 0, 0)

    def test_a_cut_lives_as_long_as_its_shortest_lived_record(self, tree):
        network, root, resolver = tree
        com = root.tld_zone("com")
        com.remove("ns1.example.com", RRType.A)
        com.add("ns1.example.com", A("10.10.0.1"), ttl=60)
        resolver.resolve("example.com", RRType.A)
        network.tick(60)
        # the NS rrset has 240 s left, the glue none: ask com again
        resolver.resolve("example.com", RRType.TXT)
        assert _ledger(resolver) == (5, 1, 1, 0)

    def test_a_glueless_cut_expires_with_the_address_it_was_built_on(
        self, tree
    ):
        network, root, resolver = tree
        # hosted.org lives on ns1.example.com, and .org has no glue for
        # a .com host: the resolver looks the address up (TTL 120)
        server = network.dns_hosts()["10.10.0.1"]
        hosted = zone_from_records(
            "hosted.org", [("hosted.org", "A", "192.0.2.40")]
        )
        hosted.ensure_soa("ns1.example.com")
        server.load_zone(hosted)
        root.register("hosted.org", "owner4")
        root.delegate("hosted.org", [(name("ns1.example.com"), "10.10.0.1")])
        example = server.zone_at("example.com")
        example.remove("ns1", RRType.A)
        example.add("ns1", A("10.10.0.1"), ttl=120)

        assert resolver.lookup_a("ns1.example.com") == ["10.10.0.1"]
        network.tick(100)
        # root, org, [ns1's address: from the answer cache], the zone
        assert resolver.lookup_a("hosted.org") == ["192.0.2.40"]
        assert _ledger(resolver) == (6, 0, 0, 0)
        assert resolver.stats.cache_hits == 1
        # that address had 20 s left to live, and so has the cut
        network.tick(20)
        resolver.resolve("hosted.org", RRType.TXT)
        # org (its cut holds), ns1's address again (from example.com's
        # cut), the zone
        assert _ledger(resolver) == (9, 2, 1, 0)

    def test_pinning_the_clock_empties_both_caches(self, tree):
        network, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        network.set_clock(network.now)
        resolver.resolve("example.com", RRType.A)
        assert _ledger(resolver) == (6, 0, 0, 0)
        assert resolver.stats.cache_hits == 0
        # ticking is the same timeline: the caches hold
        network.tick(1.0)
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.cache_hits == 1


class _RogueServer:
    """Refers every query to the attacker's server, as a delegation of
    whatever zone it was told to claim."""

    def __init__(self, claimed, attacker_ip):
        self.claimed = name(claimed)
        self.attacker_ip = attacker_ip

    def handle_dns_query(self, query, src_ip, network, query_key=None):
        response = query.make_response()
        attacker = name("ns.attacker.net")
        response.authorities.append(ResourceRecord(self.claimed, NS(attacker)))
        response.additionals.append(
            ResourceRecord(attacker, A(self.attacker_ip))
        )
        return response


@pytest.fixture
def rogue_tree(tree):
    """The tree plus rogue.com, delegated by .com to a server (set per
    test) that refers onwards to an attacker answering 6.6.6.6 for its
    own names and for sibling.com."""
    network, root, resolver = tree
    attacker = AuthoritativeServer("ns.attacker.net")
    for origin, owners in (
        ("rogue.com", ["www", "www.sub", "mail.sub"]),
        ("sibling.com", ["sibling.com"]),
    ):
        zone = zone_from_records(
            origin, [(owner, "A", "6.6.6.6") for owner in owners]
        )
        zone.ensure_soa("ns.attacker.net")
        attacker.load_zone(zone)
    network.register_dns_host("10.66.0.2", attacker)
    root.register("rogue.com", "mallory")
    root.delegate("rogue.com", [(name("ns1.rogue.com"), "10.66.0.1")])
    return network, resolver


class TestBailiwick:
    """A referral is remembered only for a zone strictly below the one
    that referred and at or above the name asked for."""

    @pytest.mark.parametrize(
        "claimed", ["sibling.com", "com", "net", ".", "rogue.com"]
    )
    def test_out_of_bailiwick_referral_is_followed_once_and_forgotten(
        self, rogue_tree, claimed
    ):
        network, resolver = rogue_tree
        network.register_dns_host(
            "10.66.0.1", _RogueServer(claimed, "10.66.0.2")
        )
        # its own names the rogue zone may send wherever it likes
        assert resolver.lookup_a("www.rogue.com") == ["6.6.6.6"]
        assert "10.66.0.2" not in {
            server
            for cut in resolver._cuts.values()
            for server in cut.servers
        }
        # what it claimed about anyone else's was used for that walk only
        assert resolver.lookup_a("sibling.com") == ["192.0.2.30"]
        assert resolver.lookup_a("target.other.net") == ["192.0.2.20"]
        assert resolver.lookup_a("example.com") == [OLD]

    def test_a_cut_beside_the_qname_is_not_cached(self, rogue_tree):
        network, resolver = rogue_tree
        network.register_dns_host(
            "10.66.0.1", _RogueServer("sub.rogue.com", "10.66.0.2")
        )
        assert resolver.lookup_a("www.rogue.com") == ["6.6.6.6"]
        before = resolver.stats.upstream_queries
        # nothing was learned about sub.rogue.com: rogue.com's server
        # is asked again
        assert resolver.lookup_a("www.sub.rogue.com") == ["6.6.6.6"]
        assert resolver.stats.upstream_queries - before == 2

    def test_in_bailiwick_referral_is_cached(self, rogue_tree):
        network, resolver = rogue_tree
        network.register_dns_host(
            "10.66.0.1", _RogueServer("sub.rogue.com", "10.66.0.2")
        )
        assert resolver.lookup_a("www.sub.rogue.com") == ["6.6.6.6"]
        assert _ledger(resolver) == (4, 0, 0, 0)
        assert resolver.lookup_a("mail.sub.rogue.com") == ["6.6.6.6"]
        assert _ledger(resolver) == (5, 1, 0, 0)


class TestNeverStalePastTtl:
    """The delegation-switch and record-injection cases of Nosyk et al.
    ("Don't Get Hijacked"): a cache may lag a change by the TTL it
    learned under, and by nothing more."""

    def test_switched_delegation_is_followed_until_the_cut_expires(
        self, tree
    ):
        network, root, resolver = tree
        start = network.now
        assert resolver.lookup_a("example.com") == [OLD]
        # the TLD's referral arrived two exchanges in, with a 300 s TTL
        expires = start + 2 * network.latency + 300
        _move_example_com(network, root)
        # a new name every time: no cached answer stands in
        for step in range(3):
            network.tick(90)
            assert resolver.lookup_a(f"h{step}.example.com") == [OLD]
        network.tick(expires - network.latency / 2 - network.now)
        assert resolver.lookup_a("h3.example.com") == [OLD]
        # that exchange carried the clock over the TTL (and over com's,
        # learned an exchange earlier): the very next lookup walks from
        # the root and follows the new delegation
        assert network.now > expires
        assert resolver.lookup_a("h4.example.com") == [NEW]
        assert resolver.stats.delegation_expired == 2
        assert resolver.lookup_a("h5.example.com") == [NEW]

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0, 1, 50, 149, 150, 299, 300, 301]),
            min_size=2,
            max_size=10,
        ),
        switch_at=st.integers(min_value=0, max_value=9),
    )
    def test_old_servers_are_never_followed_past_the_ttl(
        self, gaps, switch_at
    ):
        network, root, resolver = _build_tree()
        switch_at = min(switch_at, len(gaps) - 1)
        switched = None
        followed_new = False
        for step, gap in enumerate(gaps):
            if step == switch_at:
                _move_example_com(network, root)
                switched = network.now
            network.tick(gap)
            asked = network.now
            answer = resolver.lookup_a(f"h{step}.example.com")
            if switched is None:
                assert answer == []  # the old zone has no such name yet
                continue
            assert answer in ([OLD], [NEW])
            if asked >= switched + 300 or followed_new:
                assert answer == [NEW]
            followed_new = answer == [NEW]

    def test_added_record_is_seen_once_the_answer_expires(self, tree):
        network, _, resolver = tree
        zone = _zone(network, "10.10.0.1", "example.com")
        zone.add("short", A("192.0.2.50"), ttl=60)
        assert resolver.lookup_a("short.example.com") == ["192.0.2.50"]
        zone.add("short", A("192.0.2.51"), ttl=60)
        network.tick(59)
        assert resolver.lookup_a("short.example.com") == ["192.0.2.50"]
        network.tick(1.5)
        assert resolver.lookup_a("short.example.com") == [
            "192.0.2.50",
            "192.0.2.51",
        ]
        # negative answers expire too
        assert resolver.resolve("example.com", RRType.TXT).answers == []
        zone.add("example.com", TXT.from_value("v=spf1 -all"))
        network.tick(299)
        assert resolver.resolve("example.com", RRType.TXT).answers == []
        network.tick(1.5)
        assert resolver.resolve("example.com", RRType.TXT).answers != []


class TestDeadCut:
    """A cached cut whose servers fail costs one exchange, not the
    answer."""

    @pytest.mark.parametrize("failure", ["offline", "lame"])
    def test_failed_cached_cut_is_evicted_and_walked_around(
        self, tree, failure
    ):
        network, root, resolver = tree
        assert resolver.lookup_a("example.com") == [OLD]
        _move_example_com(network, root)
        if failure == "offline":
            network.set_online("10.10.0.1", False)
        else:
            # still up, no longer serving the zone: REFUSED
            network.dns_hosts()["10.10.0.1"].unload_zone("example.com")
        before = resolver.stats.upstream_queries
        assert resolver.lookup_a("www.example.com") == [NEW]
        # one exchange spent on the old server, then com's referral
        # and the new server's answer
        assert resolver.stats.upstream_queries - before == 3
        assert resolver.stats.delegation_evicted == 1
        # the cut learned on the way is the new one
        assert resolver.lookup_a("h1.example.com") == [NEW]
        assert resolver.stats.upstream_queries - before == 4

    def test_a_dead_zone_still_fails_and_leaves_no_cut_behind(self, tree):
        network, _, resolver = tree
        assert resolver.lookup_a("example.com") == [OLD]
        network.set_online("10.10.0.1", False)
        before = resolver.stats.upstream_queries
        with pytest.raises(ResolutionError):
            resolver.resolve("www.example.com", RRType.A)
        # the cached cut, com's (unchanged) referral, the same dead server
        assert resolver.stats.upstream_queries - before == 3
        assert name("example.com").lowered_labels not in resolver._cuts
        with pytest.raises(ResolutionError):
            resolver.resolve("www.example.com", RRType.TXT)
        # known dead, not cached: from com
        assert resolver.stats.upstream_queries - before == 5


STATIC_NAMES = [
    "example.com",
    "www.example.com",
    "alias.example.com",
    "missing.example.com",
    "ns1.example.com",
    "sibling.com",
    "target.other.net",
    "nonexistent.com",
    "com",
    "nosuchtld",
]


def _answer(resolver, qname, qtype):
    try:
        response = resolver.resolve(qname, qtype)
    except ResolutionError:
        return "SERVFAIL"
    return (
        response.header.rcode,
        [record.to_text() for record in response.answers],
    )


class TestCachedEqualsUncached:
    """On a static tree the caches change what a lookup costs, never
    what it returns.  (NS at a zone cut is left out: the parent's copy
    and the child's apex set are two different rrsets, and which one a
    resolver returns depends on whom it asks — with or without a
    cache.)"""

    @settings(max_examples=60, deadline=None)
    @given(
        lookups=st.lists(
            st.tuples(
                st.sampled_from(STATIC_NAMES),
                st.sampled_from([RRType.A, RRType.TXT, RRType.CNAME]),
                st.sampled_from([0, 1, 150, 299, 300, 301]),
            ),
            max_size=15,
        )
    )
    def test_any_interleaving_of_lookups_and_ticks(self, lookups):
        network, root, cached = _build_tree()
        oracle = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        for qname, qtype, gap in lookups:
            network.tick(gap)
            assert _answer(cached, qname, qtype) == _answer(
                oracle, qname, qtype
            )
        assert cached.stats.upstream_queries <= oracle.stats.upstream_queries

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(small_config(seed=7), id="small"),
            pytest.param(
                ScenarioConfig(seed=7), id="default", marks=pytest.mark.slow
            ),
        ],
    )
    def test_every_planned_question_of_a_world(self, scenario):
        world = build_world(scenario)
        plan = URHunter.from_world(world).plan
        questions = {
            (unit.qname, unit.qtype)
            for collection in ("protective", "correct", "ur")
            for unit in plan.units(collection)
        }
        hints = world.root.root_addresses
        cached = RecursiveResolver("10.123.0.1", world.network, hints)
        oracle = RecursiveResolver(
            "10.123.0.2", world.network, hints, cache_enabled=False
        )
        assert len(questions) >= 2 * len(world.domain_targets)
        for qname, qtype in sorted(questions):
            assert _answer(cached, qname, qtype) == _answer(
                oracle, qname, qtype
            ), (qname, qtype)
        # distinct questions: it was the cuts that saved the exchanges
        assert (
            cached.stats.upstream_queries
            < 0.6 * oracle.stats.upstream_queries
        )


def _measurement(scenario, **knobs):
    """One run's surfaces that do not read the virtual clock: stage 1's
    fingerprints, profiles, URs and counts, the full report, and the
    summary without its latency line."""
    world = build_world(scenario)
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    stage1 = hunter.stage1_collect()
    stage2 = hunter.stage2_exclude(stage1)
    report = hunter.build_report(
        stage1, stage2, hunter.stage3_analyze(stage2)
    )
    encoded = encode_stage1(stage1)
    del encoded["metrics"], encoded["now"], encoded["end"]
    full = render_full_report(
        report,
        sandbox_reports=world.sandbox_reports,
        nameserver_provider={
            target.address: target.provider
            for target in world.nameserver_targets
        },
        world=world,
    )
    summary = [
        line for line in report.summary().splitlines() if "latency" not in line
    ]
    return (json.dumps(encoded, sort_keys=True), full, summary), world


def _build_resolvers_uncached(monkeypatch):
    """From here on every resolver a world builds — the open resolvers
    and the recursive nameservers' shared fallback — walks from the
    root hints on every lookup."""
    build = RecursiveResolver.__init__

    def uncached(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.cache_enabled = False

    monkeypatch.setattr(RecursiveResolver, "__init__", uncached)


@pytest.mark.parametrize(
    "scenario, knobs",
    [
        pytest.param(small_config(seed=7), {}, id="small"),
        pytest.param(
            ScenarioConfig(seed=7), {}, id="default", marks=pytest.mark.slow
        ),
        # Appendix A's pacing: a resolver is asked every 130 s, so a
        # 300 s TTL serves two more lookups and expires — over and over
        pytest.param(
            small_config(seed=7), {"per_server_interval": 130.0}, id="paced"
        ),
    ],
)
def test_a_run_over_uncached_resolvers_measures_the_same(
    scenario, knobs, monkeypatch
):
    cached, world = _measurement(scenario, **knobs)
    _build_resolvers_uncached(monkeypatch)
    oracle, oracle_world = _measurement(scenario, **knobs)
    assert cached == oracle

    def resolver_stats(world, counter):
        return sum(
            getattr(resolver.stats, counter)
            for resolver in world.open_resolvers
        )

    # both paths really ran
    assert resolver_stats(oracle_world, "delegation_hits") == 0
    assert resolver_stats(world, "delegation_hits") > 0
    walked = resolver_stats(oracle_world, "upstream_queries")
    if knobs:
        # most cuts are found expired: a smaller saving, the same answers
        assert resolver_stats(world, "delegation_expired") > 100
        assert resolver_stats(world, "upstream_queries") < walked
    else:
        assert resolver_stats(world, "delegation_expired") == 0
        assert resolver_stats(world, "upstream_queries") < 0.6 * walked


class TestUpstreamFastLane:
    """One query message per question and one pinned channel per
    upstream server — the same exchanges, fewer objects."""

    def test_requeries_resend_the_same_message(self, tree):
        network, root, _ = tree
        resolver = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        resolver.resolve("example.com", RRType.A)
        walk = resolver.stats.upstream_queries
        exchanges = network.stats["dns_queries"]
        messages = dict(resolver.query_cache)
        assert list(messages) == [(name("example.com"), RRType.A)]
        assert len(resolver._channels) == walk == 3  # root, TLD, zone
        resolver.resolve("example.com", RRType.A)
        # the second walk costs exactly what the first did
        assert resolver.stats.upstream_queries == 2 * walk
        assert network.stats["dns_queries"] == 2 * exchanges
        assert resolver.query_cache == messages
        assert len(resolver._channels) == walk

    def test_channels_follow_host_changes(self, tree):
        network, _, resolver = tree
        assert resolver.lookup_a("example.com") == ["192.0.2.10"]
        resolver.flush_cache()
        network.set_online("10.10.0.1", False)
        with pytest.raises(ResolutionError):
            resolver.resolve("example.com", RRType.A)
        moved = AuthoritativeServer("ns1.example.com")
        moved.load_zone(
            zone_from_records(
                "example.com", [("example.com", "A", "192.0.2.99")]
            )
        )
        network.register_dns_host("10.10.0.1", moved)
        network.set_online("10.10.0.1", True)
        assert resolver.lookup_a("example.com") == ["192.0.2.99"]

    def test_a_worlds_open_resolvers_share_their_messages(
        self, small_world
    ):
        hosts = small_world.network.dns_hosts()
        caches = {
            id(hosts[address].query_cache)
            for address in small_world.open_resolver_ips
        }
        assert len(small_world.open_resolver_ips) > 1
        assert len(caches) == 1


class TestAsDnsService:
    def test_answers_recursive_clients(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.1")
        assert stub.lookup_a("example.com") == ["192.0.2.10"]

    def test_refuses_non_rd_queries(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        query = Message.make_query(
            "example.com", RRType.A, recursion_desired=False
        )
        response = network.query_dns("10.50.0.1", "10.99.0.1", query)
        assert response.header.rcode == Rcode.REFUSED

    def test_servfail_on_failure(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        network.set_online("10.10.0.1", False)
        query = Message.make_query("example.com", RRType.A)
        response = network.query_dns("10.50.0.1", "10.99.0.1", query)
        assert response.header.rcode == Rcode.SERVFAIL

    def test_formerr_on_empty_query(self, tree):
        network, _, resolver = tree
        response = resolver.handle_dns_query(Message(), "10.50.0.1", network)
        assert response.header.rcode == Rcode.FORMERR


class TestOpenResolver:
    def test_honest_by_default(self, tree):
        network, root, _ = tree
        resolver = OpenResolver(
            "10.99.0.3", network, root.root_addresses
        )
        network.register_dns_host("10.99.0.3", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.3")
        assert stub.lookup_a("example.com") == ["192.0.2.10"]
        assert not resolver.is_manipulated

    def test_manipulated_answers_rewritten(self, tree):
        network, root, _ = tree

        def rewriter(response):
            response.answers = [
                ResourceRecord(record.owner, A("6.6.6.6"), record.ttl)
                if isinstance(record.rdata, A)
                else record
                for record in response.answers
            ]
            return response

        resolver = OpenResolver(
            "10.99.0.4", network, root.root_addresses, rewriter=rewriter
        )
        network.register_dns_host("10.99.0.4", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.4")
        assert stub.lookup_a("example.com") == ["6.6.6.6"]
        assert resolver.is_manipulated

    def test_requires_root_hints(self, tree):
        network, _, _ = tree
        with pytest.raises(ValueError):
            RecursiveResolver("10.99.0.5", network, [])

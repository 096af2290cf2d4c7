"""Tests for repro.core.collector: stage-1 response collection."""

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import (
    DomainTarget,
    NameserverTarget,
    ResponseCollector,
)
from repro.core.correctness import CorrectRecordDatabase
from repro.core.hunter import Stage1Result
from repro.dns.message import Message
from repro.dns.name import name
from repro.dns.rdata import A, TXT, RRType
from repro.dns.server import AuthoritativeServer, UnhostedPolicy
from repro.dns.zone import zone_from_records
from repro.engine import BatchedEngine
from repro.engine.metrics import ScanMetrics, StageCounters
from repro.intel.ipinfo import IpInfoDatabase
from repro.net.network import SimulatedInternet
from repro.net.traffic import TrafficCapture
from repro.plan import build_plan, shards
from repro.resilience import ResilienceMetrics
from repro.scenario import build_world, small_config

from ..conftest import bare_hunter

NS_A = "10.0.0.1"  # hosts victim.com (delegated) and squat.com (UR)
NS_B = "10.0.0.2"  # protective
NS_C = "10.0.0.3"  # refuses everything


@pytest.fixture
def setup():
    network = SimulatedInternet()
    server_a = AuthoritativeServer("ns-a.host.net")
    server_a.load_zone(
        zone_from_records("victim.com", [("victim.com", "A", "10.1.0.1")])
    )
    server_a.load_zone(
        zone_from_records(
            "squat.com",
            [
                ("squat.com", "A", "10.3.0.66"),
                ("squat.com", "TXT", '"cmd=blob"'),
            ],
        )
    )
    network.register_dns_host(NS_A, server_a)
    server_b = AuthoritativeServer("ns-b.host.net")
    server_b.unhosted_policy = UnhostedPolicy.PROTECTIVE
    server_b.protective_records = [
        (RRType.A, A("203.0.113.250")),
        (RRType.TXT, TXT.from_value("this domain is not hosted here")),
    ]
    network.register_dns_host(NS_B, server_b)
    network.register_dns_host(NS_C, AuthoritativeServer("ns-c.host.net"))

    nameservers = [
        NameserverTarget(NS_A, "HostA"),
        NameserverTarget(NS_B, "HostB"),
        NameserverTarget(NS_C, "HostC"),
    ]
    domains = [
        DomainTarget(name("victim.com"), 1),
        DomainTarget(name("squat.com"), 2),
    ]
    collector = ResponseCollector(network, HunterConfig())
    return network, collector, nameservers, domains


def plan_for(nameservers=(), domains=(), resolvers=(), **knobs):
    return build_plan(
        nameservers, domains, {}, resolvers, HunterConfig(**knobs)
    )


def stage1(network, nameservers, domains, delegated_to=None, **knobs):
    return bare_hunter(
        network, nameservers, domains, delegated_to, **knobs
    ).stage1_collect()


class TestUrCollection:
    def test_urs_extracted_from_noerror(self, setup):
        network, _, nameservers, domains = setup
        result = stage1(network, nameservers, domains)
        keys = {(str(record.domain), record.nameserver_ip, record.rrtype)
                for record in result.undelegated}
        assert ("squat.com", NS_A, RRType.A) in keys
        assert ("squat.com", NS_A, RRType.TXT) in keys
        assert ("victim.com", NS_A, RRType.A) in keys
        assert result.ur.timeouts == 0

    def test_delegated_pairs_skipped(self, setup):
        network, _, nameservers, domains = setup
        urs = stage1(
            network,
            nameservers,
            domains,
            delegated_to={name("victim.com"): {NS_A}},
        ).undelegated
        assert not any(
            str(record.domain) == "victim.com"
            and record.nameserver_ip == NS_A
            for record in urs
        )
        # squat.com at NS_A is still collected.
        assert any(
            str(record.domain) == "squat.com" for record in urs
        )

    def test_refused_servers_yield_nothing(self, setup):
        network, _, _, domains = setup
        result = stage1(network, [NameserverTarget(NS_C, "HostC")], domains)
        assert result.undelegated == []

    def test_protective_answers_collected_as_urs(self, setup):
        network, _, _, domains = setup
        urs = stage1(
            network, [NameserverTarget(NS_B, "HostB")], domains
        ).undelegated
        # Both domains answered with the same protective A + TXT.
        a_records = [r for r in urs if r.rrtype == RRType.A]
        assert len(a_records) == 2
        assert all(r.rdata_text == "203.0.113.250" for r in a_records)

    def test_dead_server_counts_timeouts(self, setup):
        network, _, _, domains = setup
        network.set_online(NS_A, False)
        result = stage1(network, [NameserverTarget(NS_A, "HostA")], domains)
        assert result.undelegated == []
        assert result.ur.timeouts == result.ur.queries > 0

    def test_unique_urs_deduped(self, setup):
        network, _, nameservers, domains = setup
        urs = stage1(network, nameservers, domains).undelegated
        assert len({record.key for record in urs}) == len(urs)

    def test_provider_attached(self, setup):
        network, _, nameservers, domains = setup
        urs = stage1(network, nameservers, domains).undelegated
        providers = {record.provider for record in urs}
        assert "HostA" in providers


class TestProtectiveFingerprinting:
    def test_protective_server_fingerprinted(self, setup):
        _, collector, nameservers, _ = setup
        fingerprints = collector.collect_protective_records(
            plan_for(nameservers)
        )
        assert fingerprints[NS_B].matches(RRType.A, "203.0.113.250")

    def test_normal_server_empty_fingerprint(self, setup):
        _, collector, nameservers, _ = setup
        fingerprints = collector.collect_protective_records(
            plan_for(nameservers)
        )
        assert not fingerprints[NS_A].records
        assert not fingerprints[NS_C].records

    def test_probe_domain_used(self, setup):
        network, collector, nameservers, _ = setup
        with network.capturing(TrafficCapture()) as capture:
            collector.collect_protective_records(
                plan_for(nameservers, probe_domain="my-own-probe.net")
            )
        probed = [
            qname
            for _, qname in capture.dns_questions()
            if qname == "my-own-probe.net"
        ]
        assert probed


class TestCorrectRecordCollection:
    def test_records_folded_into_database(self, setup):
        network, collector, _, domains = setup
        from repro.dns.resolver import RecursiveResolver
        from repro.hosting.registry import DnsRoot

        # A tiny recursive path: register a root and delegate victim.com
        # to an in-bailiwick nameserver so the TLD carries glue.
        root = DnsRoot(network)
        root.register("victim.com", "o")
        root.delegate("victim.com", [(name("ns-a.hostco.com"), NS_A)])
        resolver = RecursiveResolver(
            "10.50.0.1", network, root.root_addresses
        )
        network.register_dns_host("10.50.0.1", resolver)

        ipinfo = IpInfoDatabase()
        database = CorrectRecordDatabase(ipinfo)
        collector.collect_correct_records(
            plan_for(
                domains=[DomainTarget(name("victim.com"), 1)],
                resolvers=["10.50.0.1"],
            ),
            database,
        )
        assert "10.1.0.1" in database.profile("victim.com").ips

    def test_dead_resolver_tolerated(self, setup):
        _, collector, _, domains = setup
        database = CorrectRecordDatabase(IpInfoDatabase())
        collector.collect_correct_records(
            plan_for(domains=domains, resolvers=["10.200.0.1"]), database
        )
        for target in domains:
            profile = database.profile(target.domain)
            assert not profile.ips and not profile.txt_values
        assert collector.metrics.stage("correct").responses == 0


class TestRateLimiting:
    def test_interval_advances_virtual_clock(self, setup):
        network, _, _, domains = setup
        before = network.now
        stage1(
            network,
            [NameserverTarget(NS_A, "HostA")],
            domains,
            scanner_ip="203.0.113.99",
            per_server_interval=130.0,
        )
        # 4 queries to one server -> at least 3 inter-query gaps.
        assert network.now - before >= 3 * 130.0

    def test_no_interval_no_extra_delay(self, setup):
        network, _, _, domains = setup
        before = network.now
        stage1(network, [NameserverTarget(NS_A, "HostA")], domains)
        assert network.now - before < 1.0


class TestStage1Result:
    def test_tuple_unpacking_shim_is_gone(self, setup):
        """The deprecated 4-tuple unpacking was removed: the typed
        result is deliberately not iterable."""
        network, _, nameservers, domains = setup
        result = stage1(network, nameservers, domains)
        with pytest.raises(TypeError):
            iter(result)
        assert not hasattr(result, "legacy_tuple")

    def test_wire_counters_consistent(self, setup):
        network, _, nameservers, domains = setup
        result = stage1(network, nameservers, domains)
        assert result.undelegated
        ur = result.ur
        assert ur.queries >= ur.responses > 0
        assert ur.timeouts == ur.queries - ur.responses

    def test_collect_all_folds_everything(self, setup):
        network, _, nameservers, domains = setup
        result = stage1(network, nameservers, domains)
        assert isinstance(result.correct_db, CorrectRecordDatabase)
        assert set(result.protective) == {NS_A, NS_B, NS_C}
        assert result.metrics is not None
        assert result.metrics.stage("ur").queries > 0
        assert result.metrics.stage("protective").queries > 0

    def test_collect_all_pins_the_scan_start(self, setup):
        """The classification clock is the scan start: after the
        protective probes, before the correct collection and the UR
        scan end."""
        network, _, nameservers, domains = setup
        result = stage1(network, nameservers, domains)
        assert 0.0 < result.now < result.end == network.now

    def test_ur_counters_read_without_adding_a_stage(self):
        """A ledger without a UR stage reads as zero counters, and the
        read leaves no empty ``"ur"`` stage in its ``to_dict()``."""
        metrics = ScanMetrics()
        metrics.stage("protective").queries = 3
        before = metrics.to_dict()
        result = Stage1Result(
            undelegated=[],
            protective={},
            correct_db=CorrectRecordDatabase(IpInfoDatabase()),
            metrics=metrics,
            now=0.0,
            end=0.0,
        )
        assert result.ur == StageCounters()
        assert "ur" not in metrics.stages
        assert metrics.to_dict() == before


class TestQueryTypesApi:
    def test_query_types_alias_is_gone(self):
        """ResponseCollector.QUERY_TYPES (deprecated since PR 1) was
        removed; collector.query_types is the only spelling."""
        assert not hasattr(ResponseCollector, "QUERY_TYPES")

    def test_query_types_tracks_override(self, setup):
        network, _, _, _ = setup
        collector = ResponseCollector(
            network,
            HunterConfig(query_types=(RRType.A, RRType.TXT, RRType.MX)),
        )
        assert collector.query_types == (RRType.A, RRType.TXT, RRType.MX)


class TestEngineSelection:
    def test_default_engine_is_batched(self, setup):
        network, _, nameservers, domains = setup
        hunter = bare_hunter(
            network, nameservers, domains, per_server_interval=130.0
        )
        engine = shards._group_engine(hunter.collector, NS_A, "ur", 0.0)
        assert type(engine) is BatchedEngine
        assert (engine.server_ip, engine.phase) == (NS_A, "ur")
        assert engine.policy.per_server_interval == 130.0

    def test_collector_is_the_ledger_on_its_network(self, setup):
        network, _, _, _ = setup
        config = HunterConfig(run_deadline=3.0)
        collector = ResponseCollector(network, config)
        assert collector.network is network
        assert network.knows(config.scanner_ip)
        assert collector.origin == network.now
        assert not collector.metrics.stages
        assert not ResilienceMetrics(collector.metrics).active


class TestOneMessagePerQuestion:
    def test_a_run_builds_each_questions_query_message_once(
        self, monkeypatch
    ):
        """One ``hunter.run()`` at small seed 7 — protective probes,
        correct collection, UR scan, the open and misconfigured
        resolvers' upstream walks and the §4.2 sample — builds one
        query message per ``(qname, qtype, rd)`` question: every sender
        draws from the network's memo."""
        hunter = URHunter.from_world(build_world(small_config(seed=7)))
        built = []
        make_query = Message.make_query.__func__

        def counting(cls, qname, qtype, recursion_desired=True):
            built.append((name(qname), int(qtype), recursion_desired))
            return make_query(cls, qname, qtype, recursion_desired)

        monkeypatch.setattr(Message, "make_query", classmethod(counting))
        hunter.run()
        assert len(built) > 100
        assert len(built) == len(set(built))

"""Tests for repro.sandbox.families: each malware family's behaviour."""

import pytest

from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.net.network import SimulatedInternet
from repro.net.traffic import Protocol
from repro.sandbox.families import (
    UrTarget,
    extract_spf_ips,
    make_benign_updater,
    make_darkiot_2021_variants,
    make_darkiot_2023_variant,
    make_generic_badtraffic,
    make_generic_c2,
    make_generic_exfil,
    make_generic_scanner,
    make_generic_trojan,
    make_micropsia_samples,
    make_specter_variants,
    make_tesla_samples,
)
from repro.sandbox.ids import AlertCategory
from repro.sandbox.sandbox import Sandbox

C2_IP = "203.0.113.77"
UR_NS = "10.0.0.1"
EMER_NS = "10.0.0.2"


def contacted(report, dns=False):
    """Distinct destinations of a report's DNS flows (``dns``) or of all
    its other flows, in first-seen order."""
    return list(
        dict.fromkeys(
            flow.dst
            for flow in report.capture
            if (flow.protocol is Protocol.DNS) == dns
        )
    )


class _C2:
    def handle_tcp_connect(self, src, port, payload, network):
        if payload.startswith(b"EHLO"):
            return b"250 OK"
        return b"TASK"


@pytest.fixture
def world():
    network = SimulatedInternet()
    ur_server = AuthoritativeServer("ns1.cloudns.sim")
    for domain in (
        "api.gitlab.com",
        "raw.pastebin.com",
        "ibm.com",
        "api.github.com",
        "dark.libre",
        "trusted.com",
    ):
        ur_server.load_zone(
            zone_from_records(domain, [(domain, "A", C2_IP)])
        )
    spf = (
        "v=spf1 ip4:203.0.113.77 ip4:203.0.113.78 ip4:203.0.113.79 -all"
    )
    ur_server.load_zone(
        zone_from_records(
            "speedtest.net", [("speedtest.net", "TXT", f'"{spf}"')]
        )
    )
    network.register_dns_host(UR_NS, ur_server)

    emer_server = AuthoritativeServer("dns.emercoin.sim")
    emer_server.load_zone(
        zone_from_records("dark.libre", [("dark.libre", "A", C2_IP)])
    )
    network.register_dns_host(EMER_NS, emer_server)

    for address in (C2_IP, "203.0.113.78", "203.0.113.79"):
        network.register_tcp_host(address, _C2())
    return network


@pytest.fixture
def sandbox(world):
    return Sandbox(world, victim_ip="10.99.0.1")


def ur(domain, nameservers=(UR_NS,)):
    return UrTarget(domain=domain, nameserver_ips=list(nameservers))


class TestSpfExtraction:
    def test_extracts_ip4_mechanisms(self):
        ips = extract_spf_ips(["v=spf1 ip4:1.2.3.4 ip4:5.6.7.8 -all"])
        assert ips == ["1.2.3.4", "5.6.7.8"]

    def test_empty_for_non_spf(self):
        assert extract_spf_ips(["hello world"]) == []


class TestDarkIot:
    def test_2021_variants_use_gitlab_ur(self, sandbox):
        samples = make_darkiot_2021_variants(ur("api.gitlab.com"), EMER_NS)
        assert len(samples) == 2
        report = sandbox.run(samples[0])
        questions = {qname for _, qname in report.capture.dns_questions()}
        assert "api.gitlab.com" in questions
        assert C2_IP in contacted(report)
        assert report.actionable_alerts

    def test_2021_falls_back_to_emerdns(self, world):
        # Kill the UR path: samples must use the EmerDNS OpenNIC domain.
        world.set_online(UR_NS, False)
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        samples = make_darkiot_2021_variants(ur("api.gitlab.com"), EMER_NS)
        report = sandbox.run(samples[0])
        assert EMER_NS in contacted(report, dns=True)
        assert C2_IP in contacted(report)
        assert any("EmerDNS" in note for note in report.notes)

    def test_2023_variant_abandons_emerdns(self, sandbox):
        sample = make_darkiot_2023_variant(
            ur("raw.pastebin.com"), ur("dark.libre")
        )
        report = sandbox.run(sample)
        assert EMER_NS not in contacted(report, dns=True)
        assert C2_IP in contacted(report)

    def test_2023_opennic_via_cloudns_when_pastebin_gone(self, world):
        # Remove the pastebin zone; the OpenNIC UR on the same provider
        # must take over (the paper's observed shift).
        server = world.dns_hosts()[UR_NS]
        server.unload_zone("raw.pastebin.com")
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        sample = make_darkiot_2023_variant(
            ur("raw.pastebin.com"), ur("dark.libre")
        )
        report = sandbox.run(sample)
        assert C2_IP in contacted(report)
        assert any("EmerDNS abandoned" in note for note in report.notes)

    def test_dormant_without_any_c2(self, world):
        server = world.dns_hosts()[UR_NS]
        server.unload_zone("raw.pastebin.com")
        server.unload_zone("dark.libre")
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        report = sandbox.run(
            make_darkiot_2023_variant(ur("raw.pastebin.com"), ur("dark.libre"))
        )
        assert contacted(report) == []
        assert any("dormant" in note for note in report.notes)


class TestSpecter:
    def test_three_variants_undetected(self):
        samples = make_specter_variants(ur("ibm.com"), ur("api.github.com"))
        assert len(samples) == 3
        assert all(s.vendor_detections == 0 for s in samples)

    def test_c2_alerts(self, sandbox):
        samples = make_specter_variants(ur("ibm.com"), ur("api.github.com"))
        for sample in samples:
            report = sandbox.run(sample)
            categories = [a.category for a in report.actionable_alerts]
            assert AlertCategory.CC in categories


class TestSpfCampaign:
    def test_micropsia_reads_spf_and_beacons(self, sandbox):
        samples = make_micropsia_samples(ur("speedtest.net"))
        report = sandbox.run(samples[0])
        assert C2_IP in contacted(report)
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.CC in categories

    def test_tesla_smtp_covert_channel(self, sandbox):
        samples = make_tesla_samples(ur("speedtest.net"), count=3, detected=2)
        report = sandbox.run(samples[0])
        smtp_flows = report.capture.filter(protocol=Protocol.SMTP)
        assert smtp_flows
        assert report.actionable_alerts

    def test_tesla_detection_split(self):
        samples = make_tesla_samples(ur("speedtest.net"), count=3, detected=2)
        detected = [s for s in samples if s.vendor_detections > 0]
        assert len(detected) == 2
        assert any(not s.labels for s in samples)

    def test_dormant_without_spf(self, world):
        world.dns_hosts()[UR_NS].unload_zone("speedtest.net")
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        report = sandbox.run(make_micropsia_samples(ur("speedtest.net"))[0])
        assert contacted(report) == []


class TestGenericFamilies:
    def test_trojan(self, sandbox):
        report = sandbox.run(make_generic_trojan(1, ur("trusted.com")))
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.TROJAN in categories

    def test_scanner_sweeps_and_reports(self, sandbox):
        report = sandbox.run(make_generic_scanner(1, ur("trusted.com")))
        # The sweep plus the report connection.
        assert len(contacted(report)) == 11
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.OTHER in categories

    def test_exfil(self, sandbox):
        report = sandbox.run(make_generic_exfil(1, ur("trusted.com")))
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.PRIVACY in categories

    def test_c2_bot(self, sandbox):
        report = sandbox.run(make_generic_c2(1, ur("trusted.com")))
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.CC in categories

    def test_badtraffic(self, sandbox):
        report = sandbox.run(make_generic_badtraffic(1, ur("trusted.com")))
        categories = [a.category for a in report.actionable_alerts]
        assert AlertCategory.BAD_TRAFFIC in categories

    def test_generic_families_dormant_without_ur(self, world):
        world.dns_hosts()[UR_NS].unload_zone("trusted.com")
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        report = sandbox.run(make_generic_trojan(1, ur("trusted.com")))
        assert contacted(report) == []

    def test_benign_updater_no_actionable_alerts(self, world):
        from repro.dns.resolver import RecursiveResolver

        # Benign sample needs a default resolver; skip root setup by
        # resolving through a resolver that will fail quietly.
        sandbox = Sandbox(world, victim_ip="10.99.0.1")
        report = sandbox.run(make_benign_updater(1, "trusted.com"))
        assert report.actionable_alerts == []

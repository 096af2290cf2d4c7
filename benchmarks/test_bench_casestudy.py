"""Benchmark: regenerate the §5.3 case studies.

Paper values:
  * Dark.IoT — two 2021-12-12 variants resolving api.gitlab.com (SLD
    rank 527) at ClouDNS with an EmerDNS fallback; the 2023-03-04 variant
    abandoned EmerDNS and moved to raw.pastebin.com (SLD rank 2033) URs;
  * Specter — three RAT variants holding C2 via URs for ibm.com (125)
    and api.github.com (30) on ClouDNS, flagged by none of 74 vendors;
  * masquerading SPF — records for speedtest.net (415) on 11 nameservers
    across two providers (Namecheap, CSC), three IPs in one /24, six
    samples, 16 alerts of which 4 high-risk, five Trojan-labeled and one
    fully undetected.
"""

import pytest

from repro.analysis import all_case_studies
from repro.net.traffic import Protocol

from .conftest import banner


@pytest.fixture(scope="module")
def nameserver_provider(bench_world):
    return {
        target.address: target.provider
        for target in bench_world.nameserver_targets
    }


def test_case_studies(benchmark, bench_world, bench_report, nameserver_provider):
    cases = benchmark(
        all_case_studies,
        bench_report,
        bench_world.sandbox_reports,
        nameserver_provider,
    )

    banner("§5.3 case studies (reconstructed from observed evidence)")
    for case_name, case in cases.items():
        print(f"\n[{case_name}] {case.summary()}")

    darkiot = cases["Dark.IoT"]
    assert darkiot.sample_count == 3
    assert set(darkiot.variants) == {"2021-12-12", "2023-03-04"}
    assert darkiot.providers == ["ClouDNS"]
    assert {"api.gitlab.com", "raw.pastebin.com"} <= set(darkiot.ur_domains)
    assert darkiot.max_vendor_detections > 0

    specter = cases["Specter"]
    assert specter.sample_count == 3
    assert specter.providers == ["ClouDNS"]
    assert specter.max_vendor_detections == 0  # undetected by 74 vendors

    spf = cases["SPF-masquerade"]
    print(
        f"\nSPF masquerade vs paper: nameservers {spf.nameserver_count} "
        f"(paper 11), providers {spf.provider_count} (paper 2), "
        f"IPs {len(spf.spf_ips)} in one /24 (paper 3), samples "
        f"{spf.sample_count} (paper 6), alerts {spf.alert_count} "
        f"(paper 16), high-risk {spf.high_risk_alerts} (paper 4)"
    )
    assert spf.nameserver_count == 11
    assert spf.provider_count == 2
    assert len(spf.spf_ips) == 3 and spf.all_in_same_slash24
    assert spf.sample_count == 6
    assert spf.trojan_labeled_samples == 5
    assert spf.undetected_samples == 1
    assert spf.high_risk_alerts >= 4


def test_darkiot_emerdns_shift(benchmark, bench_world):
    """The 2023 variant no longer touches EmerDNS; 2021 variants may."""
    from repro.scenario.world import EMERDNS_IP

    def nameservers_by_variant():
        out = {}
        for report in bench_world.sandbox_reports:
            if report.sample.family != "Dark.IoT":
                continue
            out.setdefault(report.sample.variant, set()).update(
                report.capture.destinations(Protocol.DNS)
            )
        return out

    queried = benchmark(nameservers_by_variant)
    banner("Dark.IoT: EmerDNS abandonment between variants")
    for variant, servers in sorted(queried.items()):
        used_emer = EMERDNS_IP in servers
        print(f"  variant {variant}: EmerDNS used = {used_emer}")
    assert EMERDNS_IP not in queried["2023-03-04"]

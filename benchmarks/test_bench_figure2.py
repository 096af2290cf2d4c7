"""Benchmark: regenerate Figure 2 (UR categories per top provider).

Paper values: the top five providers by UR volume are Cloudflare
(3,039,369), ClouDNS (90,783), Amazon (84,256), Akamai (53,100), and NHN
Cloud (23,783); correct and protective records make up a significant
portion, but malicious and unknown URs are present throughout.

The reproduction targets: Cloudflare far ahead of everyone (its anycast
fleet answers for every hosted zone, so nearly all of its URs are
*correct*), ClouDNS dominated by *protective* records, and suspicious
(unknown+malicious) URs visible on the large permissive providers.
"""

from repro.analysis import PAPER_FIGURE2_PROVIDERS, figure2

from .conftest import banner


def test_figure2(benchmark, bench_report):
    figure = benchmark(figure2, bench_report)

    banner("Figure 2: UR categories among the top 5 providers")
    print(figure.text)
    print("\npaper's top five by UR count:")
    for provider_name, count in PAPER_FIGURE2_PROVIDERS:
        print(f"  {provider_name:12} {count:>9,}")

    by_name = dict(figure.rows)
    totals = {
        provider: sum(counts.values()) for provider, counts in figure.rows
    }

    # Shape: Cloudflare leads and is correct-dominated.
    assert max(totals, key=totals.get) == "Cloudflare"
    cloudflare = by_name["Cloudflare"]
    assert cloudflare["correct"] > cloudflare["malicious"]
    # ClouDNS in the top five, protective-dominated.
    assert "ClouDNS" in by_name
    cloudns = by_name["ClouDNS"]
    assert cloudns["protective"] > max(
        cloudns["correct"], cloudns["unknown"], cloudns["malicious"]
    )
    # Suspicious URs are not ignorable: present among the top providers.
    assert any(
        counts["unknown"] + counts["malicious"] > 0
        for counts in by_name.values()
    )

"""Benchmark: regenerate Table 2 (hosting strategies) by active probing.

Paper values (Table 2): all seven providers host without verification;
Amazon/ClouDNS accept unregistered domains; Baidu and Tencent refuse
subdomains; only Amazon allows single-user duplicates; Amazon/Cloudflare/
Tencent allow cross-user duplicates; Amazon/ClouDNS/Godaddy lack domain
retrieval.  Our probe reproduces the matrix cell for cell.
"""

from repro.analysis import build_table2
from repro.hosting import TABLE2_PROVIDERS, NsAllocation

from .conftest import banner

#: the paper's Table 2 as (provider -> expected cells)
PAPER_TABLE2 = {
    "Alibaba Cloud": ("global-fixed", True, False, True, True, True, False, False, False),
    "Amazon": ("random", True, True, True, True, True, True, True, True),
    "Baidu Cloud": ("global-fixed", True, False, False, True, True, False, False, False),
    "ClouDNS": ("global-fixed", True, True, True, True, True, False, False, True),
    "Cloudflare": ("account-fixed", True, False, True, True, True, False, True, False),
    "Godaddy": ("global-fixed", True, False, True, True, True, False, False, True),
    "Tencent Cloud": ("account-fixed", True, False, False, True, True, False, True, False),
}


def _probe(world):
    return build_table2(
        [world.providers[provider_name] for provider_name in TABLE2_PROVIDERS],
        world.root,
    )


def test_table2(benchmark, bench_world):
    table = benchmark(_probe, bench_world)

    banner("Table 2: hosting strategy for common DNS hosting providers")
    print(table.text)

    mismatches = []
    for result in table.results:
        expected = PAPER_TABLE2[result.provider]
        measured = (
            result.ns_allocation.value,
            result.hosts_without_verification,
            result.allows_unregistered,
            result.allows_subdomain,
            result.allows_sld,
            result.allows_etld,
            result.duplicate_single_user,
            result.duplicate_cross_user,
            result.no_retrieval,
        )
        if measured != expected:
            mismatches.append((result.provider, expected, measured))
    print(
        f"\nmatrix match vs paper: "
        f"{len(PAPER_TABLE2) - len(mismatches)}/{len(PAPER_TABLE2)} "
        "providers identical"
    )
    assert not mismatches, mismatches

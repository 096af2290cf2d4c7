#!/usr/bin/env python3
"""Audit hosting-provider policies (the paper's Appendix C / Table 2).

Actively probes each provider with throwaway accounts: tries popular
SLDs, eTLDs (gov.cn-style public suffixes), subdomains, unregistered
domains, duplicate hosting, and owner retrieval — then prints the policy
matrix, before and after the paper's disclosure-driven mitigations.
"""

from repro.analysis import build_table2
from repro.hosting import TABLE2_PROVIDERS, DnsRoot, build_headline_providers
from repro.net import PrefixPlanner, SimulatedInternet


def probe(post_disclosure: bool) -> str:
    network = SimulatedInternet()
    planner = PrefixPlanner()
    root = DnsRoot(network)
    providers = build_headline_providers(
        network, planner, post_disclosure=post_disclosure
    )
    for provider in providers.values():
        # providers verify ownership and grant retrieval from the registry
        provider.delegation_lookup = root.delegation_of
    table = build_table2(
        [providers[provider_name] for provider_name in TABLE2_PROVIDERS],
        root,
    )
    return table.text


def main() -> None:
    print("Probing the seven providers of Table 2 (pre-disclosure) ...\n")
    print(probe(post_disclosure=False))

    print(
        "\n\nAfter disclosure (§6): Tencent verifies delegation, Alibaba "
        "requires a TXT challenge,\nCloudflare expanded its blacklist of "
        "hosted popular domains.\n"
    )
    print(probe(post_disclosure=True))

    print(
        "\nReading the post-disclosure matrix: Tencent Cloud now shows "
        "'no' under\n'No verification' — hosting a domain there no longer "
        "yields a served UR\nunless the TLD delegation actually points at "
        "the assigned nameservers."
    )


if __name__ == "__main__":
    main()

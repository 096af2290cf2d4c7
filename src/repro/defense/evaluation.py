"""Evaluate defenses against the simulated UR campaigns.

Given a world's sandbox reports (malicious traffic with ground truth)
plus benign direct-resolver traffic, compute per-defense detection and
false-positive rates — quantifying the paper's §3 claim that URs bypass
reputation-based detection, and §6's trade-off for direct-resolution
monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..net.traffic import FlowRecord, Protocol
from ..sandbox.sandbox import SandboxReport
from .monitor import Detection, DirectResolutionMonitor, ReputationDetector


@dataclass
class DefenseScore:
    """Detection outcome of one defense over a labeled flow set."""

    name: str
    malicious_flows: int
    detected_malicious: int
    benign_flows: int
    false_positives: int

    @property
    def detection_rate(self) -> float:
        if not self.malicious_flows:
            return 0.0
        return self.detected_malicious / self.malicious_flows

    @property
    def false_positive_rate(self) -> float:
        if not self.benign_flows:
            return 0.0
        return self.false_positives / self.benign_flows

    def summary(self) -> str:
        return (
            f"{self.name}: detects "
            f"{self.detected_malicious}/{self.malicious_flows} malicious "
            f"DNS retrievals ({100 * self.detection_rate:.1f}%), "
            f"{self.false_positives}/{self.benign_flows} benign flows "
            f"flagged ({100 * self.false_positive_rate:.1f}% FPR)"
        )


def ur_retrieval_flows(
    sandbox_reports: Sequence[SandboxReport],
    measured_nameservers: Set[str],
) -> List[FlowRecord]:
    """DNS flows where malware queried a measured provider nameserver
    directly — the covert-channel retrievals (threat-model step ③)."""
    flows: List[FlowRecord] = []
    for report in sandbox_reports:
        flows.extend(
            report.capture.filter(
                protocol=Protocol.DNS, dst=measured_nameservers
            )
        )
    return flows


def score_defense(
    name: str,
    detections: Sequence[Detection],
    malicious_flows: Sequence[FlowRecord],
    benign_flows: Sequence[FlowRecord],
) -> DefenseScore:
    """Score a detection list against labeled malicious/benign flows."""
    detected = {id(detection.flow) for detection in detections}
    return DefenseScore(
        name=name,
        malicious_flows=len(malicious_flows),
        detected_malicious=sum(
            1 for flow in malicious_flows if id(flow) in detected
        ),
        benign_flows=len(benign_flows),
        false_positives=sum(
            1 for flow in benign_flows if id(flow) in detected
        ),
    )


def synthesize_benign_direct_flows(
    world: "object", per_client: int = 3, clients: int = 5
) -> List[FlowRecord]:
    """Benign direct-to-public-DNS traffic (Google Public DNS users).

    This is the collateral-damage population §3 describes: blocking
    direct DNS "may inadvertently disrupt legitimate activities ... such
    as the traffic generated from configuring custom DNS resolvers".
    """
    from .monitor import DEFAULT_RESOLVER_ALLOWLIST

    public = sorted(DEFAULT_RESOLVER_ALLOWLIST)
    domains = [
        str(entry.domain) for entry in world.tranco.top(per_client)
    ]
    flows: List[FlowRecord] = []
    for client_index in range(clients):
        client = f"198.18.60.{client_index + 1}"
        for query_index in range(per_client):
            flows.append(
                FlowRecord(
                    timestamp=float(query_index),
                    src=client,
                    dst=public[client_index % len(public)],
                    protocol=Protocol.DNS,
                    dst_port=53,
                    metadata={
                        "qname": domains[query_index % len(domains)]
                    },
                )
            )
    return flows


def evaluate_defenses(
    world: "object",
    benign_direct_flows: Sequence[FlowRecord] = (),
) -> Dict[str, DefenseScore]:
    """Run both defense classes over the world's malicious DNS traffic.

    ``benign_direct_flows`` lets callers inject legitimate
    direct-to-public-resolver traffic (e.g. users of Google Public DNS)
    to expose the direct-resolution monitor's collateral damage.
    """
    measured = {
        target.address for target in world.nameserver_targets
    }
    malicious = ur_retrieval_flows(world.sandbox_reports, measured)
    benign = list(benign_direct_flows)
    if not benign:
        benign = synthesize_benign_direct_flows(world)
    all_flows = malicious + benign

    reputation = ReputationDetector(
        intel=world.intel,
        domain_blocklist=["evil-c2.example", "malware-drop.example"],
    )
    monitor_strict = DirectResolutionMonitor(
        approved_resolvers=set(world.open_resolver_ips[:1]),
    )
    from .monitor import DEFAULT_RESOLVER_ALLOWLIST

    monitor_allowlist = DirectResolutionMonitor(
        approved_resolvers=set(world.open_resolver_ips[:1]),
        allowlist=DEFAULT_RESOLVER_ALLOWLIST,
    )

    return {
        "reputation": score_defense(
            "reputation-based (baseline)",
            reputation.inspect(all_flows),
            malicious,
            benign,
        ),
        "direct-strict": score_defense(
            "direct-resolution monitor (strict)",
            monitor_strict.inspect(all_flows),
            malicious,
            benign,
        ),
        "direct-allowlist": score_defense(
            "direct-resolution monitor (allowlisted public DNS)",
            monitor_allowlist.inspect(all_flows),
            malicious,
            benign,
        ),
    }

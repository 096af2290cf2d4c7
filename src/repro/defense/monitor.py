"""Network-operator defenses against UR-based covert channels.

The paper's §3 argues URs bypass two deployed defense classes, and §6
recommends that operators "give extra consideration to the DNS traffic
that does not follow the recursive process and avoid overreliance on
reputation-based detection".  This module implements both classes so the
claims are measurable:

* :class:`ReputationDetector` — the bypassed baseline: flags DNS queries
  for blacklisted domains and flows toward blacklisted IPs.  UR
  retrievals evade the DNS half entirely (the domain is reputable and
  the nameserver belongs to a reputable provider).
* :class:`DirectResolutionMonitor` — the recommended mitigation: flags
  client DNS traffic that bypasses the organisation's resolvers.  It
  catches UR retrievals but also fires on benign direct-resolver use
  (public DNS users), which is exactly the collateral-damage trade-off
  the paper describes; an allowlist of well-known public resolvers
  mitigates part of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from ..intel.aggregator import ThreatIntelAggregator
from ..net.traffic import FlowRecord, Protocol


@dataclass(frozen=True)
class Detection:
    """One defense verdict on one flow."""

    flow: FlowRecord
    rule: str
    detail: str = ""


class ReputationDetector:
    """Blocklist-based detection (the paper's bypassed baseline).

    Flags (1) DNS queries whose qname is on a domain blocklist and
    (2) any flow whose destination IP is flagged by threat intel.
    """

    def __init__(
        self,
        intel: Optional[ThreatIntelAggregator] = None,
        domain_blocklist: Iterable[str] = (),
    ):
        self.intel = intel
        self.domain_blocklist: Set[str] = {
            entry.lower().rstrip(".") for entry in domain_blocklist
        }

    def inspect(self, flows: Sequence[FlowRecord]) -> List[Detection]:
        detections: List[Detection] = []
        for flow in flows:
            if flow.protocol is Protocol.DNS:
                qname = str(flow.metadata.get("qname", "")).lower().rstrip(".")
                if qname and self._domain_blocked(qname):
                    detections.append(
                        Detection(
                            flow=flow,
                            rule="reputation:domain",
                            detail=f"blocklisted domain {qname}",
                        )
                    )
                    continue
            if self.intel is not None and self.intel.is_flagged(flow.dst):
                detections.append(
                    Detection(
                        flow=flow,
                        rule="reputation:ip",
                        detail=f"blocklisted destination {flow.dst}",
                    )
                )
        return detections

    def _domain_blocked(self, qname: str) -> bool:
        labels = qname.split(".")
        for index in range(len(labels)):
            if ".".join(labels[index:]) in self.domain_blocklist:
                return True
        return False


#: well-known public resolver addresses operators typically allowlist
DEFAULT_RESOLVER_ALLOWLIST = frozenset(
    {"8.8.8.8", "8.8.4.4", "1.1.1.1", "1.0.0.1", "9.9.9.9"}
)


class DirectResolutionMonitor:
    """Flags DNS traffic that does not follow the recursive process.

    ``approved_resolvers`` is the organisation's resolver set; DNS flows
    from any client to any other port-53 endpoint are direct
    resolutions.  With ``allowlist`` the monitor tolerates well-known
    public resolvers (fewer false positives, but an attacker hosting URs
    on an allowlisted operator would slip through — the centralization
    risk the paper notes).
    """

    def __init__(
        self,
        approved_resolvers: Iterable[str],
        allowlist: Iterable[str] = (),
    ):
        self.approved: Set[str] = set(approved_resolvers)
        self.allowlist: Set[str] = set(allowlist)

    def inspect(self, flows: Sequence[FlowRecord]) -> List[Detection]:
        detections: List[Detection] = []
        for flow in flows:
            if flow.protocol is not Protocol.DNS:
                continue
            if flow.dst in self.approved or flow.dst in self.allowlist:
                continue
            detections.append(
                Detection(
                    flow=flow,
                    rule="direct-resolution",
                    detail=(
                        f"client {flow.src} queried non-approved DNS "
                        f"server {flow.dst} for "
                        f"{flow.metadata.get('qname')}"
                    ),
                )
            )
        return detections

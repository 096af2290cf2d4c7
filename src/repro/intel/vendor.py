"""Security vendors: per-vendor IP blacklists with tags.

Models the VirusTotal/QAX/360-style feeds URHunter's stage 3 consumes.
Each vendor maintains its own blacklist; an IP may be flagged by several
vendors at once with different tags — the basis of Figure 3(b) (vendor
counts) and Figure 3(d) (tag mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional


@dataclass
class VendorVerdict:
    """One vendor's view of one IP."""

    malicious: bool
    tags: FrozenSet[str] = frozenset()
    first_seen: float = 0.0


class SecurityVendor:
    """One threat-intelligence feed with real-time blacklist updates."""

    def __init__(self, vendor_name: str):
        self.name = vendor_name
        self._verdicts: Dict[str, VendorVerdict] = {}
        #: bumped on every feed update; lets aggregator caches revalidate
        self.version = 0

    def flag(
        self,
        address: str,
        tags: Iterable[str] = (),
        timestamp: float = 0.0,
    ) -> None:
        """Blacklist ``address``, merging tags with any prior verdict."""
        self.version += 1
        existing = self._verdicts.get(address)
        merged = frozenset(tags) | (
            existing.tags if existing is not None else frozenset()
        )
        first_seen = (
            existing.first_seen if existing is not None else timestamp
        )
        self._verdicts[address] = VendorVerdict(
            malicious=True, tags=merged, first_seen=first_seen
        )

    def clear(self, address: str) -> None:
        """Remove ``address`` from the blacklist (delisting)."""
        self.version += 1
        self._verdicts.pop(address, None)

    def is_malicious(self, address: str) -> bool:
        verdict = self._verdicts.get(address)
        return verdict is not None and verdict.malicious

    def tags(self, address: str) -> FrozenSet[str]:
        verdict = self._verdicts.get(address)
        return verdict.tags if verdict is not None else frozenset()

    def verdict(self, address: str) -> Optional[VendorVerdict]:
        return self._verdicts.get(address)

    def __len__(self) -> int:
        return len(self._verdicts)

    def __repr__(self) -> str:
        return f"SecurityVendor({self.name!r}, {len(self)} entries)"


def default_vendor_fleet(count: int = 11) -> List[SecurityVendor]:
    """A fleet of vendors named after the paper's sources plus generics.

    The paper aggregates 74 vendors via VirusTotal but observes at most 11
    flagging any single IP (Figure 3(b)); ``count`` controls fleet size.
    """
    base_names = ["VirusTotal", "QAX", "360 Security"]
    names = base_names[:count]
    for index in range(len(names), count):
        names.append(f"Vendor-{index + 1:02d}")
    return [SecurityVendor(vendor_name) for vendor_name in names]

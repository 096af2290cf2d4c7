"""Synthetic Tranco-like top list.

The measurement targets the top 2K sites of a 1M-entry ranking.  This
module generates a deterministic ranked list with realistic TLD mix and
pins the paper's case-study domains at their published SLD ranks:
``github.com`` (30), ``ibm.com`` (125), ``speedtest.net`` (415),
``gitlab.com`` (527) and ``pastebin.com`` (2033 in the paper; pinned
within range when the list is smaller).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from ..dns.name import Name, name

#: (domain, paper rank) pins for the case studies.
DEFAULT_PINS: Dict[str, int] = {
    "google.com": 1,
    "facebook.com": 3,
    "microsoft.com": 5,
    "github.com": 30,
    "ibm.com": 125,
    "speedtest.net": 415,
    "gitlab.com": 527,
    "pastebin.com": 2033,
}

_TLD_WEIGHTS = (
    ("com", 0.52),
    ("net", 0.09),
    ("org", 0.08),
    ("io", 0.05),
    ("co", 0.03),
    ("info", 0.03),
    ("cn", 0.04),
    ("de", 0.03),
    ("uk", 0.02),
    ("jp", 0.02),
    ("ru", 0.02),
    ("fr", 0.02),
    ("br", 0.02),
    ("in", 0.02),
    ("xyz", 0.01),
)

_WORDS_A = (
    "cloud", "data", "fast", "smart", "open", "net", "blue", "hyper",
    "stream", "pixel", "alpha", "nova", "prime", "zen", "echo", "flux",
    "atlas", "metro", "orbit", "delta", "lumen", "vertex", "quant",
    "nimbus", "raven", "cobalt", "ember", "drift", "forge", "pulse",
)

_WORDS_B = (
    "hub", "lab", "base", "zone", "ware", "works", "link", "port",
    "box", "mart", "shop", "page", "desk", "cast", "grid", "mind",
    "flow", "spot", "gate", "dock", "nest", "path", "rank", "wave",
    "loop", "core", "site", "line", "stack", "feed",
)


@dataclass(frozen=True)
class TrancoEntry:
    """One ranked site."""

    rank: int
    domain: Name


class TrancoList:
    """A ranked list of registrable domains."""

    def __init__(self, entries: List[TrancoEntry]):
        self.entries = sorted(entries, key=lambda entry: entry.rank)
        self._by_domain = {entry.domain: entry.rank for entry in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TrancoEntry]:
        return iter(self.entries)

    def top(self, count: int) -> List[TrancoEntry]:
        """The ``count`` best-ranked entries."""
        return self.entries[:count]

    def rank_of(self, domain: Union[str, Name]) -> Optional[int]:
        return self._by_domain.get(name(domain))

    def __contains__(self, domain: Union[str, Name]) -> bool:
        return name(domain) in self._by_domain

    def domains(self) -> List[Name]:
        return [entry.domain for entry in self.entries]


def generate_tranco(
    size: int, rng: Optional[random.Random] = None
) -> TrancoList:
    """Generate a deterministic ranked list of ``size`` domains.

    The :data:`DEFAULT_PINS` domains whose paper rank exceeds ``size``
    are folded into the last decile so every case-study target exists
    in small scenarios.
    """
    rng = rng or random.Random(42)

    rank_to_domain: Dict[int, Name] = {}
    used: set = set()
    overflow: List[str] = []
    for domain_text, rank in sorted(
        DEFAULT_PINS.items(), key=lambda item: item[1]
    ):
        if rank <= size:
            rank_to_domain[rank] = name(domain_text)
        else:
            overflow.append(domain_text)
        used.add(domain_text)
    # Place overflow pins near the end of the available range.
    slot = size
    for domain_text in overflow:
        while slot in rank_to_domain and slot > 1:
            slot -= 1
        rank_to_domain[slot] = name(domain_text)
        slot -= 1

    tlds = [tld for tld, _ in _TLD_WEIGHTS]
    weights = [weight for _, weight in _TLD_WEIGHTS]
    entries: List[TrancoEntry] = []
    for rank in range(1, size + 1):
        pinned = rank_to_domain.get(rank)
        if pinned is not None:
            entries.append(TrancoEntry(rank=rank, domain=pinned))
            continue
        while True:
            label = (
                rng.choice(_WORDS_A)
                + rng.choice(_WORDS_B)
                + (str(rng.randrange(100)) if rng.random() < 0.25 else "")
            )
            tld = rng.choices(tlds, weights=weights)[0]
            candidate = f"{label}.{tld}"
            if candidate not in used:
                used.add(candidate)
                break
        entries.append(TrancoEntry(rank=rank, domain=name(candidate)))
    return TrancoList(entries)

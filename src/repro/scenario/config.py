"""Scenario configuration.

One :class:`ScenarioConfig` fully determines a simulated world — every
random draw flows from ``seed``.  The defaults produce a laptop-scale
world (~10^2 domains x ~10^2 nameservers) whose *shapes* match the
paper's measurement; the benchmarks scale these knobs.

The shape itself — the constants below, calibrated to the paper's
figures — is the same in every world.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- topology -----------------------------------------------------------------
#: fraction of open resolvers that manipulate answers
MANIPULATED_RESOLVER_FRACTION = 0.08

# -- legitimate hosting -------------------------------------------------------
#: fraction of top domains hosted on one of the headline providers
HEADLINE_HOSTING_FRACTION = 0.55
#: fraction of top domains that switched providers in the past,
#: leaving a stale (still-served) zone at the old provider
PAST_DELEGATION_FRACTION = 0.10
#: fraction of provider nameservers misconfigured as open recursives
MISCONFIGURED_RECURSIVE_FRACTION = 0.05
#: IPs per domain's legitimate origin set
ORIGINS_PER_DOMAIN = (1, 3)

# -- attacker activity --------------------------------------------------------
#: (min, max) domains targeted per campaign
DOMAINS_PER_CAMPAIGN = (2, 6)
#: (min, max) providers used per campaign
PROVIDERS_PER_CAMPAIGN = (1, 3)
#: probability a campaign also plants TXT (command / SPF-shaped) URs
TXT_CAMPAIGN_PROBABILITY = 0.35
#: probability an attacker C2 IP is observable at all (threat intel
#: or a sandboxed sample); the rest stay "unknown" — the paper's
#: under-reporting discussion
C2_OBSERVABLE_PROBABILITY = 0.30
#: split of observed C2s: (intel only, ids only, both) — Figure 3(a)
OBSERVATION_SPLIT = (0.342, 0.366, 0.292)
#: generic-sample behaviour mix, shaped to Figure 3(c):
#: (trojan, scanner/other, exfil, c2, bad-traffic)
BEHAVIOUR_MIX = (0.42, 0.24, 0.21, 0.10, 0.03)

# -- threat intel -------------------------------------------------------------
#: number of vendors in the fleet (paper: up to 11 flag one IP)
VENDOR_COUNT = 11
#: Figure 3(b) bucket weights for how many vendors flag an IP
VENDOR_COUNT_WEIGHTS = (0.779, 0.163, 0.020, 0.038)
#: Figure 3(d) per-tag probabilities (multi-label)
TAG_PROBABILITIES = (
    ("Trojan", 0.89),
    ("Scanner", 0.41),
    ("Other", 0.33),
    ("Malware", 0.19),
    ("C&C", 0.16),
    ("Botnet", 0.10),
)


@dataclass
class ScenarioConfig:
    """The knobs a caller sets: the seed, the scale, and whether the
    providers' post-disclosure mitigations apply."""

    seed: int = 7

    # -- topology -----------------------------------------------------------
    #: size of the synthetic top list (the paper's "top 1M" proxy)
    top_list_size: int = 400
    #: how many best-ranked domains URHunter measures (the paper: 2K)
    target_domains: int = 120
    #: long-tail providers in addition to the 11 headline ones
    longtail_providers: int = 8
    #: open resolvers available as vantage points (the paper: 3K)
    open_resolvers: int = 24

    # -- attacker activity --------------------------------------------------------
    #: independent generic campaigns planting URs
    attacker_campaigns: int = 26
    #: benign sandbox samples (false-positive pressure)
    benign_samples: int = 6

    # -- measurement ---------------------------------------------------------------
    #: include the post-disclosure provider mitigations
    post_disclosure: bool = False

    def __post_init__(self) -> None:
        if self.target_domains > self.top_list_size:
            raise ValueError(
                "target_domains cannot exceed top_list_size "
                f"({self.target_domains} > {self.top_list_size})"
            )


def small_config(seed: int = 7) -> ScenarioConfig:
    """A fast configuration for unit tests."""
    return ScenarioConfig(
        seed=seed,
        top_list_size=120,
        target_domains=40,
        longtail_providers=3,
        open_resolvers=8,
        attacker_campaigns=10,
        benign_samples=2,
    )


def paper_scale_config(seed: int = 7) -> ScenarioConfig:
    """A larger configuration for the benchmark harness."""
    return ScenarioConfig(
        seed=seed,
        top_list_size=1200,
        target_domains=300,
        longtail_providers=20,
        open_resolvers=60,
        attacker_campaigns=45,
        benign_samples=10,
    )

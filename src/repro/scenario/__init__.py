"""Scenario layer: synthetic top list, attacker model, world generation."""

from .attacker import (
    ATTACKER_COUNTRIES,
    Attacker,
    AttackerCampaign,
    C2Server,
    PlantedRecord,
)
from .config import ScenarioConfig, paper_scale_config, small_config
from .related import (
    DanglingTakeover,
    ShadowedDomain,
    attempt_dangling_takeover,
    create_dangling_delegation,
    resolves_to,
    shadow_domain,
)
from .tranco import DEFAULT_PINS, TrancoEntry, TrancoList, generate_tranco
from .world import (
    ATTACKER_PROVIDER_WEIGHTS,
    HEADLINE_HOSTING_WEIGHTS,
    ScenarioError,
    World,
    build_world,
)

__all__ = [
    "ATTACKER_COUNTRIES",
    "ATTACKER_PROVIDER_WEIGHTS",
    "Attacker",
    "AttackerCampaign",
    "C2Server",
    "DanglingTakeover",
    "DEFAULT_PINS",
    "HEADLINE_HOSTING_WEIGHTS",
    "PlantedRecord",
    "ScenarioConfig",
    "ScenarioError",
    "ShadowedDomain",
    "TrancoEntry",
    "TrancoList",
    "World",
    "attempt_dangling_takeover",
    "create_dangling_delegation",
    "build_world",
    "generate_tranco",
    "paper_scale_config",
    "resolves_to",
    "shadow_domain",
    "small_config",
]

"""Declarative fault scenarios compiled onto the simulator's fault hooks.

A :class:`ScenarioScript` is a small, seeded, JSON-serialisable
description of the faults a run meets: *correlated* failures — a whole
provider going dark, a tail-latency storm across every nameserver, a
regional partition, browned-out open resolvers — and the uniform ones
the CLI's rate flags spell (``loss``, ``source-flaky``).
:func:`apply_scenario`, the one place a run's faults are installed,
compiles the script onto the existing primitives
(:class:`~repro.net.network.FaultProfile` windows on the
:class:`~repro.net.network.SimulatedInternet`, ``Flaky*`` wrappers on
the stage-2/3 sources), so the chaos layer adds **no new failure
mechanics** — only coordination.

Import this module by its full path (``repro.resilience.scenario``):
it pulls in pipeline/world machinery, so it is deliberately *not*
re-exported from :mod:`repro.resilience` (which must stay a leaf the
engines can import).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..net.network import FaultProfile
from ..pipeline.faults import (
    FaultPlan,
    FlakyIPInfo,
    FlakyPassiveDNS,
    FlakyVendor,
)

#: every window kind the compiler understands, with each param it takes
#: and that param's default
KINDS: Dict[str, Dict[str, Any]] = {
    # the network-wide uniform loss of ``--loss-rate``
    "loss": {"loss_rate": 0.0},
    "provider-outage": {"provider": "Cloudflare", "loss_rate": 1.0},
    # mostly *loss* (timeout parks), a little jitter: the shape where
    # hedged retries win — pure jitter would charge hedges equally
    "tail-latency-storm": {"loss_rate": 0.45, "jitter": 0.05},
    "regional-partition": {"country": "US", "loss_rate": 1.0},
    "resolver-brownout": {"loss_rate": 0.6},
    # one stage-2/3 data source behind a seeded FaultPlan, the
    # ``--*-fault-rate`` flags' shape; no ``seed`` = the script's seed
    "source-flaky": {"source": None, "error_rate": 0.0, "seed": None},
}

#: the sources a ``source-flaky`` window can fault
SOURCES = ("intel", "pdns", "ipinfo")


class ScenarioError(ValueError):
    """A script that cannot be parsed or compiled."""


def _check_keys(raw, allowed, what: str, required: str = "") -> None:
    """Refuse keys of ``raw`` outside ``allowed``, and a missing
    ``required`` one."""
    extra = set(raw) - set(allowed)
    if extra:
        raise ScenarioError(
            f"unknown {what}: {', '.join(sorted(extra))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    if required and required not in raw:
        raise ScenarioError(f"missing {required!r}")


@dataclass(frozen=True)
class FaultWindow:
    """One fault, time-windowed where its kind reads the clock.

    ``start``/``duration`` are virtual seconds **relative to the moment
    the scenario is applied** (the world's clock does not start at
    zero); ``duration == 0`` means open-ended, and ``loss`` and
    ``source-flaky`` windows always are.  ``params`` carries the
    kind-specific knobs (:data:`KINDS`), checked here, when the script
    loads, so a typo'd scenario fails before any world is built.
    """

    kind: str
    start: float = 0.0
    duration: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            defaults = KINDS.get(self.kind)
            if defaults is None:
                raise ValueError(
                    f"unknown fault window kind "
                    f"(expected one of {', '.join(KINDS)})"
                )
            _check_keys(self.params, defaults, "params")
            if self.kind not in _TARGETS and (self.start or self.duration):
                raise ValueError(
                    "not on the network clock; start and duration must be 0"
                )
            settings = self.settings
            if self.kind == "source-flaky":
                if settings["source"] not in SOURCES:
                    raise ValueError(
                        f"source must be one of {', '.join(SOURCES)}, "
                        f"got {settings['source']!r}"
                    )
                _fault_plan(settings, int(settings["seed"] or 0))
            elif self.kind == "loss" and not (
                0.0 <= float(settings["loss_rate"]) < 1.0
            ):
                # a network that drops every packet leaves nothing to scan
                raise ValueError(
                    f"loss_rate must be in [0, 1), "
                    f"got {settings['loss_rate']}"
                )
            else:
                _profile(self, settings, 0.0)
        except (TypeError, ValueError) as error:
            raise ScenarioError(f"{self.kind}: {error}") from None

    @property
    def settings(self) -> Dict[str, Any]:
        """Every param of the kind: the given ones over the defaults."""
        return {**KINDS[self.kind], **self.params}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultWindow":
        allowed = ("kind", "start", "duration", "params")
        _check_keys(raw, allowed, "window keys", "kind")
        return cls(
            kind=raw["kind"],
            start=float(raw.get("start", 0.0)),
            duration=float(raw.get("duration", 0.0)),
            params=dict(raw.get("params", {})),
        )


@dataclass(frozen=True)
class ScenarioScript:
    """A named, seeded bundle of fault windows."""

    name: str
    seed: int = 0
    description: str = ""
    windows: Tuple[FaultWindow, ...] = ()

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioScript":
        allowed = ("name", "seed", "description", "windows")
        _check_keys(raw, allowed, "script keys", "name")
        return cls(
            name=str(raw["name"]),
            seed=int(raw.get("seed", 0)),
            description=str(raw.get("description", "")),
            windows=tuple(
                FaultWindow.from_dict(window)
                for window in raw.get("windows", [])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioScript":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid scenario JSON: {error}")
        if not isinstance(raw, dict):
            raise ScenarioError("scenario JSON must be an object")
        return cls.from_dict(raw)


# -- the compiler ------------------------------------------------------------


def _profile(
    window: FaultWindow, settings: Dict[str, Any], base: float
) -> FaultProfile:
    return FaultProfile(
        start=base + window.start,
        duration=window.duration,
        loss_rate=float(settings["loss_rate"]),
        latency_jitter=float(settings.get("jitter", 0.0)),
    )


def _fault_plan(settings: Dict[str, Any], seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, error_rate=float(settings["error_rate"]))


def _provider_outage(settings, world) -> List[str]:
    provider = settings["provider"]
    addresses = [
        target.address
        for target in world.nameserver_targets
        if target.provider == provider
    ]
    if not addresses:
        raise ScenarioError(
            f"provider-outage: no nameservers for provider "
            f"{provider!r} in this world"
        )
    return addresses


def _regional_partition(settings, world) -> List[str]:
    country = settings["country"]
    addresses = sorted(
        {
            target.address
            for target in world.nameserver_targets
            if world.ipinfo.lookup(target.address).country == country
        }
    )
    if not addresses:
        # tiny worlds may not host the requested region; partition the
        # first nameserver's region instead so the scenario still bites
        fallback = sorted(t.address for t in world.nameserver_targets)
        if not fallback:
            raise ScenarioError("regional-partition: world has no nameservers")
        addresses = [fallback[0]]
    return addresses


#: the hosts each clock-windowed kind targets
_TARGETS = {
    "provider-outage": _provider_outage,
    "tail-latency-storm": lambda settings, world: sorted(
        {t.address for t in world.nameserver_targets}
    ),
    "regional-partition": _regional_partition,
    "resolver-brownout": lambda settings, world: sorted(
        world.open_resolver_ips
    ),
}


def _install_source(
    settings: Dict[str, Any], seed: int, world, hunter
) -> None:
    """Wrap one of ``hunter``'s data sources, built afresh from the
    world's clean one (a later window on the same source replaces an
    earlier one).  Vendor ``i`` is seeded ``seed + i``, pdns
    ``seed + 101``, ipinfo ``seed + 202``."""
    source = settings["source"]
    if source == "intel":
        vendors = [
            FlakyVendor(vendor, _fault_plan(settings, seed + index))
            for index, vendor in enumerate(world.vendors)
        ]
        # late import: the aggregator lives above the resilience layer
        from ..intel.aggregator import ThreatIntelAggregator

        hunter.intel = ThreatIntelAggregator(vendors)
    elif source == "pdns" and world.pdns is not None:
        plan = _fault_plan(settings, seed + 101)
        hunter.pdns = FlakyPassiveDNS(world.pdns, plan)
    elif source == "ipinfo":
        # stage 2 only: stage-1 profile building keeps the clean source
        plan = _fault_plan(settings, seed + 202)
        hunter.stage2_ipinfo = FlakyIPInfo(world.ipinfo, plan)


def apply_scenario(script: ScenarioScript, world, hunter=None) -> None:
    """Compile ``script`` onto ``world`` (and ``hunter``'s sources).

    The network's fault RNG is seeded with ``script.seed``.  A ``loss``
    window is the network-wide profile
    (:meth:`SimulatedInternet.inject_faults`, seeded the same); every
    other network window becomes
    :meth:`SimulatedInternet.add_fault_window` entries anchored at the
    *current* virtual clock; ``source-flaky`` windows wrap the hunter's
    source in a ``Flaky*`` injector seeded by the window's ``seed``,
    else ``script.seed`` (when a hunter is given).
    """
    network = world.network
    network.seed_faults(script.seed)
    base = network.now
    for window in script.windows:
        settings = window.settings
        if window.kind == "loss":
            network.inject_faults(
                loss_rate=float(settings["loss_rate"]), seed=script.seed
            )
        elif window.kind == "source-flaky":
            if hunter is not None:
                seed = settings["seed"]
                seed = script.seed if seed is None else int(seed)
                _install_source(settings, seed, world, hunter)
        else:
            profile = _profile(window, settings, base)
            for address in _TARGETS[window.kind](settings, world):
                network.add_fault_window(address, profile)


# -- bundled scenarios -------------------------------------------------------

BUNDLED_SCENARIOS: Tuple[ScenarioScript, ...] = (
    ScenarioScript(
        name="provider-outage",
        seed=11,
        description=(
            "Cloudflare's authoritative fleet is dark from the first "
            "query on; the 4000 s window outlives a run of about a "
            "virtual minute, so no group sees it recover"
        ),
        windows=(
            FaultWindow(
                kind="provider-outage",
                start=0.0,
                duration=4000.0,
                params={"provider": "Cloudflare", "loss_rate": 1.0},
            ),
        ),
    ),
    ScenarioScript(
        name="tail-latency-storm",
        seed=13,
        description=(
            "open-ended loss-dominated congestion across every "
            "nameserver — the hedging benchmark shape"
        ),
        windows=(
            FaultWindow(
                kind="tail-latency-storm",
                params={"loss_rate": 0.45, "jitter": 0.05},
            ),
        ),
    ),
    ScenarioScript(
        name="regional-partition",
        seed=17,
        description=(
            "every US-hosted nameserver unreachable for the whole scan "
            "(the 6000 s window outlives the run)"
        ),
        windows=(
            FaultWindow(
                kind="regional-partition",
                start=0.0,
                duration=6000.0,
                params={"country": "US", "loss_rate": 1.0},
            ),
        ),
    ),
    ScenarioScript(
        name="resolver-brownout",
        seed=19,
        description=(
            "open resolvers shed most queries — the protective-DNS "
            "stage degrades but the run must still account for it"
        ),
        windows=(
            FaultWindow(
                kind="resolver-brownout",
                params={"loss_rate": 0.7},
            ),
        ),
    ),
    ScenarioScript(
        name="intel-vendor-flap",
        seed=23,
        description=(
            "half the intel vendors error or rate-limit; source guards "
            "must quarantine them without sinking the run"
        ),
        windows=(
            FaultWindow(
                kind="source-flaky",
                params={"source": "intel", "error_rate": 0.5},
            ),
        ),
    ),
)

_BUNDLED_BY_NAME = {script.name: script for script in BUNDLED_SCENARIOS}


def load_scenario(name_or_path: str) -> ScenarioScript:
    """A bundled scenario by name, or a JSON script from a path."""
    bundled = _BUNDLED_BY_NAME.get(name_or_path)
    if bundled is not None:
        return bundled
    path = Path(name_or_path)
    if not path.exists():
        raise ScenarioError(
            f"unknown scenario {name_or_path!r} (bundled: "
            f"{', '.join(_BUNDLED_BY_NAME)}; or pass a JSON path)"
        )
    try:
        text = path.read_text()
    except OSError as error:
        raise ScenarioError(
            f"cannot read scenario {name_or_path!r}: {error.strerror}"
        ) from error
    return ScenarioScript.from_json(text)

"""Declarative chaos scenarios compiled onto the simulator's fault hooks.

A :class:`ScenarioScript` is a small, seeded, JSON-serialisable
description of *correlated* failures — not independent per-host coin
flips but the shapes that actually break scanners in the field: a whole
provider going dark, a tail-latency storm across every nameserver, a
regional partition, browned-out open resolvers, a flapping intel
vendor.  :func:`apply_scenario` compiles the script onto the existing
primitives (:class:`~repro.net.network.FaultProfile` windows on the
:class:`~repro.net.network.SimulatedInternet`, ``Flaky*`` wrappers on
the stage-2/3 sources) so the chaos layer adds **no new failure
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.network import FaultProfile
from ..pipeline.faults import FaultPlan, FlakyVendor

#: window kinds the compiler understands
KINDS = (
    "provider-outage",
    "tail-latency-storm",
    "regional-partition",
    "resolver-brownout",
    "intel-vendor-flap",
)


class ScenarioError(ValueError):
    """A script that cannot be parsed or compiled."""


@dataclass(frozen=True)
class FaultWindow:
    """One time-windowed correlated fault.

    ``start``/``duration`` are virtual seconds **relative to the moment
    the scenario is applied** (the world's clock does not start at
    zero); ``duration == 0`` means open-ended.  ``params`` carries the
    kind-specific knobs — unknown keys are rejected at compile time so
    a typo'd scenario fails loudly instead of silently running clean.
    """

    kind: str
    start: float = 0.0
    duration: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError(
                f"unknown fault window kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        if self.start < 0 or self.duration < 0:
            raise ScenarioError("window start/duration must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultWindow":
        extra = set(raw) - {"kind", "start", "duration", "params"}
        if extra:
            raise ScenarioError(
                f"unknown window keys: {', '.join(sorted(extra))}"
            )
        if "kind" not in raw:
            raise ScenarioError("window needs a 'kind'")
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ScenarioScript":
        extra = set(raw) - {"name", "seed", "description", "windows"}
        if extra:
            raise ScenarioError(
                f"unknown script keys: {', '.join(sorted(extra))}"
            )
        if "name" not in raw:
            raise ScenarioError("scenario needs a 'name'")
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


def _param(
    window: FaultWindow, allowed: Dict[str, Any]
) -> Dict[str, Any]:
    """Validate ``window.params`` against ``allowed`` (defaults)."""
    extra = set(window.params) - set(allowed)
    if extra:
        raise ScenarioError(
            f"{window.kind}: unknown params "
            f"{', '.join(sorted(extra))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    merged = dict(allowed)
    merged.update(window.params)
    return merged


def _profile(window: FaultWindow, base: float, **knobs: float) -> FaultProfile:
    return FaultProfile(start=base + window.start,
                        duration=window.duration, **knobs)


def _compile_provider_outage(window, world, base) -> List[Tuple[str, FaultProfile]]:
    params = _param(window, {"provider": "Cloudflare", "loss_rate": 1.0})
    provider = params["provider"]
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
    profile = _profile(window, base, loss_rate=float(params["loss_rate"]))
    return [(address, profile) for address in addresses]


def _compile_tail_latency_storm(window, world, base):
    # mostly *loss* (timeout parks), a little jitter: the shape where
    # hedged retries win — pure jitter would charge hedges equally
    params = _param(window, {"loss_rate": 0.45, "jitter": 0.05})
    profile = _profile(
        window,
        base,
        loss_rate=float(params["loss_rate"]),
        latency_jitter=float(params["jitter"]),
    )
    addresses = sorted({t.address for t in world.nameserver_targets})
    return [(address, profile) for address in addresses]


def _compile_regional_partition(window, world, base):
    params = _param(window, {"country": "US", "loss_rate": 1.0})
    country = params["country"]
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
    profile = _profile(window, base, loss_rate=float(params["loss_rate"]))
    return [(address, profile) for address in addresses]


def _compile_resolver_brownout(window, world, base):
    params = _param(window, {"loss_rate": 0.6})
    profile = _profile(window, base, loss_rate=float(params["loss_rate"]))
    return [
        (address, profile) for address in sorted(world.open_resolver_ips)
    ]


_NETWORK_COMPILERS = {
    "provider-outage": _compile_provider_outage,
    "tail-latency-storm": _compile_tail_latency_storm,
    "regional-partition": _compile_regional_partition,
    "resolver-brownout": _compile_resolver_brownout,
}


def apply_scenario(script: ScenarioScript, world, hunter=None) -> int:
    """Compile ``script`` onto ``world`` (and ``hunter``'s sources).

    Network-level windows become :meth:`SimulatedInternet.add_fault_window`
    entries anchored at the *current* virtual clock; intel windows wrap
    ``hunter.intel`` in seeded :class:`FlakyVendor` injectors (when a
    hunter is given).  Returns the number of (address, profile) /
    vendor-wrap bindings installed — zero means the script compiled to
    nothing, which is almost certainly a mistake worth surfacing.
    """
    network = world.network
    network.seed_faults(script.seed)
    base = network.now
    installed = 0
    for window in script.windows:
        compiler = _NETWORK_COMPILERS.get(window.kind)
        if compiler is not None:
            for address, profile in compiler(window, world, base):
                network.add_fault_window(address, profile)
                installed += 1
            continue
        # intel-vendor-flap: the source guard owns time-domain behaviour,
        # so the window's start/duration map onto fail_first (error the
        # first N calls) rather than the virtual clock.
        params = _param(
            window,
            {
                "error_rate": 0.5,
                "ratelimit_share": 0.5,
                "fail_first": 0,
                "vendors": 0,  # 0 = all
            },
        )
        if hunter is None:
            continue
        count = int(params["vendors"]) or len(world.vendors)
        wrapped = []
        for index, vendor in enumerate(world.vendors):
            if index < count:
                wrapped.append(
                    FlakyVendor(
                        vendor,
                        FaultPlan(
                            seed=script.seed + index,
                            error_rate=float(params["error_rate"]),
                            ratelimit_share=float(params["ratelimit_share"]),
                            fail_first=int(params["fail_first"]),
                        ),
                    )
                )
                installed += 1
            else:
                wrapped.append(vendor)
        # late import: the aggregator lives above the resilience layer
        from ..intel.aggregator import ThreatIntelAggregator

        hunter.intel = ThreatIntelAggregator(wrapped)
    return installed


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
                kind="intel-vendor-flap",
                params={"error_rate": 0.5, "ratelimit_share": 0.5},
            ),
        ),
    ),
)

_BUNDLED_BY_NAME = {script.name: script for script in BUNDLED_SCENARIOS}


def bundled_scenario_names() -> List[str]:
    return [script.name for script in BUNDLED_SCENARIOS]


def load_scenario(name_or_path: str) -> ScenarioScript:
    """A bundled scenario by name, or a JSON script from a path."""
    bundled = _BUNDLED_BY_NAME.get(name_or_path)
    if bundled is not None:
        return bundled
    path = Path(name_or_path)
    if not path.exists():
        raise ScenarioError(
            f"unknown scenario {name_or_path!r} (bundled: "
            f"{', '.join(bundled_scenario_names())}; or pass a JSON path)"
        )
    return ScenarioScript.from_json(path.read_text())

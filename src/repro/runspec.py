"""One run's specification: the world, the scan, and the faults.

:meth:`RunSpec.from_args` is the one reader of the CLI's run flags
that decide what runs (the CLI's ``# scenario:`` banner only echoes a
few back);
:meth:`RunSpec.build` assembles the world and hunter and installs the
faults; :meth:`RunSpec.fingerprint` is what a checkpoint manifest pins,
so a resume under another world or fault program — an edited chaos
script included — is refused.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Tuple

from .core import HunterConfig, URHunter
from .dns.rdata import RRType
from .pipeline.checkpoint import config_fingerprint
from .resilience.scenario import (
    SOURCES,
    FaultWindow,
    ScenarioError,
    ScenarioScript,
    apply_scenario,
    load_scenario,
)
from .scenario import (
    ScenarioConfig,
    World,
    build_world,
    paper_scale_config,
    small_config,
)

#: ``--scale`` names and the scenario each one builds for a seed
SCALES = {
    "small": small_config,
    "default": lambda seed: ScenarioConfig(seed=seed),
    "paper": paper_scale_config,
}


def _flag_window(flag: str, kind: str, params) -> FaultWindow:
    """The window ``flag`` compiles to; errors name the flag."""
    try:
        return FaultWindow(kind, params=params)
    except ScenarioError as error:
        raise ScenarioError(f"{flag}: {error}") from None


@dataclass(frozen=True)
class RunSpec:
    """What one run measures, how it scans, and the faults it meets."""

    scenario: ScenarioConfig
    scan: HunterConfig
    faults: ScenarioScript

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunSpec":
        """The spec the CLI's flags ask for; a bad flag raises
        :class:`ValueError` (``ScenarioError`` for the faults) here.

        The rate flags compile to ``loss`` / ``source-flaky`` windows,
        run ahead of the ``--chaos-script`` windows in one script seeded
        by it (else by ``--seed``).
        """
        # explicit non-positive values on duration knobs are always a
        # mistake (omit the flag to disable the feature) — reject loudly
        for option, value in (
            ("--run-deadline", args.run_deadline),
            ("--stage-deadline", args.stage_deadline),
            ("--hedge-delay", args.hedge_delay),
        ):
            if value is not None and value <= 0:
                raise ValueError(
                    f"{option} must be > 0, got {value} "
                    f"(omit the flag to disable)"
                )
        mx = (RRType.A, RRType.TXT, RRType.MX)
        scan = HunterConfig(
            retries=args.retries,
            timeout=args.timeout,
            run_deadline=args.run_deadline or 0.0,
            stage_deadline=args.stage_deadline or 0.0,
            hedge_delay=args.hedge_delay or 0.0,
            aimd=args.aimd,
            **({"query_types": mx} if args.mx else {}),
        )
        windows = []
        if args.loss_rate:
            loss = {"loss_rate": args.loss_rate}
            windows.append(_flag_window("--loss-rate", "loss", loss))
        for source in SOURCES:
            params = {
                "source": source,
                "error_rate": getattr(args, f"{source}_fault_rate"),
                "seed": args.fault_seed,
            }
            if params["error_rate"]:
                flag = f"--{source}-fault-rate"
                windows.append(_flag_window(flag, "source-flaky", params))
        chaos = (
            load_scenario(args.chaos_script)
            if args.chaos_script
            else ScenarioScript(name="flags", seed=args.seed)
        )
        scenario = SCALES[args.scale](args.seed)
        scenario.post_disclosure = args.post_disclosure
        faults = dataclasses.replace(
            chaos, windows=tuple(windows) + chaos.windows
        )
        return cls(scenario=scenario, scan=scan, faults=faults)

    def fingerprint(self) -> str:
        """A digest of every field of the world and the fault program
        (the runner adds the scan config and the plan)."""
        return config_fingerprint(
            {"scenario": self.scenario, "faults": self.faults}
        )

    def build(self) -> Tuple[World, URHunter]:
        """The world, a hunter over it, and the faults installed."""
        world = build_world(self.scenario)
        hunter = URHunter.from_world(world, self.scan)
        apply_scenario(self.faults, world, hunter)
        return world, hunter

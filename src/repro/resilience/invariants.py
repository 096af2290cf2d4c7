"""Robustness contracts replayed over chaos scenarios.

The checker runs one :class:`~repro.resilience.scenario.ScenarioScript`
:data:`REPLAYS` times and asserts the contracts the resilience layer
promises:

* **determinism under chaos** — every replay produces a byte-identical
  report summary, because every fault is driven by the seeded virtual
  clock, never by wall time;
* **degradation is accounted** — every run ends with
  ``unaccounted == 0``: shed, timed-out, and given-up queries all land
  in a named counter, nothing vanishes;
* **no crashes** — a faulted run completes (an exception escaping it
  fails the check);
* **clean runs are untouched** — with no faults injected, a
  resilience-enabled run is byte-identical to a resilience-disabled
  one: budgets that never expire, hedges that never fire, and AIMD at
  full credit must be exact no-ops.

Import by full path (``repro.resilience.invariants``): this module
builds worlds and pipelines, far above the leaf layer engines import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import HunterConfig, URHunter
from ..obs import RunTrace
from ..pipeline import PipelineRunner
from ..scenario import build_world, small_config
from .scenario import ScenarioScript, apply_scenario

#: how many times a scenario is replayed from a fresh world; every
#: replay must match the first byte for byte
REPLAYS = 2

#: resilience knobs the chaos replays run with
RESILIENCE_KNOBS = dict(hedge_delay=0.25, aimd=True)


class InvariantViolation(AssertionError):
    """A robustness contract the replay broke."""


@dataclass
class ScenarioVerdict:
    """What one scenario's replays established."""

    scenario: str
    #: per-replay labels, e.g. "replay-1"
    replays: List[str] = field(default_factory=list)
    statuses: List[str] = field(default_factory=list)
    #: run.end unaccounted per replay (all must be zero)
    unaccounted: List[int] = field(default_factory=list)
    #: shed/hedge/aimd activity of the first replay (determinism makes
    #: the others identical)
    resilience: Dict[str, object] = field(default_factory=dict)
    identical: bool = False

    def summary(self) -> str:
        status = sorted(set(self.statuses))
        return (
            f"{self.scenario}: {len(self.replays)} replays, "
            f"status={'/'.join(status)}, "
            f"identical={'yes' if self.identical else 'NO'}, "
            f"max-unaccounted={max(self.unaccounted, default=0)}"
        )


def _run_once(
    scenario: Optional[ScenarioScript], seed: int, resilience: bool
) -> Tuple[str, str, int, Dict[str, object]]:
    """One full pipeline run; returns (summary, status, unaccounted,
    resilience-metrics-dict)."""
    world = build_world(small_config(seed=seed))
    knobs = dict(RESILIENCE_KNOBS) if resilience else {}
    hunter = URHunter.from_world(world, HunterConfig(**knobs))
    trace = RunTrace()
    hunter.attach_trace(trace)
    if scenario is not None:
        apply_scenario(scenario, world, hunter)
    result = PipelineRunner(hunter).run(validate=False)
    report = result.report
    run_end = None
    for line in trace.deterministic_lines():
        event = json.loads(line)
        if event.get("event") == "run.end":
            run_end = event
    if run_end is None:
        raise InvariantViolation("trace has no run.end")
    metrics = report.resilience_metrics
    return (
        report.summary(),
        result.status,
        int(run_end["unaccounted"]),
        metrics.to_dict() if metrics is not None else {},
    )


def check_scenario(
    scenario: ScenarioScript, seed: int = 7
) -> ScenarioVerdict:
    """Replay ``scenario`` :data:`REPLAYS` times; raise on any breach."""
    verdict = ScenarioVerdict(scenario=scenario.name)
    summaries: List[str] = []
    for replay in range(1, REPLAYS + 1):
        label = f"replay-{replay}"
        try:
            summary, status, unaccounted, metrics = _run_once(
                scenario, seed, resilience=True
            )
        except Exception as error:  # a crash is itself a breach
            raise InvariantViolation(
                f"{scenario.name} [{label}]: run raised "
                f"{type(error).__name__}: {error}"
            ) from error
        verdict.replays.append(label)
        verdict.statuses.append(status)
        verdict.unaccounted.append(unaccounted)
        if not summaries:
            verdict.resilience = metrics
        summaries.append(summary)
        if status not in ("clean", "degraded"):
            raise InvariantViolation(
                f"{scenario.name} [{label}]: status {status!r} "
                f"(expected clean or degraded)"
            )
        if unaccounted != 0:
            raise InvariantViolation(
                f"{scenario.name} [{label}]: {unaccounted} queries "
                f"unaccounted — degradation leaked out of the ledger"
            )
    verdict.identical = all(s == summaries[0] for s in summaries)
    if not verdict.identical:
        diverging = [
            label
            for label, s in zip(verdict.replays, summaries)
            if s != summaries[0]
        ]
        raise InvariantViolation(
            f"{scenario.name}: report summaries diverge across replays "
            f"(differs: {', '.join(diverging)})"
        )
    return verdict


def check_clean_baseline(seed: int = 7) -> None:
    """On a healthy world, resilience on ≡ resilience off, byte for byte."""
    with_summary, with_status, _, with_metrics = _run_once(
        None, seed, resilience=True
    )
    without_summary, without_status, _, _ = _run_once(
        None, seed, resilience=False
    )
    if with_summary != without_summary:
        raise InvariantViolation(
            "clean-run baseline: resilience-enabled report differs "
            "from resilience-disabled — the layer is not a no-op "
            "on healthy runs"
        )
    if with_status != "clean" or without_status != "clean":
        raise InvariantViolation(
            f"clean-run baseline: statuses {with_status}/{without_status} "
            f"(expected clean/clean)"
        )
    if with_metrics:
        raise InvariantViolation(
            f"clean-run baseline: resilience metrics active on a "
            f"healthy run: {with_metrics}"
        )

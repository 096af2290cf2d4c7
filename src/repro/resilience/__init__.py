"""Adaptive scan resilience: budgets, hedging, AIMD, chaos scenarios.

PRs 1-5 gave the reproduction *static* fault tolerance — fixed
retry/backoff, per-host fault profiles, checkpoints — and PR 6 a trace
bus to observe it.  This package adds the layer that *adapts* to
failure at runtime:

* :class:`~repro.resilience.budget.DeadlineBudget` — per-run and
  per-stage virtual-clock deadlines with deterministic load shedding;
* hedging is the engine's own timer rule, read from
  :class:`~repro.engine.latency.ServerLatency`;
* :class:`~repro.resilience.aimd.AimdController` — additive-increase /
  multiplicative-decrease send credit per server;
* :class:`~repro.resilience.metrics.ResilienceMetrics` — the
  :class:`~repro.obs.metrics.MetricsSnapshot` aggregating all of it.

The chaos-scenario harness lives in the heavier submodules
:mod:`repro.resilience.scenario` (declarative time-windowed fault
scripts) and :mod:`repro.resilience.invariants` (the robustness
contract checker); import those by path — they pull in the pipeline
layers and must stay out of the engine's import graph.

Design center, as everywhere in this reproduction: **determinism**.
Every adaptive decision is a pure function of the virtual clock and the
engine schedule, so every replay of a run sheds, hedges, and backs off
identically — and a healthy world makes every mechanism a strict no-op,
keeping clean runs byte-identical to a no-resilience baseline.
"""

from .aimd import AimdController
from .budget import DeadlineBudget
from .metrics import ResilienceMetrics

__all__ = [
    "AimdController",
    "DeadlineBudget",
    "ResilienceMetrics",
]

"""The four workloads.  Names are fixed: later issues cite them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: fraction of cacheable nameserver groups dirtied before a warm re-scan
#: (the rule of ``benchmarks/test_bench_incremental.py``)
DIRTY_FRACTION = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line, copied into BENCHMARK.json
    why: str
    scale: str
    #: scale under ``BENCHMARK.json``'s command, where it differs: 92 runs
    #: share a 3,420 s cap, and a paper-scale warm run needs a paper-scale
    #: cold run first (~45 s a seed on a quiet box, ~90 s on a loud one)
    single_scale: Optional[str] = None
    #: ``HunterConfig`` fields that differ from the CLI defaults
    hunter: Dict[str, object] = field(default_factory=dict)
    #: ``python -m repro`` flags expressing the same run (``{dir}`` is a
    #: scratch directory); empty when the CLI cannot express it
    cli_flags: Tuple[str, ...] = ()
    loss_rate: float = 0.0
    #: checkpoints every N classified records + trace and metrics files
    checkpoint_every: int = 0
    #: populate a result store once, then time re-scans of a mutated world
    warm: bool = False
    #: untraced repetitions in a full set
    reps: int = 5


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="scan_cold",
        why=(
            "paper-scale clean scan on CLI defaults: the headline run, "
            "where a UR-kernel gain must show and peak RSS means "
            "something; wall (proc.run_wall_s) is gated by same-seed "
            "compare, not here"
        ),
        scale="paper",
        cli_flags=("--scale", "paper"),
        reps=5,
    ),
    Workload(
        name="scan_lossy",
        why=(
            "5% injected loss with hedging and AIMD: same scan layers "
            "under timeouts, retries and pacing; the result store is "
            "bypassed and the retry counts are deterministic"
        ),
        scale="default",
        hunter={"hedge_delay": 0.5, "aimd": True},
        cli_flags=(
            "--scale", "default", "--loss-rate", "0.05",
            "--hedge-delay", "0.5", "--aimd",
        ),  # fmt: skip
        loss_rate=0.05,
        reps=7,
    ),
    Workload(
        name="scan_durable",
        why=(
            "streaming execution with segment and stage checkpoints, "
            "trace and metrics files: flow, pipeline and obs do their "
            "work only here, so a batch-only gain paid here shows"
        ),
        scale="default",
        hunter={"execution": "stream"},
        cli_flags=(
            "--scale", "default", "--execution", "stream",
            "--checkpoint-dir", "{dir}/checkpoints",
            "--checkpoint-every", "200",
            "--trace-out", "{dir}/trace.jsonl",
            "--metrics-out", "{dir}/metrics.json",
        ),  # fmt: skip
        checkpoint_every=200,
        reps=7,
    ),
    Workload(
        name="rescan_warm",
        why=(
            "re-scan against a populated result store after 10% of "
            "servers changed (paper scale; default under BENCHMARK.json): "
            "world build, plan, store IO and the uncached correct-record "
            "collection dominate"
        ),
        scale="paper",
        single_scale="default",
        warm=True,
        reps=5,
    ),
)

BY_NAME: Dict[str, Workload] = {
    workload.name: workload for workload in WORKLOADS
}

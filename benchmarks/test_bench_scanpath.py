"""Benchmark: the scan-path fast lane vs the naive query path.

Times stage 1 (the full three-collection scan through the engine) twice
per scenario size — once with the fast lane disabled
(``network.scan_cache_enabled = False``, every exchange encoded,
decoded, and captured from scratch) and once with it enabled (compiled
zone answers, id-agnostic wire-codec memoization,
``capture_mode="off"``) — and
records wall clock plus the fast lane's hit/miss counters into
``BENCH_scanpath.json`` at the repo root so CI can track both claims
across commits:

* the fast lane is a pure re-expression: every deterministic stage-1
  output (query/response/timeout counters, the UR sequence, the
  classification epoch) is identical with the lane on or off
  (asserted here; report byte-identity exhaustively in ``tests``);
* compiling answers and memoizing the codec buys a real wall-clock
  speedup on the scan path (gated at 2x here, generous against timer
  noise; the measured figure at the default size is ~3x).
"""

import json
import subprocess
import time
from pathlib import Path

from repro.core import HunterConfig, URHunter
from repro.net.scanpath import ScanPathMetrics
from repro.scenario import ScenarioConfig, build_world, small_config

from .conftest import banner

#: scenario scale per step: (label, config factory)
SIZES = [
    ("small", lambda: small_config(seed=7)),
    ("default", lambda: ScenarioConfig(seed=7)),
]
#: minimum fast-lane speedup at the largest size (CI gate)
SPEEDUP_FLOOR = 2.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scanpath.json"


def _stage1_fingerprint(stage1):
    """Every deterministic output of stage 1, as one comparable value."""
    collection = stage1.collection
    return {
        "queries_sent": collection.queries_sent,
        "responses_seen": collection.responses_seen,
        "timeouts": collection.timeouts,
        "correct_successes": collection.correct_successes,
        "undelegated": [record.key for record in collection.undelegated],
        "protective": sorted(collection.protective),
        "classification_epoch": stage1.now,
    }


def _measure(scenario_factory, scan_cache: bool, capture_mode: str):
    """One stage-1 collection; returns (fingerprint, wall_s, hunter)."""
    world = build_world(scenario_factory())
    world.network.scan_cache_enabled = scan_cache
    hunter = URHunter.from_world(
        world, HunterConfig(capture_mode=capture_mode)
    )
    start = time.perf_counter()
    stage1 = hunter.stage1_collect()
    wall = time.perf_counter() - start
    return _stage1_fingerprint(stage1), wall, hunter


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).resolve().parent,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def test_scanpath_fast_lane():
    labels, naive_s, fast_s, speedups, counters = [], [], [], [], []
    banner("scan path: naive query path vs compiled fast lane")
    for label, factory in SIZES:
        naive_fp, naive_wall, _ = _measure(
            factory, scan_cache=False, capture_mode="full"
        )
        fast_fp, fast_wall, hunter = _measure(
            factory, scan_cache=True, capture_mode="off"
        )
        # the fast lane must be an invisible re-expression
        assert fast_fp == naive_fp
        scanpath = ScanPathMetrics.from_network(hunter.network)
        # the lane actually engaged: compiled answers and codec hits
        assert scanpath.compiled_hits > 0
        assert scanpath.query_hits > 0
        speedup = naive_wall / fast_wall if fast_wall > 0 else float("inf")
        labels.append(label)
        naive_s.append(round(naive_wall, 4))
        fast_s.append(round(fast_wall, 4))
        speedups.append(round(speedup, 2))
        counters.append(scanpath.to_dict())
        print(
            f"  {label:>8}  naive {naive_wall * 1000:8.1f}ms  "
            f"fast {fast_wall * 1000:8.1f}ms  speedup {speedup:5.2f}x"
        )
        print(scanpath.summary(indent=" " * 12))
    payload = {
        "timestamp": time.time(),
        "git_rev": _git_rev(),
        "sizes": labels,
        "naive_s": naive_s,
        "fast_s": fast_s,
        "speedup": speedups,
        "speedup_floor": SPEEDUP_FLOOR,
        "scan_path": counters,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\nwrote {OUTPUT.name}: largest-size speedup {speedups[-1]:.2f}x")
    # the compiled lane must pay for itself at the largest size
    assert speedups[-1] >= SPEEDUP_FLOOR

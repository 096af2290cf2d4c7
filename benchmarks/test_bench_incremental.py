"""Benchmark: warm incremental re-scan vs cold full scan.

The incremental layer's performance claim: when a small fraction of
nameserver groups changed since the last run (the longitudinal norm —
a few takedowns and fresh campaigns between snapshots), a warm re-scan
replays every unchanged group from the result store and only executes
the dirty ones.  CI containers pin a single core, so the gate is
computed on the simulated clock — per-group virtual elapsed is
deterministic and proportional to the real per-group work:

* ``cold_virtual_s`` — the summed virtual cost of every nameserver
  group, i.e. what a cold scan must execute;
* ``warm_virtual_s`` — the summed virtual cost of only the groups the
  :class:`PlanDiffer` marks ``execute`` after ~10% of the cacheable
  servers mutate (stale slots plus the always-executed uncacheable
  groups); the gate asserts ``cold / warm >= 3.0`` at the largest
  size;
* real wall clock for the populate run vs the warm stage-1 rides along
  informationally, and at the small size the warm run's full report is
  byte-compared against a cold scan of an identically mutated world.

Results land in ``BENCH_incremental.json`` at the repo root so CI can
track the trajectory across commits.
"""

import json
import subprocess
import tempfile
import time
from pathlib import Path

from repro.core import URHunter
from repro.dns.rdata import RRType
from repro.incremental import GroupResultStore, PlanDiffer, server_fingerprint
from repro.plan.shards import run_group_isolated
from repro.scenario import ScenarioConfig, build_world, small_config

from .conftest import banner

#: scenario scale per step: (label, config factory)
SIZES = [
    ("small", lambda: small_config(seed=7)),
    ("default", lambda: ScenarioConfig(seed=7)),
]
#: fraction of cacheable groups dirtied between the runs
DIRTY_FRACTION = 0.10
#: minimum simulated-clock speedup at the largest size (CI gate)
SPEEDUP_FLOOR = 3.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _mutate(world, server_ips, count):
    """Drop one apex rrset from ``count`` of the given servers' zones.

    Deterministic given the same world build and server order, so the
    warm-wall world and the cost world mutate identically.
    """
    mutated = 0
    for address in server_ips:
        if mutated >= count:
            break
        service = world.network.dns_hosts().get(address)
        if service is None:
            continue
        for zone in service.zones:
            if zone.remove(zone.origin, RRType.A) or zone.remove(
                zone.origin, RRType.TXT
            ):
                mutated += 1
                break
    assert mutated == count, f"only mutated {mutated}/{count} servers"
    return mutated


def _cacheable_servers(hunter):
    """Plan-group server addresses with an observable state stamp."""
    return sorted(
        group.server_ip
        for group in hunter.plan.groups
        if server_fingerprint(hunter.network, group.server_ip) is not None
    )


def _group_costs(hunter):
    """Virtual elapsed per nameserver group, keyed by group index."""
    plan = hunter.plan
    epoch = hunter.network.now
    return {
        group.index: run_group_isolated(
            hunter, plan, group, epoch, epoch
        ).elapsed
        for group in plan.groups
    }


def _providers(hunter):
    return {
        target.address: target.provider for target in hunter.nameservers
    }


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


def test_incremental_warm_rescan_speedup():
    labels, dirty_counts, speedups = [], [], []
    cold_virtuals, warm_virtuals = [], []
    walls_cold, walls_warm = [], []
    hit_counts, invalidated_counts, uncacheable_counts = [], [], []
    banner(
        f"incremental re-scan: cold virtual cost vs warm with "
        f"{DIRTY_FRACTION:.0%} dirty groups"
    )
    for label, factory in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            store_dir = Path(tmp) / "result-store"

            # populate: a cold scan that fills the store
            world = build_world(factory())
            hunter = URHunter.from_world(world)
            hunter.result_store = GroupResultStore(store_dir)
            start = time.perf_counter()
            hunter.stage1_collect()
            wall_cold = time.perf_counter() - start
            cacheable = _cacheable_servers(hunter)
            dirty = max(1, int(len(cacheable) * DIRTY_FRACTION))

            # partition a freshly built (and mutated) world against the
            # populated store; the execute-set's virtual cost is what a
            # warm re-scan actually pays
            world = build_world(factory())
            hunter = URHunter.from_world(world)
            _mutate(world, cacheable, dirty)
            diff_store = GroupResultStore(store_dir)
            # each stored payload is dropped as soon as it is read
            decisions = [
                decision
                for decision, _ in PlanDiffer(diff_store).partition(
                    hunter.plan,
                    hunter.network,
                    hunter.config,
                    providers=_providers(hunter),
                )
            ]
            costs = _group_costs(hunter)
            cold_virtual = sum(costs.values())
            warm_virtual = sum(
                costs[decision.group]
                for decision in decisions
                if decision.action == "execute"
            )
            speedup = (
                cold_virtual / warm_virtual
                if warm_virtual > 0
                else float("inf")
            )

            # the warm re-scan itself, wall-timed on yet another
            # identically mutated world (the partition above consumed
            # nothing: store slots only refresh when a run executes)
            world = build_world(factory())
            warm_hunter = URHunter.from_world(world)
            _mutate(world, cacheable, dirty)
            warm_store = GroupResultStore(store_dir)
            warm_hunter.result_store = warm_store
            start = time.perf_counter()
            warm_hunter.stage1_collect()
            wall_warm = time.perf_counter() - start
            assert warm_store.stats["hits"] > 0
            # a provider's nameserver set serves the same zones, so one
            # zone mutation can invalidate several sibling servers
            assert warm_store.stats["invalidated"] >= dirty

            if label == "small":
                # byte-identity spot check: a fresh warm full run must
                # match a cold scan of the same mutated world
                check_world = build_world(factory())
                check_hunter = URHunter.from_world(check_world)
                _mutate(check_world, cacheable, dirty)
                check_hunter.result_store = GroupResultStore(store_dir)
                warm_summary = check_hunter.run().summary()
                cold_world = build_world(factory())
                cold_hunter = URHunter.from_world(cold_world)
                _mutate(cold_world, cacheable, dirty)
                assert warm_summary == cold_hunter.run().summary()

        labels.append(label)
        dirty_counts.append(dirty)
        cold_virtuals.append(round(cold_virtual, 4))
        warm_virtuals.append(round(warm_virtual, 4))
        speedups.append(round(speedup, 2))
        walls_cold.append(round(wall_cold, 4))
        walls_warm.append(round(wall_warm, 4))
        hit_counts.append(warm_store.stats["hits"])
        invalidated_counts.append(warm_store.stats["invalidated"])
        uncacheable_counts.append(warm_store.stats["uncacheable"])
        print(
            f"  {label:>8}  groups {len(costs):3d}  "
            f"dirty {dirty:2d}  cold {cold_virtual:8.1f}s  "
            f"warm {warm_virtual:8.1f}s  speedup {speedup:5.2f}x"
        )
        print(
            f"  {'':>8}  wall: populate {wall_cold * 1000:8.1f}ms  "
            f"warm {wall_warm * 1000:8.1f}ms  "
            f"(hits {warm_store.stats['hits']}, "
            f"invalidated {warm_store.stats['invalidated']}, "
            f"uncacheable {warm_store.stats['uncacheable']})"
        )
    payload = {
        "timestamp": time.time(),
        "git_rev": _git_rev(),
        "sizes": labels,
        "dirty_fraction": DIRTY_FRACTION,
        "dirty_groups": dirty_counts,
        "hits": hit_counts,
        "invalidated": invalidated_counts,
        "uncacheable": uncacheable_counts,
        "cold_virtual_s": cold_virtuals,
        "warm_virtual_s": warm_virtuals,
        "speedup": speedups,
        "speedup_floor": SPEEDUP_FLOOR,
        "wall_cold_s": walls_cold,
        "wall_warm_s": walls_warm,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(
        f"\nwrote {OUTPUT.name}: largest-size warm re-scan "
        f"{speedups[-1]:.2f}x over cold"
    )
    # replaying the unchanged 90% must dominate the virtual cost
    assert speedups[-1] >= SPEEDUP_FLOOR

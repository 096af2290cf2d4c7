"""Benchmark: the §5.1 funnel and the full URHunter pipeline.

Paper values: 23M responses -> 5,011,483 unique URs -> 1,580,925
suspicious -> 401,718 malicious (25.41% of suspicious); the §4.2
validation found a zero false-negative rate.

The funnel shape must hold at simulation scale: suspicious URs are a
minority of all URs, malicious URs roughly a quarter of suspicious, and
the validation stays at exactly zero.
"""

import time

import pytest

from repro.analysis import overview_funnel
from repro.core import HunterConfig, URHunter
from repro.plan import run_shard_scan
from repro.scenario import ScenarioConfig, build_world

from .conftest import banner


def _compact_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=11,
        top_list_size=150,
        target_domains=50,
        longtail_providers=4,
        open_resolvers=10,
        attacker_campaigns=8,
        benign_samples=2,
    )


def test_overview_funnel(benchmark, bench_report):
    funnel = benchmark(overview_funnel, bench_report)
    banner("§5.1 funnel: unique URs -> suspicious -> malicious")
    paper = {
        "unique_urs": 5_011_483,
        "suspicious": 1_580_925,
        "malicious": 401_718,
    }
    for key in ("unique_urs", "correct", "protective", "suspicious", "malicious"):
        measured = funnel[key]
        reference = paper.get(key)
        suffix = f"   (paper: {reference:,})" if reference else ""
        print(f"  {key:12} {measured:>8,}{suffix}")
    share = 100.0 * funnel["malicious"] / funnel["suspicious"]
    print(f"\nmalicious share of suspicious: {share:.2f}% (paper: 25.41%)")

    assert funnel["suspicious"] < funnel["unique_urs"] / 2
    assert 0.05 < funnel["malicious"] / funnel["suspicious"] < 0.60


def test_zero_false_negative_validation(benchmark, bench_world):
    """§4.2: delegated records through the exclusion stage -> 0 FNs."""
    hunter = URHunter.from_world(bench_world)
    report = hunter.run()  # includes validation

    def validation_rate():
        assert hunter.last_filter is not None
        return hunter.last_filter.false_negative_rate(
            hunter._delegated_records_sample(),
            now=bench_world.network.now,
        )

    rate = benchmark(validation_rate)
    banner("§4.2 validation: false-negative rate on delegated records")
    print(f"measured FN rate: {rate:.4f}   (paper: 0.0)")
    assert rate == 0.0
    assert report.false_negative_rate == 0.0


def test_full_pipeline(benchmark):
    """Time the complete measurement on a compact scenario."""

    def run_pipeline():
        world = build_world(_compact_config())
        return URHunter.from_world(world).run(validate=False)

    report = benchmark.pedantic(run_pipeline, rounds=3, iterations=1)
    banner("full pipeline timing (compact scenario)")
    print(report.summary())
    assert report.classified


# -- scan engine comparison ------------------------------------------------


def _classified_map(report):
    return {
        entry.record.key: entry.category
        for entry in report.classified
    }


def test_engine_equivalence(benchmark):
    """Sequential and batched engines classify identically on the seed."""

    def run(engine_name):
        world = build_world(_compact_config())
        hunter = URHunter.from_world(
            world, HunterConfig(engine=engine_name)
        )
        return hunter.run(validate=False)

    sequential = run("sequential")
    batched = benchmark.pedantic(
        run, args=("batched",), rounds=3, iterations=1
    )
    banner("engine equivalence: sequential vs batched classification")
    print(f"classified URs: {len(sequential.classified):,} (both engines)")
    assert batched.scan_metrics is not None
    print(batched.scan_metrics.summary())
    assert _classified_map(sequential) == _classified_map(batched)


def _timed_stage1(engine_name, dead_fraction=0.0, per_server_interval=0.0):
    """Run the stage-1 UR sweep alone; report wall and virtual cost."""
    world = build_world(_compact_config())
    targets = world.nameserver_targets
    if dead_fraction:
        for target in targets[:: int(1 / dead_fraction)]:
            world.network.set_online(target.address, False)
    hunter = URHunter.from_world(
        world,
        HunterConfig(
            engine=engine_name, per_server_interval=per_server_interval
        ),
    )
    started_wall = time.perf_counter()
    started_virtual = world.network.now
    fold = run_shard_scan(hunter, hunter.plan, world.network.now)
    return {
        "wall": time.perf_counter() - started_wall,
        "virtual": world.network.now - started_virtual,
        "metrics": hunter.engine.metrics,
        "urs": {record.key for record in fold.records()},
        "group_sizes": [
            len(group.unit_indices) for group in hunter.plan.groups
        ],
    }


def test_engine_fault_tolerance_wall_clock():
    """Half the nameservers dead: the circuit breaker pays for itself.

    The sequential engine burns the full retry budget on every task
    aimed at a dead server; the batched engine opens the server's
    circuit after a handful of failures and skips the rest without
    touching the wire — strictly less work, measurably less wall clock,
    and a virtual scan shorter by orders of magnitude (timeouts overlap
    across lanes instead of summing).
    """
    runs = {
        name: min(
            (_timed_stage1(name, dead_fraction=0.5) for _ in range(3)),
            key=lambda run: run["wall"],
        )
        for name in ("sequential", "batched")
    }
    banner("engine fault tolerance: 50% dead nameservers")
    for name, run in runs.items():
        metrics = run["metrics"]
        print(
            f"  {name:10} wall {run['wall']:6.2f}s   "
            f"virtual {run['virtual']:>12,.0f}s   "
            f"sent {metrics.queries:>8,}   giveups {metrics.giveups:,}   "
            f"circuit-skips {metrics.skipped:,}"
        )
    sequential, batched = runs["sequential"], runs["batched"]
    assert batched["urs"] == sequential["urs"]
    assert batched["metrics"].queries < sequential["metrics"].queries
    assert batched["virtual"] < sequential["virtual"] / 10
    assert batched["wall"] < sequential["wall"]


def test_engine_pacing_overlap():
    """Ethics pacing: every server's waits overlap every other's.

    Under the paper's ~130 s per-server interval a nameserver group is
    one server's paced query sequence, identical on either engine; the
    group runner's clock rule (epoch + longest group) makes the sweep
    last as long as its slowest server, not the sum over servers.
    """
    interval = 130.0
    sequential = _timed_stage1("sequential", per_server_interval=interval)
    batched = _timed_stage1("batched", per_server_interval=interval)
    banner("engine pacing: per_server_interval=130s (paper's §A budget)")
    for name, run in (("sequential", sequential), ("batched", batched)):
        print(
            f"  {name:10} virtual scan duration "
            f"{run['virtual']:>14,.0f}s"
        )
    serial = sum((size - 1) * interval for size in batched["group_sizes"])
    print(
        f"  one server after another: {serial:,.0f}s "
        f"({serial / batched['virtual']:.1f}x)"
    )
    assert batched["urs"] == sequential["urs"]
    assert batched["virtual"] == sequential["virtual"]
    assert batched["virtual"] < serial / 4

"""Benchmark: the §5.1 funnel and the full URHunter pipeline.

Paper values: 23M responses -> 5,011,483 unique URs -> 1,580,925
suspicious -> 401,718 malicious (25.41% of suspicious); the §4.2
validation found a zero false-negative rate.

The funnel shape must hold at simulation scale: suspicious URs are a
minority of all URs, malicious URs roughly a quarter of suspicious, and
the validation stays at exactly zero.
"""

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


def _timed_stage1(per_server_interval):
    """Run the stage-1 UR sweep alone; report its virtual cost."""
    world = build_world(_compact_config())
    hunter = URHunter.from_world(
        world, HunterConfig(per_server_interval=per_server_interval)
    )
    started_virtual = world.network.now
    run_shard_scan(hunter, hunter.plan, world.network.now)
    return {
        "virtual": world.network.now - started_virtual,
        "group_sizes": [
            len(group.unit_indices) for group in hunter.plan.groups
        ],
    }


def test_engine_pacing_overlap():
    """Ethics pacing: every server's waits overlap every other's.

    Under the paper's ~130 s per-server interval a nameserver group is
    one server's paced query sequence; the group runner's clock rule
    (epoch + longest group) makes the sweep last as long as its slowest
    server, not the sum over servers.
    """
    interval = 130.0
    run = _timed_stage1(per_server_interval=interval)
    banner("engine pacing: per_server_interval=130s (paper's §A budget)")
    print(f"  virtual scan duration {run['virtual']:>14,.0f}s")
    serial = sum((size - 1) * interval for size in run["group_sizes"])
    print(
        f"  one server after another: {serial:,.0f}s "
        f"({serial / run['virtual']:.1f}x)"
    )
    assert run["virtual"] < serial / 4

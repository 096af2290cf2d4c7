"""Self-test of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (< 60 s).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import driver, metrics
from benchmarks.e2e.spans import SpanLog, aggregate
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


@pytest.fixture(scope="module", autouse=True)
def _scratch_removed():
    yield
    driver.remove_scratch()


@pytest.fixture(scope="module")
def smoke():
    """``--smoke``: small scale, 2 repetitions, all four workloads."""
    return driver.run_full(SEED, smoke=True)


def test_smoke_runs_every_workload_clean(smoke):
    assert list(smoke["workloads"]) == [spec.name for spec in WORKLOADS]
    for name, result in smoke["workloads"].items():
        assert result["errors"] == [], name
        assert len(result["reps"]) == 2
        assert list(result["end_to_end"]) == [
            metric for metric, *_ in metrics.END_TO_END
        ]
        assert result["end_to_end"]["virtual_s"]["min"] > 0
    assert smoke["workloads"]["scan_lossy"]["end_to_end"]["failed_share"][
        "median"
    ] > 0
    warm = smoke["workloads"]["rescan_warm"]["per_layer"]
    assert warm["incremental.hits"]["value"] > 0
    assert warm["incremental.populate_s"]["value"] > 0
    # resilience stays silent where it is not configured
    for name in ("scan_cold", "scan_durable", "rescan_warm"):
        layer = smoke["workloads"][name]["per_layer"]
        assert layer["resilience.hedges_fired"]["value"] == 0
        assert layer["resilience.aimd_wait_vs"]["value"] == 0


def test_self_times_partition_the_traced_wall(smoke):
    for name, result in smoke["workloads"].items():
        total = sum(layer["self_s"] for layer in result["layers"].values())
        assert total == pytest.approx(result["traced_wall_s"], rel=0.05), name
        assert result["per_layer"]["trace.overhead_ratio"]["value"] > 0.5


def test_benchmark_json_matches_the_printed_metrics(smoke):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [
        (workload["name"], workload["why"])
        for workload in declared["workloads"]
    ] == [(spec.name, spec.why) for spec in WORKLOADS]
    assert [
        (metric["name"], metric["unit"], metric["better"], metric["bound"])
        for metric in declared["end_to_end"]
    ] == list(metrics.CROSS_SEED)
    layer_names = [
        (metric["name"], metric["unit"], metric["better"])
        for metric in declared["per_layer"]
    ]
    assert layer_names == list(metrics.PER_LAYER)
    for result in smoke["workloads"].values():
        assert list(result["per_layer"]) == [name for name, *_ in layer_names]
        for name, entry in result["per_layer"].items():
            assert entry["unit"] == dict(
                (metric, unit) for metric, unit, _ in layer_names
            )[name]


def test_metric_names_and_units_fit_the_contract():
    for table in (metrics.END_TO_END, metrics.CROSS_SEED):
        names = [name for name, *_ in table + metrics.PER_LAYER]
        assert len(names) == len(set(names))
        for name in names + [spec.name for spec in WORKLOADS]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        for _, unit, *_ in table + metrics.PER_LAYER:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert len(metrics.PER_LAYER) <= 128
    for spec in WORKLOADS:
        assert len(spec.why) <= 200 and "\n" not in spec.why


def _cli_stdout(flags, scratch: Path) -> str:
    flags = [flag.replace("{dir}", str(scratch)) for flag in flags]
    flags[flags.index("--scale") + 1] = "small"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "--seed", str(SEED), *flags, "run"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout  # fmt: skip


@pytest.mark.parametrize(
    "name", [spec.name for spec in WORKLOADS if spec.cli_flags]
)
def test_harness_stdout_is_the_cli_stdout(name, tmp_path):
    record = driver.run_rep(name, SEED, scale="small")
    assert record["error"] is None
    assert record["stdout"] == _cli_stdout(BY_NAME[name].cli_flags, tmp_path)


def test_warm_rescan_reports_like_a_cold_scan_of_the_mutated_world(smoke):
    cold = driver.run_rep("rescan_warm", SEED, scale="small", mutate=True)
    assert cold["error"] is None
    assert cold["sample"]["counts"].get("incremental") is None
    warm = smoke["workloads"]["rescan_warm"]
    assert cold["report_digest"] == warm["report_digest"]


def test_rss_is_per_child_not_a_running_max():
    full = driver.run_rep("scan_cold", SEED, scale="small")
    setup = driver.run_rep("scan_cold", SEED, scale="small", setup_only=True)
    assert setup["sample"]["setup_done_ns"] > 0
    assert setup["peak_rss_mb"] < full["peak_rss_mb"] - 5
    # a child smaller than this (pytest) process reads this process's
    # peak instead of its own, and the driver says so
    assert setup["error"] is None or "floor" in setup["error"]


def test_unbuildable_world_is_a_failed_run_with_the_exception_text():
    record = driver.run_rep("scan_cold", 9, setup_only=True)
    assert record["exit"] != 0
    assert "AssertionError" in record["error"]
    assert "world.py" in record["error"] and "seed=9" in record["error"]
    assert "Traceback" not in record["error"]
    assert metrics.failed_queries(record) == (1, 1)


def test_summarize_median_and_quartiles():
    summary = metrics.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (summary["n"], summary["median"]) == (5, 3.0)
    assert (summary["min"], summary["max"]) == (1.0, 5.0)
    assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
    assert metrics.spread(summary) == pytest.approx(1.0)
    single = metrics.summarize([2.0])
    assert single["q1"] == single["q3"] == single["median"] == 2.0


def test_self_time_subtracts_covered_children():
    log = SpanLog()
    # outer [0, 100): a [10, 40) holding a nested a [20, 30); b [50, 90)
    for name, start, end, parent in (
        ("outer", 1, 101, -1),
        ("a", 11, 41, 0),
        ("a", 21, 31, 1),
        ("b", 51, 91, 0),
    ):
        log.name_id.append(log.intern(name))
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
    totals = aggregate(log)
    assert totals["outer"]["self_ns"] == 100 - 30 - 40
    assert totals["a"] == {"count": 2, "outer_ns": 30, "self_ns": 30}
    assert totals["b"]["self_ns"] == totals["b"]["outer_ns"] == 40
    assert sum(entry["self_ns"] for entry in totals.values()) == 100


def test_wrapped_calls_nest_and_generators_charge_only_their_own_time():
    log = SpanLog()
    inner = log.wrap("inner", lambda: 1)
    outer = log.wrap("outer", lambda: inner() + inner())

    def produce():
        yield inner()
        yield inner()

    assert outer() == 2
    assert list(log.wrap_generator("gen", produce)()) == [1, 1]
    totals = aggregate(log)
    assert totals["inner"]["count"] == 4
    assert totals["outer"]["count"] == 1
    assert totals["gen"]["count"] == 3  # two items and the exhaustion
    assert log.current == -1
    assert [log.parent[i] for i in range(3)] == [-1, 0, 0]


def _document(wall, failed_share=0.0):
    def entry(values, unit, bound):
        return {
            "unit": unit, "better": "lower", "bound": bound,
            **metrics.summarize(values), "values": values,
        }  # fmt: skip

    return {
        "stamp": {"git_rev": "abc", "seed": SEED},
        "workloads": {
            "scan_cold": {
                "report_digest": "d",
                "per_layer": {},
                "end_to_end": {
                    "run_wall_s": entry(wall, "s", 0.10),
                    "failed_share": entry([failed_share], "ratio", 0.0),
                },
            }
        },
    }


def test_compare_verdicts():
    wall = [10.0, 10.1, 10.2, 10.3, 10.4]
    base = _document(wall)
    rows, passed = driver.compare(base, base)
    assert passed and rows[2].endswith("same")
    rows, passed = driver.compare(
        base, _document([12.0, 12.1, 12.2, 12.3, 12.4])
    )
    assert not passed and rows[2].endswith("worse")
    rows, passed = driver.compare(base, _document([8.0, 8.1, 8.2, 8.3, 8.4]))
    assert passed and rows[2].endswith("better")
    # spread wider than the bound and the runs overlap: no verdict
    rows, passed = driver.compare(
        base, _document([9.0, 10.0, 11.5, 13.0, 14.0])
    )
    assert passed and rows[2].endswith("unresolved")
    rows, passed = driver.compare(base, _document(wall, failed_share=0.001))
    assert not passed and rows[3].endswith("worse")

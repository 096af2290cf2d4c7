"""Metric definitions: names, units, directions, bounds, and how each
is computed from one repetition's raw record.

A *repetition record* is what :func:`benchmarks.e2e.driver.run_rep`
returns: the driver's own measurements (``wall_s``, ``cpu_s``,
``peak_rss_mb``) plus the child's ``sample``.  ``BENCHMARK.json`` at the
repository root lists the same names; ``test_harness.py`` checks the two
agree.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional, Sequence, Tuple

#: (name, unit, better, regression bound as a share of the base median)
#: for runs that share a seed: the full set and ``compare``.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("run_wall_s", "s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("virtual_s", "sim_s", "lower", 0.02),
    ("failed_share", "ratio", "lower", 0.0),
)

#: ``BENCHMARK.json``'s end-to-end metrics, same columns.  The builder's
#: driver gives every run another seed and accepts a metric only if its
#: interquartile spread over ten such runs stays inside the bound (at most
#: 0.25).  The planned query count moves +-15% with the seed (173k-233k
#: at paper scale over seeds 1-10), so RSS and virtual time go in per
#: 100k planned stage-1 queries; ``setup_s`` is required raw, by that name.
#: Both repeat exactly at a seed, so their spread is seed-to-seed alone
#: (RSS 3-6%; virtual time 2-3% on the three scans, 7% on ``rescan_warm``,
#: part of whose virtual time is the correct-record collection, the same
#: queries whatever the seed), and each bound is the smallest that keeps
#: three times the widest spread seen under it, as the contract advises.
#: Wall time is NOT here: this host's speed swings by up to 1.9x within
#: minutes (user CPU time inflating with wall), so no wall statistic a
#: run can afford holds any bound the contract allows.  It is reported
#: untraced as ``proc.run_wall_s`` / ``proc.wall_s_per_100kq`` among the
#: per-layer metrics (which carry no bound) and gated at one seed by
#: ``compare`` -- see "Landing a change" in README.md.
#: ``failed_share`` is 0 on three workloads and a contract metric may
#: never be 0: it travels as ``failed``/``attempted`` instead.
CROSS_SEED: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("rss_mb_per_100kq", "MiB", "lower", 0.20),
    ("virtual_s_per_100kq", "sim_s", "lower", 0.25),
)

_LOWER, _HIGHER = "lower", "higher"

#: (name, unit, better) of every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("proc.run_wall_s", "s", _LOWER),
    ("proc.wall_s_per_100kq", "s", _LOWER),
    ("proc.import_s", "s", _LOWER),
    ("proc.cpu_share", "ratio", _HIGHER),
    ("proc.rss_after_setup_mb", "MiB", _LOWER),
    ("proc.rss_after_stage1_mb", "MiB", _LOWER),
    ("scenario.build_world_s", "s", _LOWER),
    ("plan.build_plan_s", "s", _LOWER),
    ("plan.groups", "count", _LOWER),
    ("plan.units", "count", _LOWER),
    ("plan.run_shard_scan_s", "s", _LOWER),
    ("core.hunter_init_s", "s", _LOWER),
    ("core.stage1_s", "s", _LOWER),
    ("core.collect_protective_s", "s", _LOWER),
    ("core.collect_protective_queries", "count", _LOWER),
    ("core.collect_protective_us_per_query", "us", _LOWER),
    ("core.collect_correct_s", "s", _LOWER),
    ("core.collect_correct_queries", "count", _LOWER),
    ("core.collect_correct_us_per_query", "us", _LOWER),
    ("core.collect_urs_s", "s", _LOWER),
    ("core.collect_urs_queries", "count", _LOWER),
    ("core.collect_urs_us_per_query", "us", _LOWER),
    ("core.stage2_s", "s", _LOWER),
    ("core.stage2.records", "count", _LOWER),
    ("core.stage2.distinct_keys", "count", _LOWER),
    ("core.stage2.memo_hit_rate", "ratio", _HIGHER),
    ("core.stage3_s", "s", _LOWER),
    ("core.build_report_s", "s", _LOWER),
    ("analysis.render_s", "s", _LOWER),
    ("engine.execute_s", "s", _LOWER),
    ("engine.self_s", "s", _LOWER),
    ("engine.queries", "count", _LOWER),
    ("engine.retries", "count", _LOWER),
    ("engine.timeouts", "count", _LOWER),
    ("engine.giveups", "count", _LOWER),
    ("engine.skipped", "count", _LOWER),
    ("engine.shed", "count", _LOWER),
    ("engine.useful_ratio", "ratio", _HIGHER),
    ("engine.rate_limit_wait_vs", "sim_s", _LOWER),
    ("net.exchanges", "count", _LOWER),
    ("net.exchanges_per_query", "ratio", _LOWER),
    ("net.query_dns_s", "s", _LOWER),
    ("net.self_s", "s", _LOWER),
    ("net.exchange_us_p50", "us", _LOWER),
    ("net.exchange_us_p99", "us", _LOWER),
    ("net.flows_recorded", "count", _LOWER),
    ("net.flows_skipped", "count", _HIGHER),
    ("dns.resolver.calls", "count", _LOWER),
    ("dns.resolver.handle_s", "s", _LOWER),
    ("dns.resolver.self_s", "s", _LOWER),
    ("dns.resolver.upstream_per_call", "ratio", _LOWER),
    ("dns.server.calls", "count", _LOWER),
    ("dns.server.handle_s", "s", _LOWER),
    ("dns.server.compiled_hit_rate", "ratio", _HIGHER),
    ("dns.wire.calls", "count", _LOWER),
    ("dns.wire.query_s", "s", _LOWER),
    ("dns.wire.encode_s", "s", _LOWER),
    ("dns.wire.decode_s", "s", _LOWER),
    ("dns.wire.query_hit_rate", "ratio", _HIGHER),
    ("dns.wire.encode_hit_rate", "ratio", _HIGHER),
    ("dns.wire.decode_hit_rate", "ratio", _HIGHER),
    ("intel.pdns_lookups", "count", _LOWER),
    ("intel.pdns_cache_hit_rate", "ratio", _HIGHER),
    ("intel.ipinfo_cache_hit_rate", "ratio", _HIGHER),
    ("intel.condition_s", "s", _LOWER),
    ("resilience.hedges_fired", "count", _LOWER),
    ("resilience.hedges_won", "count", _HIGHER),
    ("resilience.hedge_win_ratio", "ratio", _HIGHER),
    ("resilience.aimd_cuts", "count", _LOWER),
    ("resilience.aimd_wait_vs", "sim_s", _LOWER),
    ("flow.run_flow_s", "s", _LOWER),
    ("flow.max_occupancy", "count", _LOWER),
    ("flow.sweeps", "count", _LOWER),
    ("pipeline.runner_self_s", "s", _LOWER),
    ("pipeline.checkpoint_saves", "count", _LOWER),
    ("pipeline.checkpoint_save_s", "s", _LOWER),
    ("pipeline.checkpoint_bytes", "B", _LOWER),
    ("obs.trace_events", "count", _LOWER),
    ("obs.trace_bytes", "B", _LOWER),
    ("obs.finalize_s", "s", _LOWER),
    ("obs.metrics_doc_s", "s", _LOWER),
    ("incremental.populate_s", "s", _LOWER),
    ("incremental.partition_s", "s", _LOWER),
    ("incremental.store_get_s", "s", _LOWER),
    ("incremental.store_put_s", "s", _LOWER),
    ("incremental.store_bytes", "B", _LOWER),
    ("incremental.hits", "count", _HIGHER),
    ("incremental.misses", "count", _LOWER),
    ("incremental.invalidated", "count", _LOWER),
    ("incremental.uncacheable", "count", _LOWER),
    ("incremental.replay_ratio", "ratio", _HIGHER),
    ("trace.spans", "count", _LOWER),
    ("trace.wrapper_ns", "ns", _LOWER),
    ("trace.overhead_ratio", "ratio", _LOWER),
)

#: per-layer metrics in this unit count deterministic program events:
#: two runs of one commit and seed must agree on them exactly
EXACT_UNIT = "count"


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median with min/q1/q3/max and ``n``.  Quartiles are
    ``statistics.quantiles(values, n=4)`` (the builder contract's rule);
    a single sample is its own quartiles."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "max": ordered[-1],
    }


def spread(summary: Dict[str, Any]) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def failed_queries(record: Dict[str, Any]) -> Tuple[int, int]:
    """``(failed, attempted)`` engine queries of one repetition.

    A repetition that exited non-zero or failed a check counts every
    query failed (at least one, so a run that died early still shows)."""
    sample = record.get("sample") or {}
    engine = (sample.get("counts") or {}).get("engine")
    if engine is None:
        return 1, 1
    attempted = max(1, engine["queries"])
    if record["exit"] != 0 or sample.get("error"):
        return attempted, attempted
    lost = engine["giveups"] + engine["shed"] + engine["skipped"]
    return lost + sample["counts"]["unaccounted"], attempted


def end_to_end(record: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced repetition."""
    sample = record["sample"]
    failed, attempted = failed_queries(record)
    return {
        "run_wall_s": record["wall_s"],
        "setup_s": setup_s(record),
        "peak_rss_mb": record["peak_rss_mb"],
        "virtual_s": sample["virtual_s"],
        "failed_share": failed / attempted,
    }


def setup_s(record: Dict[str, Any]) -> float:
    """Child start -> hunter constructed and stores opened."""
    sample = record["sample"]
    return (sample["setup_done_ns"] - sample["t0_ns"]) / 1e9


def traced_wall_s(record: Dict[str, Any]) -> float:
    """Wall of a traced repetition without the span aggregation the
    child does after its root span closed."""
    sample = record["sample"]
    return record["wall_s"] - (sample["last_ns"] - sample["root_end_ns"]) / 1e9


def layer_table(record: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Self time per span name; with ``proc.teardown`` (root span closed
    -> process reaped) the self times add up to the traced wall."""
    sample = record["sample"]
    table = {
        name: {
            "count": entry["count"],
            "self_s": entry["self_ns"] / 1e9,
            "inclusive_s": entry["outer_ns"] / 1e9,
        }
        for name, entry in sample["spans"].items()
    }
    teardown = traced_wall_s(record) - (
        sample["root_end_ns"] - sample["t0_ns"]
    ) / 1e9
    table["proc.teardown"] = {
        "count": 1,
        "self_s": teardown,
        "inclusive_s": teardown,
    }
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    record: Dict[str, Any],
    untraced_wall_s: Optional[float] = None,
    populate_s: float = 0.0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repetition.  A layer
    the workload does not exercise reads 0.  ``untraced_wall_s`` is the
    median wall of the untraced repetitions of the same set."""
    sample = record["sample"]
    spans = sample["spans"]
    counts = sample["counts"]

    def inclusive(name: str) -> float:
        return spans.get(name, {}).get("outer_ns", 0) / 1e9

    def self_time(name: str) -> float:
        return spans.get(name, {}).get("self_ns", 0) / 1e9

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    engine = counts["engine"]
    scan_path = counts["scan_path"]
    stage2 = counts.get("stage2", {})
    resilience = counts.get("resilience", {})
    flow = counts.get("flow", {})
    obs = counts.get("obs", {})
    store = counts.get("incremental", {})
    exchange = sample.get("net_exchange_us", {})

    def hit_rate(prefix: str, source: Dict[str, Any] = scan_path) -> float:
        hits = source.get(f"{prefix}_hits", 0)
        return _ratio(hits, hits + source.get(f"{prefix}_misses", 0))

    untraced_wall_s = untraced_wall_s or 0.0
    values: Dict[str, float] = {
        "proc.run_wall_s": untraced_wall_s,
        "proc.wall_s_per_100kq": _ratio(
            untraced_wall_s * 1e5, counts["plan"]["units"]
        ),
        "proc.import_s": inclusive("proc.import"),
        "proc.cpu_share": _ratio(record["cpu_s"], record["wall_s"]),
        "proc.rss_after_setup_mb": sample["rss_after_setup_kb"] / 1024,
        "proc.rss_after_stage1_mb": sample["rss_after_stage1_kb"] / 1024,
        "scenario.build_world_s": inclusive("scenario.build_world"),
        "plan.build_plan_s": inclusive("plan.build_plan"),
        "plan.groups": counts["plan"]["groups"],
        "plan.units": counts["plan"]["units"],
        "plan.run_shard_scan_s": inclusive("plan.run_shard_scan"),
        "core.hunter_init_s": self_time("core.hunter_init"),
        "core.stage1_s": inclusive("core.stage1"),
        "core.stage2_s": inclusive("core.stage2"),
        "core.stage2.records": stage2.get("records", 0),
        "core.stage2.distinct_keys": stage2.get("distinct_keys", 0),
        "core.stage2.memo_hit_rate": stage2.get("cache_hit_rate", 0.0),
        "core.stage3_s": inclusive("core.stage3"),
        "core.build_report_s": inclusive("core.build_report"),
        "analysis.render_s": inclusive("analysis.render"),
        "engine.execute_s": inclusive("engine.execute"),
        "engine.self_s": self_time("engine.execute"),
        "engine.queries": engine["queries"],
        "engine.retries": engine["retries"],
        "engine.timeouts": engine["timeouts"],
        "engine.giveups": engine["giveups"],
        "engine.skipped": engine["skipped"],
        "engine.shed": engine["shed"],
        "engine.useful_ratio": _ratio(engine["responses"], engine["queries"]),
        "engine.rate_limit_wait_vs": counts["rate_limit_wait_vs"],
        "net.exchanges": counts["net_exchanges"],
        "net.exchanges_per_query": _ratio(
            counts["net_exchanges"], engine["queries"]
        ),
        "net.query_dns_s": inclusive("net.query_dns"),
        "net.self_s": self_time("net.query_dns"),
        "net.exchange_us_p50": exchange.get("p50", 0.0),
        "net.exchange_us_p99": exchange.get("p99", 0.0),
        "net.flows_recorded": scan_path["flows_recorded"],
        "net.flows_skipped": scan_path["flows_skipped"],
        "dns.resolver.calls": counts["resolver"]["calls"],
        "dns.resolver.handle_s": inclusive("dns.resolver.handle"),
        "dns.resolver.self_s": self_time("dns.resolver.handle"),
        "dns.resolver.upstream_per_call": _ratio(
            counts["resolver"]["upstream"], counts["resolver"]["calls"]
        ),
        "dns.server.calls": counts["server_calls"],
        "dns.server.handle_s": inclusive("dns.server.handle"),
        "dns.server.compiled_hit_rate": hit_rate("compiled"),
        "dns.wire.calls": calls("dns.wire.query")
        + calls("dns.wire.encode")
        + calls("dns.wire.decode"),
        "dns.wire.query_s": self_time("dns.wire.query"),
        "dns.wire.encode_s": self_time("dns.wire.encode"),
        "dns.wire.decode_s": self_time("dns.wire.decode"),
        "dns.wire.query_hit_rate": hit_rate("query"),
        "dns.wire.encode_hit_rate": hit_rate("encode"),
        "dns.wire.decode_hit_rate": hit_rate("decode"),
        "intel.pdns_lookups": stage2.get("pdns_cache_hits", 0)
        + stage2.get("pdns_cache_misses", 0),
        "intel.pdns_cache_hit_rate": hit_rate("pdns_cache", stage2),
        "intel.ipinfo_cache_hit_rate": hit_rate("ipinfo_cache", stage2),
        "intel.condition_s": sum(stage2.get("condition_s", {}).values()),
        "resilience.hedges_fired": resilience.get("hedges_fired", 0),
        "resilience.hedges_won": resilience.get("hedges_won", 0),
        "resilience.hedge_win_ratio": _ratio(
            resilience.get("hedges_won", 0), resilience.get("hedges_fired", 0)
        ),
        "resilience.aimd_cuts": resilience.get("aimd_cuts", 0),
        "resilience.aimd_wait_vs": resilience.get("aimd_wait", 0.0),
        "flow.run_flow_s": inclusive("flow.run_flow"),
        "flow.max_occupancy": flow.get("max_occupancy", 0),
        "flow.sweeps": flow.get("sweeps", 0),
        "pipeline.runner_self_s": self_time("pipeline.run"),
        "pipeline.checkpoint_saves": calls("pipeline.checkpoint_save"),
        "pipeline.checkpoint_save_s": inclusive("pipeline.checkpoint_save"),
        "pipeline.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        "obs.trace_events": obs.get("trace_events", 0),
        "obs.trace_bytes": obs.get("trace_bytes", 0),
        "obs.finalize_s": inclusive("obs.finalize"),
        "obs.metrics_doc_s": inclusive("obs.metrics_doc"),
        "incremental.populate_s": populate_s,
        "incremental.partition_s": inclusive("incremental.partition"),
        "incremental.store_get_s": inclusive("incremental.store_get"),
        "incremental.store_put_s": inclusive("incremental.store_put"),
        "incremental.store_bytes": store.get("store_bytes", 0),
        "incremental.hits": store.get("hits", 0),
        "incremental.misses": store.get("misses", 0),
        "incremental.invalidated": store.get("invalidated", 0),
        "incremental.uncacheable": store.get("uncacheable", 0),
        "incremental.replay_ratio": _ratio(
            store.get("hits", 0), counts["plan"]["groups"]
        ),
        "trace.spans": sample["span_count"],
        "trace.wrapper_ns": sample.get("wrapper_ns", 0.0),
        "trace.overhead_ratio": _ratio(traced_wall_s(record), untraced_wall_s),
    }
    for phase, span in (
        ("protective", "core.collect_protective"),
        ("correct", "core.collect_correct"),
        ("urs", "core.collect_urs"),
    ):
        queries = counts["phase_queries"].get(
            "ur" if phase == "urs" else phase, 0
        )
        seconds = inclusive(span)
        values[f"core.collect_{phase}_s"] = seconds
        values[f"core.collect_{phase}_queries"] = queries
        values[f"core.collect_{phase}_us_per_query"] = (
            _ratio(seconds, queries) * 1e6
        )
    undeclared = set(values) - {name for name, _, _ in PER_LAYER}
    if undeclared:
        raise KeyError(f"computed but not in PER_LAYER: {sorted(undeclared)}")
    return {name: values[name] for name, _, _ in PER_LAYER}

"""One repetition of one workload, in a fresh process.

Mirrors ``repro.cli.main``'s call sequence for ``run`` through public
API only — ``build_world`` -> ``inject_faults`` -> ``URHunter.from_world``
-> attach trace / result store / checkpoints -> ``PipelineRunner.run``
-> funnel + ``report.summary()`` on stdout — and writes one JSON line of
raw samples to ``--sample-fd``.  The driver owns everything statistical;
this file only measures.

With ``--traced`` the public functions at each layer boundary are
wrapped with span timers (see :mod:`benchmarks.e2e.spans`); untraced
runs carry only the handful of spans this file opens itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e.spans import SpanLog, aggregate, wrapper_cost_ns
from benchmarks.e2e.workloads import BY_NAME, DIRTY_FRACTION, Workload

#: exit code of a repetition that ran but failed (build error or check)
EXIT_FAILED = 4


def _rss_kb() -> int:
    """Current resident set, from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def _scenario(scale: str, seed: int):
    from repro.scenario import (
        ScenarioConfig,
        paper_scale_config,
        small_config,
    )

    if scale == "small":
        return small_config(seed)
    if scale == "paper":
        return paper_scale_config(seed)
    return ScenarioConfig(seed=seed)


def _patch(log: SpanLog, name: str, *sites, generator: bool = False) -> None:
    """Replace one function, at every name it is reachable under, by
    its span-timed form.  ``sites`` are ``(module or class, attribute)``;
    the first one holds the original."""
    owner, attribute = sites[0]
    wrap = log.wrap_generator if generator else log.wrap
    traced = wrap(name, getattr(owner, attribute))
    for owner, attribute in sites:
        setattr(owner, attribute, traced)


def install_wrappers(log: SpanLog, sample: Dict[str, Any]) -> None:
    """Span timers on the public functions at each layer boundary;
    checkpoint bytes written are summed into ``sample``."""
    import repro.core.hunter as hunter_module
    import repro.dns.wire as wire
    import repro.net.network as network
    from repro.core.collector import ResponseCollector
    from repro.core.hunter import URHunter
    from repro.dns.resolver import RecursiveResolver
    from repro.dns.server import AuthoritativeServer
    from repro.engine.batched import BatchedEngine
    from repro.flow.nodes import AnalysisNode, SuspicionNode, TransformNode
    from repro.incremental import GroupResultStore, PlanDiffer
    from repro.pipeline import CheckpointStore

    _patch(log, "plan.build_plan", (hunter_module, "build_plan"))
    _patch(log, "plan.run_shard_scan", (hunter_module, "run_shard_scan"))
    _patch(log, "core.hunter_init", (URHunter, "__init__"))
    _patch(log, "core.stage1", (URHunter, "stage1_collect"))
    _patch(log, "core.stage2", (URHunter, "stage2_exclude"))
    _patch(log, "core.stage3", (URHunter, "stage3_analyze"))
    _patch(log, "core.build_report", (URHunter, "build_report"))
    _patch(log, "flow.run_flow", (URHunter, "run_flow"))
    # the streaming dataflow fuses the stages: its stage-2/3 work is the
    # two transform nodes' pump steps (one inherited method, two names)
    SuspicionNode.step = log.wrap("core.stage2", TransformNode.step)
    AnalysisNode.step = log.wrap("core.stage3", TransformNode.step)
    for phase in ("protective", "correct"):
        _patch(
            log,
            f"core.collect_{phase}",
            (ResponseCollector, f"collect_{phase}_records"),
        )
    _patch(log, "core.collect_urs", (ResponseCollector, "collect_urs"))
    _patch(
        log, "engine.execute", (BatchedEngine, "execute_iter"), generator=True
    )
    _patch(log, "net.query_dns", (network.SimulatedInternet, "query_dns"))
    _patch(log, "net.query_dns", (network.DnsChannel, "query"))
    _patch(
        log, "dns.resolver.handle", (RecursiveResolver, "handle_dns_query")
    )
    _patch(log, "dns.server.handle", (AuthoritativeServer, "handle_dns_query"))
    _patch(
        log,
        "dns.wire.encode",
        (wire, "encode_message"),
        (network, "encode_message"),
    )
    _patch(
        log,
        "dns.wire.decode",
        (wire, "decode_message"),
        (network, "decode_message"),
    )
    _patch(log, "dns.wire.encode", (wire.WireCodecCache, "encode"))
    _patch(log, "dns.wire.decode", (wire.WireCodecCache, "decode"))
    _patch(log, "dns.wire.query", (wire.WireCodecCache, "query_hit"))
    _patch(log, "dns.wire.query", (wire.WireCodecCache, "query_store"))
    _patch(log, "incremental.partition", (PlanDiffer, "partition"))
    _patch(log, "incremental.store_get", (GroupResultStore, "get"))
    _patch(log, "incremental.store_put", (GroupResultStore, "put"))

    def sized(save):
        # bytes are counted after the span closes, so the directory walk
        # is charged to the caller, not to the checkpoint layer
        def saving(store, *args, **kwargs):
            before = _dir_bytes(store.path)
            save(store, *args, **kwargs)
            sample["checkpoint_bytes"] += max(
                0, _dir_bytes(store.path) - before
            )

        return saving

    for method in ("save", "save_segment"):
        _patch(log, "pipeline.checkpoint_save", (CheckpointStore, method))
        setattr(
            CheckpointStore, method, sized(getattr(CheckpointStore, method))
        )


def _note_rss_after(sample: Dict[str, Any]) -> None:
    """Record the resident set when stage 1 (or, streaming, the fused
    dataflow) returns.  Installed in untraced runs too: it costs one
    ``/proc`` read per run."""
    from repro.core.hunter import URHunter

    def noting(method):
        def noted(*args, **kwargs):
            try:
                return method(*args, **kwargs)
            finally:
                sample["rss_after_stage1_kb"] = _rss_kb()

        return noted

    URHunter.stage1_collect = noting(URHunter.stage1_collect)
    URHunter.run_flow = noting(URHunter.run_flow)


def mutate(world, hunter) -> int:
    """Drop one apex rrset on ``DIRTY_FRACTION`` of the cacheable
    servers (those whose zone state the result store can fingerprint),
    in sorted address order — deterministic for a given world.  Returns
    the number of servers dirtied."""
    from repro.dns.rdata import RRType
    from repro.incremental import server_fingerprint

    cacheable = sorted(
        group.server_ip
        for group in hunter.plan.groups
        if server_fingerprint(hunter.network, group.server_ip) is not None
    )
    wanted = max(1, int(len(cacheable) * DIRTY_FRACTION))
    services = world.network.dns_hosts()
    mutated = 0
    for address in cacheable:
        if mutated >= wanted:
            break
        service = services.get(address)
        for zone in getattr(service, "zones", ()):
            if zone.remove(zone.origin, RRType.A) or zone.remove(
                zone.origin, RRType.TXT
            ):
                mutated += 1
                break
    if mutated != wanted:
        raise RuntimeError(f"only mutated {mutated}/{wanted} servers")
    return mutated


def _counts(report, hunter, result_store) -> Dict[str, Any]:
    """Counts from the program's own public snapshots."""
    from repro.net.scanpath import ScanPathMetrics

    scan = report.scan_metrics
    counts: Dict[str, Any] = {
        "engine": {
            name: getattr(scan, name)
            for name in (
                "queries", "responses", "timeouts", "retries",
                "giveups", "skipped", "shed",
            )  # fmt: skip
        },
        "phase_queries": {
            name: counters.queries for name, counters in scan.stages.items()
        },
        "rate_limit_wait_vs": sum(
            counters.rate_limit_wait for counters in scan.stages.values()
        ),
        "scan_path": ScanPathMetrics.from_network(hunter.network).to_dict(),
        "net_exchanges": hunter.network.stats["dns_queries"],
        "plan": {
            "groups": len(hunter.plan.groups),
            "units": sum(hunter.plan.unit_counts().values()),
        },
        "resolver": {"calls": 0, "upstream": 0},
        "server_calls": 0,
    }
    for service in hunter.network.dns_hosts().values():
        stats = getattr(service, "stats", None)
        if hasattr(stats, "upstream_queries"):
            counts["resolver"]["calls"] += stats.queries_received
            counts["resolver"]["upstream"] += stats.upstream_queries
        else:
            counts["server_calls"] += getattr(service, "query_count", 0)
    stage2 = report.stage2_metrics
    if stage2 is not None:
        counts["stage2"] = {**stage2.to_dict(), **stage2.timing_dict()}
    resilience = hunter.resilience
    if resilience is not None:
        counts["resilience"] = resilience.to_dict()
    flow = hunter.last_flow_stats
    if flow is not None:
        counts["flow"] = {
            "max_occupancy": flow.max_occupancy,
            "sweeps": flow.sweeps,
        }
    if result_store is not None:
        counts["incremental"] = dict(result_store.stats)
        counts["incremental"]["store_bytes"] = _dir_bytes(result_store.path)
    return counts


def _run(
    args: argparse.Namespace,
    spec: Workload,
    log: SpanLog,
    sample: Dict[str, Any],
) -> None:
    """The repetition itself: fills ``sample``, prints the report."""
    from repro.analysis import overview_funnel
    from repro.core import HunterConfig, URHunter
    from repro.incremental import GroupResultStore
    from repro.net.scanpath import ScanPathMetrics
    from repro.obs import RunTrace, build_metrics_document
    from repro.obs.events import run_end_fields
    from repro.pipeline import CheckpointStore, PipelineRunner
    from repro.pipeline.checkpoint import config_fingerprint
    from repro.scenario import build_world

    workdir = Path(args.workdir)
    with log.span("scenario.build_world"):
        world = build_world(_scenario(args.scale, args.seed))
    if spec.loss_rate:
        world.network.inject_faults(
            loss_rate=spec.loss_rate, seed=args.seed
        )
    config = HunterConfig(**spec.hunter)
    hunter = URHunter.from_world(world, config)
    if args.mutate:
        with log.span("scenario.mutate"):
            sample["dirty"] = mutate(world, hunter)
    result_store = None
    if args.store:
        result_store = GroupResultStore(args.store)
        hunter.result_store = result_store
    trace = None
    checkpoints = None
    if spec.checkpoint_every:
        trace = RunTrace(workdir / "trace.jsonl")
        hunter.attach_trace(trace)
        checkpoints = CheckpointStore(workdir / "checkpoints")
    fingerprint = f"workload={spec.name},scale={args.scale},seed={args.seed}"
    runner = PipelineRunner(
        hunter,
        store=checkpoints,
        scenario_fingerprint=fingerprint,
        checkpoint_every=spec.checkpoint_every,
    )
    sample["setup_done_ns"] = time.perf_counter_ns()
    sample["rss_after_setup_kb"] = _rss_kb()
    if args.setup_only:
        return
    virtual_start = world.network.now

    try:
        with log.span("pipeline.run"):
            result = runner.run(validate=True)
    finally:
        if trace is not None:
            with log.span("obs.finalize"):
                trace.finalize()
    report = result.report
    sample["virtual_s"] = world.network.now - virtual_start
    if result_store is not None:
        result_store.write_stats()
    if spec.checkpoint_every:
        with log.span("obs.metrics_doc"):
            flow_stats = hunter.last_flow_stats
            document = build_metrics_document(
                report,
                fingerprint=config_fingerprint(
                    config,
                    extra={
                        "plan": hunter.plan.plan_hash,
                        "scenario": fingerprint,
                    },
                ),
                execution=config.execution,
                stage2_workers=config.stage2_workers,
                channel_depth=config.channel_depth,
                shards=config.shards,
                shard_workers=config.shard_workers,
                flow_metrics=(
                    flow_stats.to_metrics() if flow_stats is not None else None
                ),
                scan_path=ScanPathMetrics.from_network(hunter.network),
            )
            (workdir / "metrics.json").write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
    with log.span("analysis.render"):
        funnel = overview_funnel(report)
        lines = [f"{key:12} {value:,}" for key, value in funnel.items()]
        sys.stdout.write("\n".join(lines + ["", report.summary()]) + "\n")
        sys.stdout.flush()

    ledger = run_end_fields(report)
    counts = _counts(report, hunter, result_store)
    counts["unaccounted"] = ledger["unaccounted"]
    if trace is not None:
        counts["obs"] = {
            "trace_events": sum(trace.counters().values()),
            "trace_bytes": (workdir / "trace.jsonl").stat().st_size,
        }
        counts["checkpoint_bytes"] = sample["checkpoint_bytes"]
    sample["counts"] = counts
    checks = {
        "funnel_adds_up": funnel["correct"]
        + funnel["protective"]
        + funnel["suspicious"]
        == funnel["unique_urs"],
        "fn_rate_zero": report.false_negative_rate == 0.0,
        "unaccounted_zero": ledger["unaccounted"] == 0,
    }
    if args.mutate and result_store is not None:
        stats = result_store.stats
        checks["store_hits"] = stats["hits"] > 0
        checks["store_invalidated"] = stats["invalidated"] >= sample["dirty"]
    sample["checks"] = checks
    failed = sorted(name for name, passed in checks.items() if not passed)
    if failed:
        sample["error"] = "failed checks: " + ", ".join(failed)


def main(argv: Optional[List[str]] = None) -> int:
    entered_ns = time.perf_counter_ns()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.runner")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("small", "default", "paper"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--sample-fd", type=int, required=True)
    parser.add_argument(
        "--t0-ns",
        type=int,
        default=0,
        help="perf_counter_ns at spawn (same clock in parent and child)",
    )
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--store", help="GroupResultStore directory")
    parser.add_argument("--mutate", action="store_true")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop once the hunter is constructed (a set-up time sample)",
    )
    args = parser.parse_args(argv)
    spec = BY_NAME[args.workload]
    args.scale = args.scale or spec.scale

    log = SpanLog()
    t0_ns = args.t0_ns or entered_ns
    root = log.begin("proc.run", start_ns=t0_ns)
    log.finish(log.begin("proc.startup", start_ns=t0_ns))
    sample: Dict[str, Any] = {
        "workload": spec.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": args.traced,
        "t0_ns": t0_ns,
        "error": None,
        "checkpoint_bytes": 0,
    }
    with log.span("proc.import"):
        import repro.cli  # noqa: F401  (what ``python -m repro`` loads)
    _note_rss_after(sample)
    if args.traced:
        install_wrappers(log, sample)
    try:
        _run(args, spec, log, sample)
    except Exception as error:
        # reported as a failed repetition with the exception text and
        # where it was raised — e.g. a seed whose world does not build
        frame = traceback.extract_tb(error.__traceback__)[-1]
        sample["error"] = (
            f"{type(error).__name__}: {error} "
            f"({Path(frame.filename).name}:{frame.lineno} in {frame.name}; "
            f"scale={args.scale} seed={args.seed})"
        )
    log.finish(root)
    sample["root_end_ns"] = log.end[root]
    sample["span_count"] = len(log)
    sample["spans"] = aggregate(log)
    if args.traced:
        sample["wrapper_ns"] = wrapper_cost_ns()
        exchanges = sorted(log.durations_ns("net.query_dns"))
        if exchanges:
            sample["net_exchange_us"] = {
                "p50": exchanges[len(exchanges) // 2] / 1e3,
                "p99": exchanges[(len(exchanges) * 99) // 100] / 1e3,
            }
    sample["last_ns"] = time.perf_counter_ns()
    with os.fdopen(args.sample_fd, "w", encoding="utf-8") as side:
        side.write(json.dumps(sample) + "\n")
    return EXIT_FAILED if sample["error"] else 0


if __name__ == "__main__":
    sys.exit(main())

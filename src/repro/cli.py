"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artifacts:

* ``run``        — full measurement, §5.1 overview summary;
* ``table1``     — suspicious-UR overview by record type;
* ``table2``     — hosting-strategy matrix by active probing;
* ``figures``    — Figure 2 and Figure 3(a)-(d) with paper comparisons;
* ``casestudies``— the §5.3 case studies;
* ``defenses``   — score reputation vs direct-resolution monitoring;
* ``validate``   — the §4.2 zero-false-negative check;
* ``chaos``      — replay chaos scenarios through the robustness
  invariant checker (all bundled scripts, or one via
  ``--chaos-script``);
* ``plan``       — print the deterministic stage-1 scan-plan summary
  (unit counts, nameserver groups) without running
  a single query; ``--json`` dumps it machine-readably, ``--diff
  OLD.json`` compares against a saved dump, and ``--result-store``
  explains which groups a warm run would replay vs re-execute;
* ``trace summarize FILE`` — render a ``--trace-out`` JSONL as a
  per-stage span tree with event counters.

Shared options: ``--seed``, ``--scale {small,default,paper}``,
``--post-disclosure``, ``--mx`` (future-work MX sweep).

Resilience options: ``--checkpoint-dir`` writes per-stage JSON
checkpoints (and, under ``groups/``, every UR nameserver group as it
completes), ``--resume`` continues a killed run from the last completed
stage — a killed stage 1 from its last completed group — and the
``--*-fault-rate`` knobs inject seeded data-source faults for chaos
testing.  ``--run-deadline``/``--stage-deadline`` bound the
run in virtual seconds (exhausted budgets shed remaining queries into
the loss ledger), ``--hedge-delay`` reads every retry timer from the
server's measured round trip (its value: the hedge timer of an
unmeasured server, its ceiling afterwards), ``--aimd`` adapts the
per-server send rate to timeouts, and ``--chaos-script`` applies a
declarative fault scenario before the run.

Incremental options: ``--result-store DIR`` persists each nameserver
group's merged stage-1 outcome content-addressed by its query units and
keyed by everything else it is a function of — zone serials, provider
policy, scan-shaping config, the fault profiles installed on its server
and the time anchors they or a run deadline read; later runs replay
unchanged groups from the store (byte-identical report) and re-execute
only the dirty ones, clean, lossy and chaos runs alike.

Observability options: ``--trace-out PATH`` streams the run's event bus
(:mod:`repro.obs`) to a JSONL file, ``--metrics-out PATH`` writes the
consolidated metrics document, and ``-q`` silences routine stderr
diagnostics (stdout stays machine-readable either way).

Exit codes (stable contract, relied on by CI):

* 0 — clean run, or degraded-but-complete (a warning banner goes to
  stderr so operators notice without breaking scripted callers);
* 1 — the requested validation failed (nonzero false-negative rate);
* 2 — usage or configuration error;
* 3 — the pipeline aborted mid-stage (checkpoints, if enabled, were
  kept for ``--resume``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3

from .analysis import (
    PAPER_FIGURE3A,
    PAPER_FIGURE3B,
    PAPER_FIGURE3C,
    PAPER_FIGURE3D,
    all_case_studies,
    build_table1,
    build_table2,
    compare_to_paper,
    figure2,
    figure3a,
    figure3b,
    figure3c,
    figure3d,
    overview_funnel,
)
from .core import HunterConfig, URHunter
from .defense import evaluate_defenses
from .dns.rdata import RRType
from .hosting import TABLE2_PROVIDERS
from .intel.aggregator import ThreatIntelAggregator
from .net.scanpath import ScanPathMetrics
from .obs import (
    Reporter,
    RunTrace,
    Verbosity,
    build_metrics_document,
    summarize_trace,
)
from .obs.summarize import TraceFormatError
from .pipeline import (
    CheckpointError,
    CheckpointStore,
    FaultPlan,
    FlakyIPInfo,
    FlakyPassiveDNS,
    FlakyVendor,
    PipelineError,
    PipelineRunner,
    StageFailed,
)
from .scenario import (
    ScenarioConfig,
    build_world,
    paper_scale_config,
    small_config,
)

_SCALES = {
    "small": small_config,
    "default": lambda seed: ScenarioConfig(seed=seed),
    "paper": paper_scale_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "URHunter reproduction: measure undelegated records on a "
            "simulated internet (IMC 2023)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="scenario seed (default 7)"
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="scenario size (default: default)",
    )
    parser.add_argument(
        "--post-disclosure",
        action="store_true",
        help="apply the providers' post-disclosure mitigations (§6)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="with 'run': print the complete evaluation document",
    )
    parser.add_argument(
        "--mx",
        action="store_true",
        help="also sweep MX records (the paper's future-work extension)",
    )
    engine = parser.add_argument_group(
        "scan engine", "stage-1 collection fault tolerance"
    )
    engine.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="re-sends after a query times out (default 2)",
    )
    engine.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="virtual seconds before a query is declared lost (default 5)",
    )
    engine.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "inject uniform query loss with probability P in [0, 1) "
            "(deterministic per --seed; default 0, no loss)"
        ),
    )
    incremental = parser.add_argument_group(
        "incremental", "group-result store and warm re-scans"
    )
    incremental.add_argument(
        "--result-store",
        metavar="DIR",
        default=None,
        help=(
            "persist per-nameserver-group stage-1 outcomes in DIR and "
            "replay unchanged groups on later runs (warm re-scan; the "
            "report stays byte-identical to a cold run; a group is "
            "keyed by its server's state, the scan config and the "
            "faults injected on it, so lossy and chaos runs replay "
            "their own slots and never another profile's)"
        ),
    )
    planning = parser.add_argument_group(
        "plan", "scan-plan inspection ('plan' command)"
    )
    planning.add_argument(
        "--json",
        action="store_true",
        dest="plan_json",
        help=(
            "with 'plan': print the machine-readable plan summary "
            "(save it to compare against a later plan with --diff)"
        ),
    )
    planning.add_argument(
        "--diff",
        metavar="OLD.json",
        dest="plan_diff",
        default=None,
        help=(
            "with 'plan': diff the current plan against a saved --json "
            "dump (added/removed/changed groups); exits 2 on malformed "
            "input"
        ),
    )
    resilience = parser.add_argument_group(
        "resilience", "checkpointing, resumption, and chaos injection"
    )
    resilience.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "write per-stage JSON checkpoints into DIR, and every UR "
            "nameserver group as it completes into DIR/groups"
        ),
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the checkpoints in --checkpoint-dir, "
            "re-running only stages without a completed snapshot (and "
            "of a killed stage 1 only the groups it had not completed)"
        ),
    )
    resilience.add_argument(
        "--intel-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject threat-intel vendor faults with probability P",
    )
    resilience.add_argument(
        "--pdns-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject passive-DNS faults with probability P",
    )
    resilience.add_argument(
        "--ipinfo-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject IP-metadata faults with probability P",
    )
    resilience.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="RNG seed for the injected data-source faults (default 0)",
    )
    resilience.add_argument(
        "--run-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "virtual-seconds budget for the whole run; once exhausted, "
            "remaining queries are shed (recorded, never silently "
            "dropped; omit for no deadline)"
        ),
    )
    resilience.add_argument(
        "--stage-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "virtual-seconds budget per pipeline phase "
            "(omit for no deadline)"
        ),
    )
    resilience.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "retry on the server's measured round trip (SRTT + 4 RTTVAR, "
            "doubled per expiry, at most --timeout), not timeout+backoff; "
            "SECONDS is the hedge timer of an unmeasured server and its "
            "ceiling afterwards (below --timeout; omit to disable hedging)"
        ),
    )
    resilience.add_argument(
        "--aimd",
        action="store_true",
        help=(
            "adapt the per-server send rate on timeouts: a cut halves "
            "it, an answer restores a quarter (no-op on healthy runs). "
            "The rate is the lane's own -- the configured per-server "
            "pacing, or unpaced the server's observed round trip -- so "
            "this trades scan time for politeness in proportion to the "
            "configured pacing"
        ),
    )
    resilience.add_argument(
        "--chaos-script",
        metavar="NAME|PATH",
        default=None,
        help=(
            "apply a chaos scenario before the run: a bundled name "
            "(see the 'chaos' command) or a JSON script path"
        ),
    )
    observability = parser.add_argument_group(
        "observability", "trace/metrics artifacts and stderr verbosity"
    )
    observability.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the run's event bus as JSONL to PATH (deterministic "
            "section first, timing section after; inspect with "
            "'repro trace summarize PATH')"
        ),
    )
    observability.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write the consolidated metrics document (versioned JSON, "
            "deterministic and timing sections) to PATH"
        ),
    )
    observability.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress routine stderr diagnostics (errors/warnings stay)",
    )
    parser.add_argument(
        "command",
        choices=(
            "run",
            "table1",
            "table2",
            "figures",
            "casestudies",
            "defenses",
            "validate",
            "chaos",
            "plan",
        ),
        help="what to produce",
    )
    return parser


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    config = _SCALES[args.scale](args.seed)
    config.post_disclosure = args.post_disclosure
    return config


def _hunter_config(args: argparse.Namespace) -> HunterConfig:
    config = HunterConfig(
        retries=args.retries,
        timeout=args.timeout,
        run_deadline=args.run_deadline or 0.0,
        stage_deadline=args.stage_deadline or 0.0,
        hedge_delay=args.hedge_delay or 0.0,
        aimd=args.aimd,
    )
    if args.mx:
        config.query_types = (RRType.A, RRType.TXT, RRType.MX)
    return config


def _scenario_fingerprint(args: argparse.Namespace) -> str:
    """Everything outside HunterConfig that shapes the measurement —
    resuming under a different world must be rejected, not merged."""
    return (
        f"scale={args.scale},seed={args.seed},"
        f"post={args.post_disclosure},mx={args.mx},"
        f"loss={args.loss_rate},intel={args.intel_fault_rate},"
        f"pdns={args.pdns_fault_rate},ipinfo={args.ipinfo_fault_rate},"
        f"fseed={args.fault_seed},chaos={args.chaos_script}"
    )


def _apply_faults(args: argparse.Namespace, world, hunter: URHunter) -> None:
    """Wrap the stage-2/3 data sources in seeded fault injectors."""
    if args.intel_fault_rate:
        vendors = [
            FlakyVendor(
                vendor,
                FaultPlan(
                    seed=args.fault_seed + index,
                    error_rate=args.intel_fault_rate,
                ),
            )
            for index, vendor in enumerate(world.vendors)
        ]
        hunter.intel = ThreatIntelAggregator(vendors)
    if args.pdns_fault_rate and world.pdns is not None:
        hunter.pdns = FlakyPassiveDNS(
            world.pdns,
            FaultPlan(
                seed=args.fault_seed + 101,
                error_rate=args.pdns_fault_rate,
            ),
        )
    if args.ipinfo_fault_rate:
        # stage 2 only: stage-1 profile building keeps the clean source
        hunter.stage2_ipinfo = FlakyIPInfo(
            world.ipinfo,
            FaultPlan(
                seed=args.fault_seed + 202,
                error_rate=args.ipinfo_fault_rate,
            ),
        )


def _trace_command(argv: List[str], reporter: Reporter) -> int:
    """Handle ``repro trace summarize FILE`` (dispatched before the main
    parser: the trace tools need no scenario options)."""
    if len(argv) != 2 or argv[0] != "summarize":
        reporter.error("usage: repro trace summarize FILE")
        return EXIT_USAGE
    try:
        print(summarize_trace(argv[1]))
    except OSError as error:
        reporter.error(f"error: cannot read trace: {error}")
        return EXIT_USAGE
    except TraceFormatError as error:
        reporter.error(f"error: {error}")
        return EXIT_USAGE
    return EXIT_OK


def _write_metrics(
    path: str,
    report,
    runner: PipelineRunner,
    hunter: URHunter,
    incremental=None,
) -> None:
    """Write the consolidated ``--metrics-out`` document."""
    document = build_metrics_document(
        report,
        fingerprint=runner._fingerprint(),
        scan_path=ScanPathMetrics.from_network(hunter.network),
        incremental=incremental,
    )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def _plan_command(
    args: argparse.Namespace,
    hunter: URHunter,
    reporter: Reporter,
    result_store,
) -> int:
    """Handle ``repro plan``: text summary, ``--json`` dump, ``--diff``
    against a saved dump, and — with ``--result-store`` — the would-
    replay/would-execute explanation for a warm run (no scan has run,
    so there is no epoch yet: groups whose key reads the clock are
    listed as ``time-anchored``)."""
    from .incremental import (
        PlanDiffer,
        PlanSummaryError,
        diff_plan_summaries,
        load_plan_summary,
        plan_summary_json,
        render_plan_diff,
    )

    summary = plan_summary_json(hunter.plan)
    if args.plan_diff is not None:
        try:
            old = load_plan_summary(args.plan_diff)
        except PlanSummaryError as error:
            reporter.error(f"error: {error}")
            return EXIT_USAGE
        print(render_plan_diff(diff_plan_summaries(old, summary)))
        return EXIT_OK
    if args.plan_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    print(hunter.plan.summary())
    if result_store is not None:
        differ = PlanDiffer(result_store)
        providers = {
            target.address: target.provider
            for target in hunter.nameservers
        }
        diff = differ.partition(
            hunter.plan, hunter.network, hunter.config, providers
        )
        reasons: dict = {}
        for decision in diff.decisions:
            if decision.action == "execute":
                reasons[decision.reason] = (
                    reasons.get(decision.reason, 0) + 1
                )
        detail = ", ".join(
            f"{count} {reason}"
            for reason, count in sorted(reasons.items())
        )
        print(
            f"result store: {diff.hits} groups would replay, "
            f"{diff.dirty} would execute"
            + (f" ({detail})" if detail else "")
        )
        for decision in diff.decisions:
            # stale groups are the actionable ones: their nameserver
            # state moved since the stored outcome was written
            if decision.reason == "stale":
                print(f"  stale: {decision.server_ip}")
    return EXIT_OK


def _chaos_command(args: argparse.Namespace, reporter: Reporter) -> int:
    """Handle ``repro chaos``: replay scenarios through the invariant
    checker (small worlds, each scenario replayed twice)."""
    from .resilience.invariants import (
        InvariantViolation,
        check_clean_baseline,
        check_scenario,
    )
    from .resilience.scenario import (
        BUNDLED_SCENARIOS,
        ScenarioError,
        load_scenario,
    )

    if args.chaos_script:
        try:
            scripts = [load_scenario(args.chaos_script)]
        except ScenarioError as error:
            reporter.error(f"error: {error}")
            return EXIT_USAGE
    else:
        scripts = list(BUNDLED_SCENARIOS)
    try:
        check_clean_baseline(seed=args.seed)
        print("clean-baseline: resilience on == off (byte-identical)")
        for script in scripts:
            verdict = check_scenario(script, seed=args.seed)
            print(verdict.summary())
    except InvariantViolation as error:
        reporter.error(f"error: invariant violated: {error}")
        return EXIT_VALIDATION_FAILED
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list and arg_list[0] == "trace":
        return _trace_command(arg_list[1:], Reporter())
    args = build_parser().parse_args(arg_list)
    reporter = Reporter(Verbosity.QUIET if args.quiet else Verbosity.NORMAL)
    if args.resume and not args.checkpoint_dir:
        reporter.error("error: --resume requires --checkpoint-dir")
        return EXIT_USAGE
    # explicit non-positive values on count/duration knobs are always a
    # mistake (omit the flag to disable the feature) — reject loudly
    for option, value in (
        ("--run-deadline", args.run_deadline),
        ("--stage-deadline", args.stage_deadline),
        ("--hedge-delay", args.hedge_delay),
    ):
        if value is not None and value <= 0:
            reporter.error(
                f"error: {option} must be > 0, got {value} "
                f"(omit the flag to disable)"
            )
            return EXIT_USAGE
    if args.command == "chaos":
        return _chaos_command(args, reporter)
    try:
        hunter_config = _hunter_config(args)
    except ValueError as error:
        reporter.error(f"error: {error}")
        return EXIT_USAGE
    result_store = None
    if args.result_store:
        from .incremental import GroupResultStore, StoreFormatError

        try:
            result_store = GroupResultStore(args.result_store)
        except StoreFormatError as error:
            reporter.error(f"error: {error}")
            return EXIT_USAGE
    reporter.info(
        f"# scenario: scale={args.scale} seed={args.seed} "
        f"post_disclosure={args.post_disclosure} mx={args.mx} "
        f"loss_rate={args.loss_rate}"
    )
    world = build_world(_scenario(args))
    if args.loss_rate:
        if not 0.0 <= args.loss_rate < 1.0:
            reporter.error(
                f"error: --loss-rate must be in [0, 1), "
                f"got {args.loss_rate}"
            )
            return EXIT_USAGE
        world.network.inject_faults(
            loss_rate=args.loss_rate, seed=args.seed
        )

    if args.command == "table2":
        table = build_table2(
            [world.providers[provider] for provider in TABLE2_PROVIDERS],
            world.root,
        )
        print(table.text)
        return EXIT_OK

    hunter = URHunter.from_world(world, hunter_config)

    try:
        _apply_faults(args, world, hunter)
    except ValueError as error:
        reporter.error(f"error: {error}")
        return EXIT_USAGE
    if args.chaos_script:
        from .resilience.scenario import (
            ScenarioError,
            apply_scenario,
            load_scenario,
        )

        try:
            script = load_scenario(args.chaos_script)
            installed = apply_scenario(script, world, hunter)
        except ScenarioError as error:
            reporter.error(f"error: {error}")
            return EXIT_USAGE
        reporter.info(
            f"# chaos: {script.name} ({installed} fault bindings)"
        )

    if args.command == "plan":
        # pure plan inspection: the plan was built in the constructor
        # and no packet has moved; the faults a run under these flags
        # would scan under are installed, so the replay forecast keys
        # exactly as that run will
        return _plan_command(args, hunter, reporter, result_store)

    hunter.result_store = result_store

    trace = RunTrace(args.trace_out) if args.trace_out else None
    if trace is not None:
        hunter.attach_trace(trace)
    store = (
        CheckpointStore(args.checkpoint_dir)
        if args.checkpoint_dir
        else None
    )
    runner = PipelineRunner(
        hunter,
        store=store,
        resume=args.resume,
        scenario_fingerprint=_scenario_fingerprint(args),
    )
    needs_validation = args.command in ("run", "validate")
    try:
        result = runner.run(validate=needs_validation)
    except CheckpointError as error:
        reporter.error(f"error: {error}")
        return EXIT_ABORTED
    except (StageFailed, PipelineError) as error:
        reporter.error(f"error: {error}")
        if store is not None:
            reporter.warn(
                "checkpoints kept; rerun with --resume to continue"
            )
        return EXIT_ABORTED
    finally:
        # an aborted run still leaves its partial trace behind —
        # finalize() is idempotent and rewrites on every call
        if trace is not None:
            trace.finalize()
    report = result.report
    if result_store is not None:
        result_store.write_stats()
        stats = result_store.stats
        reporter.info(
            f"# result store: {stats['hits']} hits, "
            f"{stats['misses']} misses, "
            f"{stats['invalidated']} invalidated, "
            f"{stats['stored']} stored"
        )
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            report,
            runner,
            hunter,
            incremental=(
                result_store.stats if result_store is not None else None
            ),
        )
    if result.resumed:
        reporter.info(
            f"# resumed from checkpoint: {', '.join(result.resumed)}"
        )
    if report.is_degraded:
        degraded = report.degraded
        reporter.warn(
            "warning: degraded run — sources: "
            + (", ".join(degraded.degraded_source_names) or "none")
            + f"; unverifiable URs: {degraded.unverifiable_urs}"
        )
    if report.stage2_metrics is not None:
        # stderr, not stdout: wall-clock throughput varies run to run and
        # would break the byte-compared resume transcripts
        perf = report.stage2_metrics
        reporter.info(
            f"# stage-2 perf: {perf.records_per_s:,.0f} records/s  "
            f"wall={perf.wall_s * 1000:.1f}ms"
        )

    if args.command == "run":
        if args.full:
            from .analysis import render_full_report

            nameserver_provider = {
                target.address: target.provider
                for target in world.nameserver_targets
            }
            print(
                render_full_report(
                    report,
                    sandbox_reports=world.sandbox_reports,
                    nameserver_provider=nameserver_provider,
                    world=world,
                )
            )
        else:
            funnel = overview_funnel(report)
            for key, value in funnel.items():
                print(f"{key:12} {value:,}")
            print()
            print(report.summary())
    elif args.command == "table1":
        print(build_table1(report).text)
    elif args.command == "figures":
        print(figure2(report).text)
        for figure, paper in (
            (figure3a(report), PAPER_FIGURE3A),
            (figure3b(report), PAPER_FIGURE3B),
            (figure3c(report), PAPER_FIGURE3C),
            (figure3d(report), PAPER_FIGURE3D),
        ):
            print()
            print(figure.text)
            print(compare_to_paper(figure.series, paper))
    elif args.command == "casestudies":
        nameserver_provider = {
            target.address: target.provider
            for target in world.nameserver_targets
        }
        cases = all_case_studies(
            report, world.sandbox_reports, nameserver_provider
        )
        for case_name, case in cases.items():
            print(f"[{case_name}] {case.summary()}")
    elif args.command == "defenses":
        scores = evaluate_defenses(world)
        for score in scores.values():
            print(score.summary())
    elif args.command == "validate":
        print(
            f"false-negative rate on delegated records: "
            f"{report.false_negative_rate:.4f} (paper: 0.0)"
        )
        return (
            EXIT_OK
            if report.false_negative_rate == 0.0
            else EXIT_VALIDATION_FAILED
        )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

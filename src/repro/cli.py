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

The run flags are read once, into a :class:`~repro.runspec.RunSpec`.
Fault options: ``--chaos-script`` applies a declarative fault scenario
before the run; ``--loss-rate`` and the ``--*-fault-rate`` knobs
(seeded by ``--fault-seed``) are sugar for its ``loss`` and
``source-flaky`` windows.

Resilience options: ``--checkpoint-dir`` stores every UR nameserver
group of stage 1 under ``groups/`` as it completes, ``--resume``
re-runs the pipeline over that directory — each stored group replays
instead of re-querying its server, the preamble and stages 2 and 3 run
live.  ``--run-deadline``/``--stage-deadline`` bound the
run in virtual seconds (exhausted budgets shed remaining queries into
the loss ledger), ``--hedge-delay`` reads every retry timer from the
server's measured round trip (its value: the hedge timer of an
unmeasured server, its ceiling afterwards), and ``--aimd`` adapts the
per-server send rate to timeouts.

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
from .core import URHunter
from .defense import evaluate_defenses
from .hosting import TABLE2_PROVIDERS
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
    PipelineError,
    PipelineRunner,
    StageFailed,
)
from .resilience.scenario import BUNDLED_SCENARIOS, ScenarioError
from .runspec import SCALES, RunSpec
from .scenario import build_world


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
        choices=sorted(SCALES),
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
            "inject uniform query loss with probability P in [0, 1): "
            "a network-wide 'loss' window ahead of --chaos-script's "
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
            "checkpoint stage 1 into DIR: every UR nameserver group as "
            "it completes, into DIR/groups"
        ),
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from --checkpoint-dir: every stored UR group "
            "replays, the rest of stage 1 and stages 2 and 3 re-run"
        ),
    )
    resilience.add_argument(
        "--intel-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "inject threat-intel vendor faults with probability P: a "
            "'source-flaky' window on source intel"
        ),
    )
    resilience.add_argument(
        "--pdns-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "inject passive-DNS faults with probability P: a "
            "'source-flaky' window on source pdns"
        ),
    )
    resilience.add_argument(
        "--ipinfo-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "inject IP-metadata faults with probability P: a "
            "'source-flaky' window on source ipinfo"
        ),
    )
    resilience.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help=(
            "seed of the 'source-flaky' windows the --*-fault-rate "
            "flags compile to (default 0)"
        ),
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
            "(see the 'chaos' command) or a JSON script path; the "
            "fault-rate flags' windows run ahead of its own"
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


def _plan_command(
    args: argparse.Namespace,
    hunter: URHunter,
    reporter: Reporter,
    result_store,
    providers,
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
        # each stored payload is dropped as soon as it is read
        decisions = [
            decision
            for decision, _ in differ.partition(
                hunter.plan, hunter.network, hunter.config, providers
            )
        ]
        reasons: dict = {}
        for decision in decisions:
            if decision.action == "execute":
                reasons[decision.reason] = (
                    reasons.get(decision.reason, 0) + 1
                )
        detail = ", ".join(
            f"{count} {reason}"
            for reason, count in sorted(reasons.items())
        )
        dirty = sum(reasons.values())
        print(
            f"result store: {len(decisions) - dirty} groups would "
            f"replay, {dirty} would execute"
            + (f" ({detail})" if detail else "")
        )
        for decision in decisions:
            # stale groups are the actionable ones: their nameserver
            # state moved since the stored outcome was written
            if decision.reason == "stale":
                print(f"  stale: {decision.server_ip}")
    return EXIT_OK


def _chaos_command(spec: RunSpec, reporter: Reporter) -> int:
    """Handle ``repro chaos``: replay the run's fault script — every
    bundled scenario when it has no windows — through the invariant
    checker (small worlds, each scenario replayed twice)."""
    from .resilience.invariants import (
        InvariantViolation,
        check_clean_baseline,
        check_scenario,
    )

    scripts = (
        [spec.faults] if spec.faults.windows else list(BUNDLED_SCENARIOS)
    )
    seed = spec.scenario.seed
    try:
        check_clean_baseline(seed=seed)
        print("clean-baseline: resilience on == off (byte-identical)")
        for script in scripts:
            verdict = check_scenario(script, seed=seed)
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
    try:
        spec = RunSpec.from_args(args)
    except ValueError as error:
        reporter.error(f"error: {error}")
        return EXIT_USAGE
    if args.command == "chaos":
        return _chaos_command(spec, reporter)
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
    if spec.faults.windows:
        reporter.info(
            f"# faults: {spec.faults.name} "
            f"({len(spec.faults.windows)} windows)"
        )
    if args.command == "table2":
        # active probing of the providers: no hunter, no faults
        world = build_world(spec.scenario)
        table = build_table2(
            [world.providers[provider] for provider in TABLE2_PROVIDERS],
            world.root,
        )
        print(table.text)
        return EXIT_OK
    try:
        world, hunter = spec.build()
    except ScenarioError as error:
        reporter.error(f"error: {error}")
        return EXIT_USAGE

    nameserver_provider = {
        target.address: target.provider
        for target in world.nameserver_targets
    }
    if args.command == "plan":
        # pure plan inspection: the plan was built in the constructor
        # and no packet has moved; the faults a run under these flags
        # would scan under are installed, so the replay forecast keys
        # exactly as that run will
        return _plan_command(
            args, hunter, reporter, result_store, nameserver_provider
        )

    hunter.result_store = result_store

    trace = RunTrace(args.trace_out) if args.trace_out else None
    if trace is not None:
        hunter.attach_trace(trace)
    store = (
        CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    runner = PipelineRunner(
        hunter,
        store=store,
        resume=args.resume,
        scenario_fingerprint=spec.fingerprint(),
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
        document = build_metrics_document(
            report,
            fingerprint=runner._fingerprint(),
            scan_path=ScanPathMetrics.from_network(hunter.network),
            incremental=None if result_store is None else result_store.stats,
        )
        target = Path(args.metrics_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(document, indent=2, sort_keys=True)
        target.write_text(text + "\n")
    if args.resume:
        reporter.info(
            "# resumed from checkpoint: "
            f"{hunter.result_store.stats['hits']} UR groups replayed"
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

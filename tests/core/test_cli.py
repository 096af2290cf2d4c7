"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 7
        assert args.scale == "default"
        assert not args.post_disclosure
        assert not args.mx

    def test_all_flags(self):
        args = build_parser().parse_args(
            [
                "--seed",
                "42",
                "--scale",
                "small",
                "--post-disclosure",
                "--mx",
                "table1",
            ]
        )
        assert args.seed == 42
        assert args.scale == "small"
        assert args.post_disclosure and args.mx

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_engine_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.retries == 2
        assert args.timeout == 5.0
        assert args.loss_rate == 0.0

    def test_engine_flags(self):
        args = build_parser().parse_args(
            [
                "--retries",
                "4",
                "--timeout",
                "2.5",
                "--loss-rate",
                "0.1",
                "run",
            ]
        )
        assert args.retries == 4
        assert args.timeout == 2.5
        assert args.loss_rate == 0.1

    @pytest.mark.parametrize(
        "flag",
        [
            "--engine=batched",
            "--max-concurrency=8",
            "--no-scan-cache",
            "--no-stage2-memoize",
        ],
    )
    def test_deleted_flags_are_unknown_arguments(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "run"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_describes_one_engine(self):
        text = build_parser().format_help()
        for word in ("batched", "sequential", "lanes"):
            assert word not in text


BASE = ["--scale", "small", "--seed", "9"]


class TestCommands:
    def test_run(self, capsys):
        assert main(BASE + ["run"]) == 0
        out = capsys.readouterr().out
        assert "unique_urs" in out
        assert "malicious" in out

    def test_table1(self, capsys):
        assert main(BASE + ["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(BASE + ["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Cloudflare" in out

    def test_run_prints_scan_metrics(self, capsys):
        assert main(BASE + ["run"]) == 0
        out = capsys.readouterr().out
        assert "scan engine metrics:" in out
        assert "[ur]" in out

    def test_run_with_injected_loss(self, capsys):
        assert main(BASE + ["--loss-rate", "0.05", "run"]) == 0
        captured = capsys.readouterr()
        assert "retries:" in captured.out
        assert (
            "# scenario: scale=small seed=9 post_disclosure=False "
            "mx=False loss_rate=0.05\n"
        ) in captured.err

    def test_bad_loss_rate_rejected(self, capsys):
        assert main(BASE + ["--loss-rate", "1.5", "run"]) == 2

    def test_bad_engine_knob_exits_cleanly(self, capsys):
        assert main(BASE + ["--retries", "-1", "run"]) == 2
        assert "retries" in capsys.readouterr().err

    def test_figures(self, capsys):
        assert main(BASE + ["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 3(d)" in out
        assert "paper" in out

    def test_casestudies(self, capsys):
        assert main(BASE + ["casestudies"]) == 0
        out = capsys.readouterr().out
        assert "Dark.IoT" in out
        assert "SPF-masquerade" in out

    def test_defenses(self, capsys):
        assert main(BASE + ["defenses"]) == 0
        out = capsys.readouterr().out
        assert "reputation-based" in out
        assert "direct-resolution" in out

    def test_validate_exit_code(self, capsys):
        assert main(BASE + ["validate"]) == 0
        assert "false-negative" in capsys.readouterr().out

    def test_mx_flag_changes_sweep(self, capsys):
        assert main(BASE + ["--mx", "table1"]) == 0
        # The MX sweep sends 50% more queries; just assert it ran.
        assert "Table 1" in capsys.readouterr().out


class TestObservability:
    def test_trace_and_metrics_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            BASE
            + [
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
                "run",
            ]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert lines[0]["event"] == "trace.header"
        assert any(line["event"] == "run.end" for line in lines)
        document = json.loads(metrics.read_text())
        assert set(document) == {"format", "deterministic", "timing"}
        # stdout is unchanged by the artifact flags
        assert "unique_urs" in capsys.readouterr().out

    def test_quiet_hides_diagnostics_keeps_stdout(self, capsys):
        assert main(BASE + ["-q", "run"]) == 0
        captured = capsys.readouterr()
        assert "# scenario" not in captured.err
        assert "# stage-2 perf" not in captured.err
        assert "unique_urs" in captured.out

    def test_quiet_keeps_degradation_warning(self, capsys):
        code = main(BASE + ["-q", "--pdns-fault-rate", "0.6", "run"])
        assert code == 0
        assert "warning: degraded" in capsys.readouterr().err

    def test_verbose_shows_scenario_banner(self, capsys):
        assert main(BASE + ["-v", "run"]) == 0
        assert "# scenario" in capsys.readouterr().err

    def test_quiet_and_verbose_conflict(self, capsys):
        assert main(BASE + ["-q", "-v", "run"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_trace_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(BASE + ["--trace-out", str(trace), "-q", "run"]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        for marker in ("stage1-collect", "stage2-exclude", "run.end"):
            assert marker in out
        # where the virtual time went: one line per stage-1 phase
        table = out[out.index("virtual time:"):].splitlines()
        assert "in 4 phases" in table[0]
        assert [line.split()[0] for line in table[1:5]] == [
            "protective", "correct", "ur", "sample",
        ]
        assert all("critical=10." in line for line in table[1:5])

    def test_trace_summarize_missing_file(self, capsys):
        assert main(["trace", "summarize", "/nonexistent/t.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_bad_usage(self, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "frobnicate", "x"]) == 2
        assert "usage: repro trace summarize" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_json_round_trips(self, tmp_path, capsys):
        assert main(BASE + ["-q", "plan", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        assert len(payload["plan"]) == 64
        assert payload["groups"]
        assert all("identity" in group for group in payload["groups"])

    def test_plan_diff_identical(self, tmp_path, capsys):
        assert main(BASE + ["-q", "plan", "--json"]) == 0
        dump = tmp_path / "plan.json"
        dump.write_text(capsys.readouterr().out)
        assert main(BASE + ["-q", "plan", "--diff", str(dump)]) == 0
        assert "plans are identical" in capsys.readouterr().out

    def test_plan_diff_other_seed(self, tmp_path, capsys):
        assert main(BASE + ["-q", "plan", "--json"]) == 0
        dump = tmp_path / "plan.json"
        dump.write_text(capsys.readouterr().out)
        assert (
            main(
                ["--scale", "small", "--seed", "10", "-q"]
                + ["plan", "--diff", str(dump)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plans are identical" not in out
        assert "changed" in out

    def test_plan_diff_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 99}')
        assert main(BASE + ["-q", "plan", "--diff", str(bad)]) == 2
        assert "plan summary" in capsys.readouterr().err

    def test_plan_diff_missing_file_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(BASE + ["-q", "plan", "--diff", str(absent)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_plan_explains_result_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(BASE + ["-q", "plan", "--result-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "would replay" in out
        assert "would execute" in out

    def test_plan_forecast_agrees_with_the_run(self, tmp_path, capsys):
        """``plan --result-store`` keys each group exactly as ``run``
        under the same flags will: against a clean-populated store a
        lossy plan promises no replay (it used to promise all 139), and
        once the lossy run has stored its own slots, every one."""
        store = tmp_path / "store"
        flags = ["--result-store", str(store), "-q"]
        assert main(BASE + flags + ["run"]) == 0

        def forecast_then_hits(extra):
            capsys.readouterr()
            assert main(BASE + extra + flags + ["plan"]) == 0
            forecast = re.search(
                r"result store: (\d+) groups would replay",
                capsys.readouterr().out,
            )
            assert main(BASE + extra + flags + ["run"]) == 0
            stats = json.loads((store / "store-stats.json").read_text())
            return int(forecast.group(1)), stats["hits"]

        lossy = ["--loss-rate", "0.05"]
        assert forecast_then_hits([]) == (139, 139)
        assert forecast_then_hits(lossy) == (0, 0)
        assert forecast_then_hits(lossy) == (139, 139)

    def test_plan_names_the_groups_whose_key_needs_an_epoch(
        self, tmp_path, capsys
    ):
        argv = BASE + ["--result-store", str(tmp_path / "store"), "-q"]
        for flags in (
            ["--run-deadline", "20"],
            ["--chaos-script", "tail-latency-storm"],
        ):
            assert main(argv + flags + ["plan"]) == 0
            assert (
                "result store: 0 groups would replay, 140 would execute "
                "(139 time-anchored, 1 uncacheable)"
            ) in capsys.readouterr().out


class TestResultStore:
    def test_warm_run_is_byte_identical_and_counted(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        metrics = tmp_path / "metrics.json"
        flags = ["--result-store", str(store), "-q", "run"]
        assert main(BASE + flags) == 0
        cold_out = capsys.readouterr().out
        assert main(
            BASE + ["--metrics-out", str(metrics)] + flags
        ) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        document = json.loads(metrics.read_text())
        counters = document["timing"]["incremental"]
        assert counters["hits"] > 0
        assert counters["misses"] == counters["stored"] == 0
        stats = json.loads((store / "store-stats.json").read_text())
        assert stats["hits"] == counters["hits"]

    def test_cold_store_run_prints_the_plain_report(
        self, tmp_path, capsys
    ):
        """Attaching an empty store changes nothing on stdout — scan
        metrics and latency line included — and populates the store."""
        store = tmp_path / "store"
        assert main(BASE + ["-q", "run"]) == 0
        plain = capsys.readouterr().out
        assert "latency p50" in plain
        assert (
            main(BASE + ["--result-store", str(store), "-q", "run"]) == 0
        )
        assert capsys.readouterr().out == plain
        assert list(store.glob("group-*.json"))

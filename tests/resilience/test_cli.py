"""CLI hardening: non-positive knobs exit 2; chaos plumbing works."""

import json

import pytest

from repro import cli


def _run(argv):
    return cli.main(argv)


class TestKnobValidation:
    """Explicit non-positive values are usage errors (exit 2), never
    silently clamped or passed through."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--channel-depth", "0"],
            ["--channel-depth", "-4"],
            ["--stage2-workers", "0"],
            ["--stage2-workers", "-1"],
            ["--checkpoint-every", "0"],
            ["--checkpoint-every", "-5"],
            ["--run-deadline", "0"],
            ["--run-deadline", "-10"],
            ["--stage-deadline", "0"],
            ["--hedge-delay", "0"],
            ["--hedge-delay", "-0.5"],
        ],
    )
    def test_non_positive_knob_exits_2(self, flags, capsys):
        assert _run(["--scale", "small", *flags, "run"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err

    def test_hedge_delay_at_or_above_timeout_exits_2(self, capsys):
        code = _run(
            [
                "--scale", "small",
                "--timeout", "5", "--hedge-delay", "5",
                "run",
            ]
        )
        assert code == cli.EXIT_USAGE
        assert "hedge_delay" in capsys.readouterr().err

    def test_unknown_chaos_script_exits_2(self, capsys):
        code = _run(
            ["--scale", "small", "--chaos-script", "no-such", "chaos"]
        )
        assert code == cli.EXIT_USAGE
        assert "no-such" in capsys.readouterr().err

    def test_run_with_unknown_chaos_script_exits_2(self, capsys):
        code = _run(
            ["--scale", "small", "--chaos-script", "no-such", "run"]
        )
        assert code == cli.EXIT_USAGE


class TestChaosRun:
    def test_chaos_script_run_sheds_nothing_but_degrades_gracefully(
        self, tmp_path, capsys
    ):
        # a full CLI run under the storm scenario: exits 0 (degradation
        # is not failure), resilience metrics land in the artifacts
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = _run(
            [
                "--scale", "small", "--seed", "7",
                "--chaos-script", "tail-latency-storm",
                "--hedge-delay", "0.25", "--aimd",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "-q", "run",
            ]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "resilience metrics:" in out
        document = json.loads(metrics.read_text())
        resilience = document["deterministic"]["resilience"]
        assert resilience["hedges_fired"] > 0
        # every shed/timeout is accounted: the trace's run.end closes
        run_end = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if '"run.end"' in line
        ][-1]
        assert run_end["unaccounted"] == 0

    def test_run_deadline_sheds_and_reports(self, capsys):
        # every phase lasts as long as its slowest server: 0.05 sim-s
        # of protective probes, then the correct records (2.64) and the
        # UR groups (0.70 to 2.00) side by side from the scan start — so
        # a 3 s run deadline cuts nothing, and 0.36 s cuts every UR
        # group and every open resolver's group short 0.31 s in (a 3 s
        # deadline did that to the UR groups alone while they started
        # 2.69 s in, after the correct collection)
        for mode in (
            [],
            ["--shards", "4"],
            ["--execution", "stream"],
            ["--shards", "4", "--shard-workers", "2"],
        ):
            code = _run(
                [
                    "--scale", "small", "--seed", "7",
                    "--run-deadline", "0.36",
                    *mode,
                    "-q", "run",
                ]
            )
            assert code == cli.EXIT_OK
            out = capsys.readouterr().out
            # shed queries surface in the scan metrics block: 8,980 of
            # the 13,482 UR queries and 695 of the 752 correct-record
            # lookups, however the groups are sharded, streamed or pooled
            assert "shed: 9,675" in out, mode
            assert "[correct] q=57 r=57" in out, mode
            assert "shed=695" in out and "shed=8,980" in out, mode

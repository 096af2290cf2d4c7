"""The CLI exit-code contract (satellite 6).

* 0 — clean, or degraded-but-complete (warning banner on stderr);
* 1 — validation failed;
* 2 — usage/configuration error;
* 3 — pipeline aborted.
"""

import pytest

from repro.cli import (
    EXIT_ABORTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    main,
)

SMALL = ["--scale", "small"]


class TestExitCodes:
    def test_contract_values(self):
        assert EXIT_OK == 0
        assert EXIT_VALIDATION_FAILED == 1
        assert EXIT_USAGE == 2
        assert EXIT_ABORTED == 3

    def test_clean_run_exits_zero_without_banner(self, capsys):
        assert main(SMALL + ["run"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: degraded" not in captured.err
        assert "unique URs classified" in captured.out

    def test_degraded_run_exits_zero_with_banner(self, capsys):
        code = main(
            SMALL
            + ["--intel-fault-rate", "0.9", "--fault-seed", "5", "run"]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: degraded" in captured.err
        assert "unique URs classified" in captured.out

    def test_validate_passes_on_clean_world(self, capsys):
        assert main(SMALL + ["validate"]) == EXIT_OK

    def test_resume_without_checkpoint_dir_is_usage_error(self, capsys):
        assert main(SMALL + ["--resume", "run"]) == EXIT_USAGE
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_bad_engine_config_is_usage_error(self, capsys):
        code = main(SMALL + ["--timeout", "0", "run"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_fault_rate_is_usage_error(self, capsys):
        code = main(SMALL + ["--intel-fault-rate", "1.5", "run"])
        assert code == EXIT_USAGE
        assert "error_rate" in capsys.readouterr().err

    def test_bad_loss_rate_is_usage_error(self, capsys):
        assert main(SMALL + ["--loss-rate", "1.5", "run"]) == EXIT_USAGE

    def test_resume_from_empty_directory_aborts(self, tmp_path, capsys):
        code = main(
            SMALL
            + ["--checkpoint-dir", str(tmp_path), "--resume", "run"]
        )
        assert code == EXIT_ABORTED
        assert "no manifest" in capsys.readouterr().err

    def test_resume_fingerprint_mismatch_aborts(self, tmp_path, capsys):
        assert (
            main(SMALL + ["--checkpoint-dir", str(tmp_path), "run"])
            == EXIT_OK
        )
        code = main(
            SMALL
            + [
                "--seed",
                "99",
                "--checkpoint-dir",
                str(tmp_path),
                "--resume",
                "run",
            ]
        )
        assert code == EXIT_ABORTED
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_checkpointed_run_then_resume_both_exit_zero(
        self, tmp_path, capsys
    ):
        args = SMALL + ["--checkpoint-dir", str(tmp_path)]
        assert main(args + ["run"]) == EXIT_OK
        capsys.readouterr()
        assert main(args + ["--resume", "run"]) == EXIT_OK
        assert "resumed from checkpoint" in capsys.readouterr().err

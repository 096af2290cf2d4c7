"""The CLI exit-code contract (satellite 6).

* 0 — clean, or degraded-but-complete (warning banner on stderr);
* 1 — validation failed;
* 2 — usage/configuration error;
* 3 — pipeline aborted.
"""

import json
import shutil

import pytest

from repro.cli import (
    EXIT_ABORTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION_FAILED,
    main,
)

SMALL = ["--scale", "small"]


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A completed small run's checkpoint directory (stage 1 and its
    groups)."""
    directory = tmp_path_factory.mktemp("checkpointed")
    assert main(SMALL + ["--checkpoint-dir", str(directory), "run"]) == 0
    return directory


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

    @pytest.mark.parametrize(
        "flag",
        [
            "--chaos-script",
            "--checkpoint-dir",
            "--result-store",
            "--trace-out",
            "--metrics-out",
        ],
    )
    def test_unusable_path_is_usage_error_before_any_work(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        def no_world(scenario):
            raise AssertionError("a world was built")

        monkeypatch.setattr("repro.runspec.build_world", no_world)
        regular = tmp_path / "regular-file"
        regular.write_text("")
        value = {
            "--chaos-script": tmp_path,
            "--checkpoint-dir": regular,
            "--result-store": regular,
            "--trace-out": regular / "trace.jsonl",
            "--metrics-out": regular / "metrics.json",
        }[flag]
        assert main(SMALL + [flag, str(value), "run"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["plan", "table2"])
    def test_read_only_command_creates_no_directory(
        self, command, tmp_path
    ):
        absent = tmp_path / "absent"
        paths = [
            "--checkpoint-dir", str(absent / "checkpoints"),
            "--result-store", str(absent / "store"),
            "--trace-out", str(absent / "out" / "trace.jsonl"),
            "--metrics-out", str(absent / "out" / "metrics.json"),
        ]
        assert main(SMALL + paths + [command]) == EXIT_OK
        assert not absent.exists()

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

    def test_resume_refuses_an_edited_chaos_script(self, tmp_path, capsys):
        """The manifest pins the script's content, not its path: the
        same ``--chaos-script`` argument over an edited file is another
        run, and resuming it would mix the two."""
        script = tmp_path / "brownout.json"

        def write_script(loss_rate):
            script.write_text(
                json.dumps(
                    {
                        "name": "brownout",
                        "windows": [
                            {
                                "kind": "resolver-brownout",
                                "params": {"loss_rate": loss_rate},
                            }
                        ],
                    }
                )
            )

        argv = SMALL + [
            "--chaos-script", str(script),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        write_script(0.2)
        assert main(argv + ["run"]) == EXIT_OK
        write_script(0.9)
        capsys.readouterr()
        assert main(argv + ["--resume", "run"]) == EXIT_ABORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fingerprint mismatch" in captured.err

    @pytest.mark.parametrize(
        "name, body",
        [
            ("manifest.json", "null"),
            ("manifest.json", "[]"),
        ],
    )
    def test_malformed_checkpoint_is_refused_naming_the_file(
        self, checkpointed, tmp_path, capsys, name, body
    ):
        """Valid JSON of the wrong shape is refused like an unreadable
        file: exit 3, one ``error:`` line naming it, no traceback."""
        directory = tmp_path / "ckpt"
        shutil.copytree(checkpointed, directory)
        (directory / name).write_text(body)
        code = main(
            SMALL + ["--checkpoint-dir", str(directory), "--resume", "run"]
        )
        assert code == EXIT_ABORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and str(directory / name) in errors[0]
        assert "Traceback" not in captured.err

    def test_previous_format_checkpoint_is_refused(
        self, checkpointed, tmp_path, capsys
    ):
        """A directory stamped with format 8, whose manifest fingerprint
        hashed the CLI flags' spelling (a chaos script by its path, not
        its content), is refused whole: exit 3, one ``error:`` line."""
        directory = tmp_path / "ckpt"
        shutil.copytree(checkpointed, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 8
        manifest_path.write_text(json.dumps(manifest))
        code = main(
            SMALL + ["--checkpoint-dir", str(directory), "--resume", "run"]
        )
        assert code == EXIT_ABORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "checkpoint format 8 != 9" in captured.err
        assert "Traceback" not in captured.err

    def test_checkpointed_run_then_resume_both_exit_zero(
        self, tmp_path, capsys
    ):
        args = SMALL + ["--checkpoint-dir", str(tmp_path)]
        assert main(args + ["run"]) == EXIT_OK
        capsys.readouterr()
        assert main(args + ["--resume", "run"]) == EXIT_OK
        assert "resumed from checkpoint" in capsys.readouterr().err

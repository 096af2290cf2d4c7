"""The run spec: the CLI's flags read once into (scenario, scan, faults).

* every flag is validated before a world is built;
* the fault-rate flags compile to script windows, ahead of the chaos
  script's, in one script seeded by it (else by ``--seed``);
* every field the spec carries reaches the checkpoint fingerprint.
"""

import copy
import dataclasses
import enum
import json
from types import SimpleNamespace

import pytest

from repro import runspec
from repro.cli import EXIT_USAGE, build_parser, main
from repro.core import HunterConfig
from repro.pipeline import PipelineRunner
from repro.resilience.scenario import (
    FaultWindow,
    ScenarioScript,
    load_scenario,
)
from repro.runspec import RunSpec
from repro.scenario import ScenarioConfig, small_config


def _spec(*flags):
    return RunSpec.from_args(build_parser().parse_args([*flags, "run"]))


class TestFromArgs:
    def test_rate_flags_compile_to_windows_ahead_of_the_script(self):
        spec = _spec(
            "--seed", "5",
            "--chaos-script", "tail-latency-storm",
            "--pdns-fault-rate", "0.2",
            "--loss-rate", "0.05",
            "--fault-seed", "4",
        )
        storm = load_scenario("tail-latency-storm")
        assert spec.faults == dataclasses.replace(
            storm,
            windows=(
                FaultWindow("loss", params={"loss_rate": 0.05}),
                FaultWindow(
                    "source-flaky",
                    params={"source": "pdns", "error_rate": 0.2, "seed": 4},
                ),
            )
            + storm.windows,
        )

    def test_without_a_script_the_flags_are_seeded_by_the_run_seed(self):
        spec = _spec("--seed", "5", "--loss-rate", "0.05")
        assert spec.faults.seed == 5
        assert _spec().faults.windows == ()

    def test_scale_mx_and_scan_knobs(self):
        spec = _spec(
            "--scale", "small", "--seed", "3", "--post-disclosure", "--mx",
            "--retries", "4", "--hedge-delay", "0.25", "--aimd",
        )
        expected = small_config(3)
        expected.post_disclosure = True
        assert spec.scenario == expected
        assert spec.scan.retries == 4
        assert spec.scan.hedge_delay == 0.25 and spec.scan.aimd
        assert len(spec.scan.query_types) == 3


class TestUsageErrorsBeforeAnyWork:
    """A bad flag exits 2 before the world is built."""

    @pytest.fixture
    def typo_script(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(
            json.dumps(
                {
                    "name": "typo",
                    "windows": [
                        {"kind": "resolver-brownout",
                         "params": {"los_rate": 0.2}}
                    ],
                }
            )
        )
        return str(path)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--loss-rate", "1.5"], "--loss-rate"),
            (["--intel-fault-rate", "1.5"], "error_rate"),
            (["--chaos-script", "nope"], "unknown scenario 'nope'"),
            (["--chaos-script", "TYPO"], "unknown params: los_rate"),
        ],
        ids=["loss-rate", "intel-fault-rate", "unknown-script", "typo"],
    )
    def test_bad_flag_exits_2_without_building_a_world(
        self, monkeypatch, capsys, typo_script, flags, message
    ):
        def no_world(config):
            raise AssertionError("a world was built")

        monkeypatch.setattr(runspec, "build_world", no_world)
        flags = [typo_script if flag == "TYPO" else flag for flag in flags]
        assert main(["--scale", "small", *flags, "run"]) == EXIT_USAGE
        assert message in capsys.readouterr().err


def test_table2_builds_no_hunter_and_installs_no_faults(tmp_path, capsys):
    """Table 2 probes the providers directly: a script that cannot
    compile against the world fails ``run`` but not ``table2``."""
    path = tmp_path / "ghost.json"
    path.write_text(
        json.dumps(
            {
                "name": "ghost",
                "windows": [
                    {"kind": "provider-outage",
                     "params": {"provider": "Ghost Hosting"}}
                ],
            }
        )
    )
    flags = ["--scale", "small", "--chaos-script", str(path)]
    assert main([*flags, "table2"]) == 0
    assert capsys.readouterr().out.startswith("Table 2:")
    assert main([*flags, "run"]) == EXIT_USAGE
    assert "no nameservers" in capsys.readouterr().err


def _perturbed(value):
    """A different value of the same shape as ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member != value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, (tuple, frozenset)):
        return type(value)(list(value)[:-1]) if value else ("perturbed",)
    if isinstance(value, dict):
        return {**value, "perturbed": 1}
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _with_field(instance, name, value):
    """A copy of ``instance`` with one field set, unvalidated: only the
    digest is under test."""
    changed = copy.copy(instance)
    object.__setattr__(changed, name, value)
    return changed


def _runner_fingerprint(spec):
    hunter = SimpleNamespace(
        config=spec.scan, plan=SimpleNamespace(plan_hash="plan")
    )
    runner = PipelineRunner(hunter, scenario_fingerprint=spec.fingerprint())
    return runner._fingerprint()


_WINDOW = FaultWindow(
    "provider-outage", start=1.0, duration=2.0, params={"loss_rate": 0.5}
)
_BASE = RunSpec(
    scenario=ScenarioConfig(),
    scan=HunterConfig(),
    faults=ScenarioScript(
        name="base", seed=3, description="d", windows=(_WINDOW,)
    ),
)


def _perturbations():
    """One spec per field of every dataclass the spec carries."""
    for part, cls in (("scenario", ScenarioConfig), ("scan", HunterConfig)):
        for field in dataclasses.fields(cls):
            instance = getattr(_BASE, part)
            changed = _with_field(
                instance, field.name, _perturbed(getattr(instance, field.name))
            )
            yield f"{cls.__name__}.{field.name}", dataclasses.replace(
                _BASE, **{part: changed}
            )
    for field in dataclasses.fields(ScenarioScript):
        script = _with_field(
            _BASE.faults,
            field.name,
            _perturbed(getattr(_BASE.faults, field.name)),
        )
        yield f"ScenarioScript.{field.name}", dataclasses.replace(
            _BASE, faults=script
        )
    for field in dataclasses.fields(FaultWindow):
        window = _with_field(
            _WINDOW, field.name, _perturbed(getattr(_WINDOW, field.name))
        )
        yield f"FaultWindow.{field.name}", dataclasses.replace(
            _BASE, faults=dataclasses.replace(_BASE.faults, windows=(window,))
        )


def test_every_field_reaches_the_runner_fingerprint():
    """A field added to any of the four dataclasses that no fingerprint
    sees would let a resume mix two runs; perturbing each one alone
    must move the manifest fingerprint."""
    base = _runner_fingerprint(_BASE)
    unseen = [
        name
        for name, spec in _perturbations()
        if _runner_fingerprint(spec) == base
    ]
    assert unseen == []
    assert len(list(_perturbations())) == (
        len(dataclasses.fields(ScenarioConfig))
        + len(dataclasses.fields(HunterConfig))
        + len(dataclasses.fields(ScenarioScript))
        + len(dataclasses.fields(FaultWindow))
    )

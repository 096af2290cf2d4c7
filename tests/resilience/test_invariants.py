"""The robustness contracts, exercised through the invariant checker.

CI's chaos-matrix job replays every bundled scenario; the tier-1 suite
keeps one representative scenario (plus the clean baseline, which is
the PR's headline acceptance criterion) so a regression is caught
before CI.
"""

import pytest

from repro.resilience.invariants import (
    InvariantViolation,
    check_clean_baseline,
    check_scenario,
)
from repro.resilience.scenario import FaultWindow, ScenarioScript, load_scenario


class TestCleanBaseline:
    def test_resilience_layer_is_a_noop_on_healthy_runs(self):
        # byte-identical reports with the resilience knobs on vs off
        check_clean_baseline(seed=7)


class TestScenarioReplay:
    def test_regional_partition_passes_the_matrix(self):
        verdict = check_scenario(load_scenario("regional-partition"))
        assert verdict.identical
        assert set(verdict.statuses) <= {"clean", "degraded"}
        assert all(count == 0 for count in verdict.unaccounted)
        assert len(verdict.replays) == 2
        summary = verdict.summary()
        assert "identical=yes" in summary

    def test_impossible_contract_is_reported(self):
        # a scenario that sheds *everything* still has to account for
        # it — prove the checker would catch a world with no
        # nameservers at all (compilation failure surfaces as a
        # violation, not a silent pass)
        script = ScenarioScript(
            name="ghost-provider",
            windows=(
                FaultWindow(
                    kind="provider-outage",
                    params={"provider": "Ghost Hosting"},
                ),
            ),
        )
        with pytest.raises(InvariantViolation, match="ghost-provider"):
            check_scenario(script)

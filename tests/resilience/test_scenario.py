"""Scenario scripts: parsing, round-trips, and compilation onto the
simulator's fault hooks."""

import dataclasses
import json

import pytest

from repro.resilience.scenario import (
    BUNDLED_SCENARIOS,
    FaultWindow,
    ScenarioError,
    ScenarioScript,
    apply_scenario,
    load_scenario,
)
from repro.pipeline import FlakyVendor
from repro.scenario import build_world, small_config


@pytest.fixture(scope="module")
def world():
    return build_world(small_config(seed=7))


class TestScriptParsing:
    def test_bundled_scripts_round_trip_through_json(self):
        for script in BUNDLED_SCENARIOS:
            text = json.dumps(dataclasses.asdict(script))
            assert ScenarioScript.from_json(text) == script

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault window"):
            FaultWindow(kind="meteor-strike")

    def test_unknown_script_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown script keys"):
            ScenarioScript.from_dict({"name": "x", "surprise": 1})

    def test_unknown_window_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown window keys"):
            FaultWindow.from_dict({"kind": "provider-outage", "oops": 1})

    def test_negative_window_rejected(self):
        with pytest.raises(ScenarioError):
            FaultWindow(kind="provider-outage", start=-1.0)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("loss", {"loss_rate": 0.1}),
            ("source-flaky", {"source": "intel", "error_rate": 1.0}),
        ],
    )
    @pytest.mark.parametrize(
        "timing", [{"start": 100.0}, {"duration": 5.0}]
    )
    def test_open_ended_kinds_reject_a_time_window(
        self, kind, params, timing
    ):
        """``loss`` and ``source-flaky`` faults are not on the network
        clock: a window on them would be ignored, so it is refused."""
        with pytest.raises(ScenarioError, match="start and duration"):
            FaultWindow.from_dict({"kind": kind, "params": params, **timing})

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("source-flaky", {"source": "dns"}, "source must be one of"),
            ("source-flaky", {}, "source must be one of"),
            ("source-flaky", {"source": "pdns", "error_rate": 2}, "error_rate"),
            ("source-flaky", {"source": "intel", "vendors": 3}, "unknown"),
            ("loss", {"loss_rate": 1.0}, r"loss_rate must be in \[0, 1\)"),
            ("tail-latency-storm", {"jitter": -1}, "latency_jitter"),
            ("resolver-brownout", {"loss_rate": "most"}, "could not convert"),
        ],
    )
    def test_bad_param_values_rejected_at_load(self, kind, params, message):
        with pytest.raises(ScenarioError, match=message):
            FaultWindow(kind=kind, params=params)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            ScenarioScript.from_json("{nope")
        with pytest.raises(ScenarioError, match="must be an object"):
            ScenarioScript.from_json("[1, 2]")


class TestLoadScenario:
    def test_bundled_names_resolve(self):
        for name in (script.name for script in BUNDLED_SCENARIOS):
            assert load_scenario(name).name == name

    def test_unknown_name_lists_the_bundle(self):
        with pytest.raises(ScenarioError, match="tail-latency-storm"):
            load_scenario("no-such-scenario")

    def test_json_path_loads(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(dataclasses.asdict(BUNDLED_SCENARIOS[0])))
        assert load_scenario(str(path)) == BUNDLED_SCENARIOS[0]

    def test_unreadable_path_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario"):
            load_scenario(str(tmp_path))


class TestCompilation:
    def test_unknown_params_rejected_at_load_time(self):
        with pytest.raises(ScenarioError, match="unknown params"):
            FaultWindow(kind="provider-outage", params={"provider_": "x"})

    def test_unknown_provider_rejected(self, world):
        script = ScenarioScript(
            name="ghost",
            windows=(
                FaultWindow(
                    kind="provider-outage",
                    params={"provider": "Ghost Hosting"},
                ),
            ),
        )
        with pytest.raises(ScenarioError, match="no nameservers"):
            apply_scenario(script, world)

    def test_provider_outage_targets_only_that_provider(self, world):
        world.network.clear_faults()
        apply_scenario(load_scenario("provider-outage"), world)
        expected = {
            target.address
            for target in world.nameserver_targets
            if target.provider == "Cloudflare"
        }
        assert set(world.network._fault_windows) == expected
        world.network.clear_faults()

    def test_storm_covers_every_nameserver(self, world):
        world.network.clear_faults()
        apply_scenario(load_scenario("tail-latency-storm"), world)
        assert set(world.network._fault_windows) == {
            target.address for target in world.nameserver_targets
        }
        world.network.clear_faults()

    def test_brownout_targets_open_resolvers(self, world):
        world.network.clear_faults()
        apply_scenario(load_scenario("resolver-brownout"), world)
        assert set(world.network._fault_windows) == set(
            world.open_resolver_ips
        )
        world.network.clear_faults()

    def test_windows_anchor_at_the_current_clock(self, world):
        world.network.clear_faults()
        script = ScenarioScript(
            name="late",
            windows=(
                FaultWindow(
                    kind="resolver-brownout", start=100.0, duration=50.0
                ),
            ),
        )
        apply_scenario(script, world)
        base = world.network.now
        windows = next(iter(world.network._fault_windows.values()))
        (window,) = windows
        assert window.start == base + 100.0
        assert window.duration == 50.0
        world.network.clear_faults()

    def test_vendor_flap_wraps_the_aggregator(self, world):
        class _HunterStub:
            intel = None

        hunter = _HunterStub()
        apply_scenario(load_scenario("intel-vendor-flap"), world, hunter)
        assert hunter.intel is not None
        assert hunter.intel is not world.intel
        assert len(hunter.intel.vendors) == len(world.vendors)
        assert all(
            isinstance(vendor, FlakyVendor) for vendor in hunter.intel.vendors
        )
        # no window seed: vendor i is seeded by the script's seed + i
        seeds = [vendor.plan.seed for vendor in hunter.intel.vendors]
        assert seeds == [23 + index for index in range(len(seeds))]

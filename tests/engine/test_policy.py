"""Tests for the engine API surface: policy validation."""

import pytest

from repro.engine import EnginePolicy


class TestEnginePolicyValidation:
    def test_defaults_valid(self):
        policy = EnginePolicy()
        assert policy.retries == 2
        assert policy.timeout == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"timeout": 0.0},
            {"timeout": -3.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"per_server_interval": -1.0},
            {"circuit_failure_threshold": 0},
            {"circuit_reset_interval": -5.0},
        ],
    )
    def test_bad_knob_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnginePolicy(**kwargs)

    def test_backoff_schedule_is_exponential(self):
        policy = EnginePolicy(backoff_base=0.5, backoff_factor=2.0)
        assert [policy.backoff_delay(n) for n in (1, 2, 3)] == [
            0.5,
            1.0,
            2.0,
        ]

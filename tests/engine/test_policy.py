"""Tests for the engine API surface: policy validation and backoff."""

import pytest

from repro.engine import EnginePolicy
from repro.engine.api import backoff_delay


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
            {"per_server_interval": -1.0},
        ],
    )
    def test_bad_knob_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnginePolicy(**kwargs)

    def test_backoff_schedule_is_exponential(self):
        assert [backoff_delay(n) for n in (1, 2, 3)] == [
            0.5,
            1.0,
            2.0,
        ]

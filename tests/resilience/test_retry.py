"""Tests for the shared retry machinery (backoff with decorrelated jitter)."""

import pytest

from repro.resilience import BackoffPolicy, decorrelated_jitter


class TestBackoffPolicy:
    def test_deterministic_schedule_without_jitter(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0, jitter="none")
        assert [policy.next_delay() for _ in range(5)] == [
            0.1, 0.2, 0.4, 0.8, 1.0  # exponential, clamped at the cap
        ]

    def test_reset_restarts_from_base(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, multiplier=2.0, jitter="none")
        policy.next_delay(), policy.next_delay()
        policy.reset()
        assert policy.next_delay() == 0.1

    def test_jittered_delays_stay_in_bounds(self):
        policy = BackoffPolicy(base=0.05, cap=2.0, seed=7)
        previous = policy.base
        for _ in range(50):
            delay = policy.next_delay()
            assert 0.05 <= delay <= 2.0
            previous = delay

    def test_seed_makes_jitter_reproducible(self):
        a = BackoffPolicy(seed=3)
        b = BackoffPolicy(seed=3)
        assert [a.next_delay() for _ in range(8)] == [
            b.next_delay() for _ in range(8)
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"base": -1.0},
            {"base": 2.0, "cap": 1.0},
            {"jitter": "gaussian"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_decorrelated_jitter_respects_cap(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            assert decorrelated_jitter(0.1, 1.5, 40.0, rng) <= 1.5


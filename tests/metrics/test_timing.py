"""Tests for the timing helpers."""

import math
import time

import numpy as np
import pytest

from repro.metrics import (
    Counters,
    IterationTimer,
    LatencyWindow,
    percentile,
)


class TestIterationTimer:
    def test_mean_and_total(self):
        timer = IterationTimer()
        for _ in range(3):
            with timer.iteration():
                time.sleep(0.005)
        assert len(timer.seconds) == 3
        assert timer.total_seconds >= 0.015
        assert timer.mean_seconds == pytest.approx(timer.total_seconds / 3)

    def test_empty_timer(self):
        timer = IterationTimer()
        assert timer.mean_seconds == 0.0
        assert timer.total_seconds == 0.0


class TestCounters:
    def test_add_and_get(self):
        counters = Counters()
        counters.add("hits")
        counters.add("hits", 4)
        assert counters.get("hits") == 5
        assert counters.get("never") == 0

    def test_ratio(self):
        counters = Counters()
        counters.add("hit", 3)
        counters.add("total", 4)
        assert counters.ratio("hit", "total") == 0.75
        assert counters.ratio("hit", "missing") == 0.0

    def test_snapshot_is_a_copy(self):
        counters = Counters()
        counters.add("x")
        snapshot = counters.snapshot()
        snapshot["x"] = 99
        assert counters.get("x") == 1


class TestPercentile:
    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(0)
        values = sorted(rng.standard_normal(137).tolist())
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(values, fraction) == pytest.approx(
                float(np.percentile(values, fraction * 100))
            )

    def test_single_element(self):
        assert percentile([3.5], 0.99) == 3.5

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_fraction_is_clamped(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -1.0) == 1.0
        assert percentile(values, 2.0) == 3.0


class TestLatencyWindow:
    def test_snapshot_summarises_samples(self):
        window = LatencyWindow()
        for ms in (1.0, 2.0, 3.0, 4.0):
            window.record(ms / 1e3)
        snapshot = window.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["window"] == 4
        assert snapshot["mean_ms"] == pytest.approx(2.5)
        assert snapshot["p50_ms"] == pytest.approx(2.5)
        assert snapshot["max_ms"] == pytest.approx(4.0)

    def test_window_is_bounded_but_count_is_total(self):
        window = LatencyWindow(maxlen=8)
        for _ in range(20):
            window.record(0.001)
        snapshot = window.snapshot()
        assert snapshot["count"] == 20
        assert snapshot["window"] == 8

    def test_measure_records_elapsed_time(self):
        window = LatencyWindow()
        with window.measure():
            time.sleep(0.005)
        snapshot = window.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["p50_ms"] >= 5.0

    def test_empty_snapshot_is_nan(self):
        snapshot = LatencyWindow().snapshot()
        assert snapshot["count"] == 0
        assert math.isnan(snapshot["mean_ms"])
        assert math.isnan(snapshot["p50_ms"])

"""Tests for the intermediate-data memory model and runtime tracker."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import OutOfMemoryError
from repro.metrics import BYTES_PER_FLOAT, MemoryModel, MemoryTracker, TensorAttributes
from repro.metrics.memory import run_with_traced_peak

#: Elements of an 8 MiB float64 array: far above the traced noise of a small call.
BIG = 1024 * 1024


@pytest.fixture
def attrs():
    return TensorAttributes(shape=(1000, 1000, 1000), ranks=(10, 10, 10), nnz=100_000)


class TestMemoryModel:
    def test_p_tucker_smallest(self, attrs):
        """Table III: P-Tucker has the smallest intermediate data of all methods."""
        model = MemoryModel(threads=4)
        p_tucker = model.p_tucker(attrs)
        for other in (
            model.p_tucker_cache(attrs),
            model.tucker_als(attrs),
            model.tucker_wopt(attrs),
            model.tucker_csf(attrs),
        ):
            assert p_tucker < other

    def test_p_tucker_scales_with_threads(self, attrs):
        assert MemoryModel(threads=8).p_tucker(attrs) == pytest.approx(
            8 * MemoryModel(threads=1).p_tucker(attrs)
        )

    def test_cache_scales_with_nnz(self):
        small = TensorAttributes((100, 100, 100), (5, 5, 5), nnz=1000)
        large = TensorAttributes((100, 100, 100), (5, 5, 5), nnz=10_000)
        model = MemoryModel()
        assert model.p_tucker_cache(large) == pytest.approx(
            10 * model.p_tucker_cache(small)
        )

    def test_wopt_grows_with_dimensionality_power(self):
        model = MemoryModel()
        small = TensorAttributes((100, 100, 100), (5, 5, 5), nnz=1000)
        large = TensorAttributes((1000, 1000, 1000), (5, 5, 5), nnz=1000)
        assert model.tucker_wopt(large) == pytest.approx(
            100 * model.tucker_wopt(small)
        )

    def test_s_hot_independent_of_dimensionality(self):
        model = MemoryModel()
        small = TensorAttributes((100, 100, 100), (5, 5, 5), nnz=1000)
        large = TensorAttributes((10**6,) * 3, (5, 5, 5), nnz=1000)
        assert model.s_hot(small) == pytest.approx(model.s_hot(large))

    def test_estimate_dispatch_and_aliases(self, attrs):
        model = MemoryModel()
        assert model.estimate("P-Tucker", attrs) == model.p_tucker(attrs)
        assert model.estimate("s-hotscan", attrs) == model.s_hot(attrs)
        assert model.estimate("HOOI", attrs) == model.tucker_als(attrs)

    def test_estimate_unknown_algorithm(self, attrs):
        with pytest.raises(KeyError):
            MemoryModel().estimate("magic", attrs)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            MemoryModel(threads=0)


class TestMemoryTracker:
    def test_peak_tracks_high_watermark(self):
        tracker = MemoryTracker()
        tracker.allocate(100)
        tracker.allocate(50)
        tracker.release(100)
        tracker.allocate(20)
        assert tracker.peak_bytes == 150
        assert tracker.current_bytes == 70

    def test_budget_enforced(self):
        tracker = MemoryTracker(budget_bytes=100)
        tracker.allocate(80)
        with pytest.raises(OutOfMemoryError) as excinfo:
            tracker.allocate(50, what="cache")
        assert excinfo.value.budget_bytes == 100
        assert "cache" in str(excinfo.value)

    def test_allocate_array_uses_float64(self):
        tracker = MemoryTracker()
        tracker.allocate_array((10, 10))
        assert tracker.peak_bytes == 100 * BYTES_PER_FLOAT

    def test_release_never_goes_negative(self):
        tracker = MemoryTracker()
        tracker.allocate(10)
        tracker.release(100)
        assert tracker.current_bytes == 0

    def test_release_all(self):
        tracker = MemoryTracker()
        tracker.allocate(10, "a")
        tracker.allocate(20, "b")
        tracker.release_all()
        assert tracker.current_bytes == 0
        assert tracker.allocations == {}

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker().allocate(-5)

    def test_peak_megabytes(self):
        tracker = MemoryTracker()
        tracker.allocate(2 * 1024 * 1024)
        assert tracker.peak_megabytes == pytest.approx(2.0)

    def test_allocations_by_label(self):
        tracker = MemoryTracker()
        tracker.allocate(10, "delta")
        tracker.allocate(5, "delta")
        tracker.release(3, "delta")
        assert tracker.allocations["delta"] == 12


class TestRunWithTracedPeak:
    @pytest.fixture(autouse=True)
    def not_tracing(self):
        was_tracing = tracemalloc.is_tracing()
        if was_tracing:  # pragma: no cover - only under a tracing runner
            tracemalloc.stop()
        yield
        if was_tracing:  # pragma: no cover
            tracemalloc.start()

    def test_returns_the_value_and_counts_an_array_built_inside(self):
        result, peak = run_with_traced_peak(lambda: float(np.ones(BIG).sum()))
        assert result == BIG
        assert peak >= BIG * BYTES_PER_FLOAT

    def test_memory_held_or_peaked_before_the_call_is_not_counted(self):
        tracemalloc.start()
        try:
            held = np.ones(BIG)
            np.ones(2 * BIG).sum()  # an earlier, higher peak
            _, peak = run_with_traced_peak(lambda: np.ones(16))
        finally:
            tracemalloc.stop()
        assert held.nbytes == BIG * BYTES_PER_FLOAT
        assert peak < BIG * BYTES_PER_FLOAT / 8

    @pytest.mark.parametrize("already_tracing", [False, True])
    def test_tracing_state_is_restored(self, already_tracing):
        if already_tracing:
            tracemalloc.start()
        try:
            run_with_traced_peak(lambda: None)
            assert tracemalloc.is_tracing() is already_tracing
        finally:
            tracemalloc.stop()

    def test_an_exception_propagates_and_tracing_stops(self):
        def fail():
            raise RuntimeError("fit failed")

        with pytest.raises(RuntimeError, match="fit failed"):
            run_with_traced_peak(fail)
        assert not tracemalloc.is_tracing()

"""Tests for the RowScheduler and the ParallelSimulator."""

import numpy as np
import pytest

from repro.core.row_update import InMemorySource
from repro.data.synthetic import random_sparse_tensor
from repro.parallel import ParallelSimulator, RowScheduler, efficiency


@pytest.fixture
def populated_scheduler(rng):
    scheduler = RowScheduler(n_threads=4, scheduling="dynamic")
    for _ in range(3):  # three modes
        scheduler.record_mode(rng.pareto(1.5, size=500) + 1.0)
    return scheduler


class TestRowScheduler:
    def test_serial_cost_is_sum_of_workloads_plus_overhead(self, rng):
        scheduler = RowScheduler(per_item_overhead=2.0)
        workload = rng.uniform(1, 5, size=50)
        scheduler.record_mode(workload)
        assert scheduler.serial_cost() == pytest.approx(workload.sum() + 2.0 * 50)

    def test_speedup_one_thread_is_one(self, populated_scheduler):
        assert populated_scheduler.speedup(1) == pytest.approx(1.0)

    def test_speedup_increases_with_threads(self, populated_scheduler):
        curve = populated_scheduler.speedup_curve([1, 2, 4, 8])
        values = list(curve.values())
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_speedup_bounded_by_thread_count(self, populated_scheduler):
        for threads in (2, 4, 8):
            assert populated_scheduler.speedup(threads) <= threads + 1e-9

    def test_dynamic_not_worse_than_static(self, populated_scheduler):
        comparison = populated_scheduler.scheduling_comparison(8)
        assert comparison["dynamic"] <= comparison["static"] + 1e-9

    def test_for_tensor_records_every_mode_of_every_iteration(self):
        """Each record is the row workload the fit's mode update sees."""
        # Mode 2 has more rows than entries, so it has empty rows.
        tensor = random_sparse_tensor((40, 30, 500), 300, seed=1)
        scheduler = RowScheduler.for_tensor(tensor, 2)
        assert len(scheduler.mode_workloads) == 6  # 2 iterations x 3 modes
        source = InMemorySource.build(tensor)
        for position, workload in enumerate(scheduler.mode_workloads):
            np.testing.assert_array_equal(
                workload, source.mode_segmentation(position % 3)[2]
            )

    def test_empty_scheduler(self):
        scheduler = RowScheduler()
        assert scheduler.makespan(4) == 0.0
        assert scheduler.speedup(4) == 1.0


class TestParallelSimulator:
    def test_speedup_near_linear_for_balanced_load(self, rng):
        scheduler = RowScheduler(n_threads=1)
        scheduler.record_mode(np.full(10_000, 3.0))
        simulator = ParallelSimulator(scheduler, serial_seconds=10.0, rank=5)
        estimate = simulator.estimate(10)
        assert estimate.speedup == pytest.approx(10.0, rel=0.05)

    def test_sync_overhead_limits_speedup(self, rng):
        scheduler = RowScheduler(n_threads=1)
        scheduler.record_mode(np.full(1000, 1.0))
        no_overhead = ParallelSimulator(scheduler, serial_seconds=1.0)
        with_overhead = ParallelSimulator(
            scheduler, serial_seconds=1.0, sync_overhead_seconds=0.05
        )
        assert with_overhead.estimate(16).speedup < no_overhead.estimate(16).speedup

    def test_memory_linear_in_threads(self, populated_scheduler):
        simulator = ParallelSimulator(populated_scheduler, serial_seconds=1.0, rank=10)
        assert simulator.memory_bytes(20) == pytest.approx(20 * simulator.memory_bytes(1))

    def test_scheduling_gain_at_least_one_for_skewed_load(self, rng):
        scheduler = RowScheduler(n_threads=1)
        scheduler.record_mode(rng.pareto(1.0, size=300) + 1.0)
        simulator = ParallelSimulator(scheduler, serial_seconds=2.0)
        assert simulator.scheduling_gain(8) >= 1.0

    def test_negative_serial_seconds_rejected(self, populated_scheduler):
        with pytest.raises(ValueError):
            ParallelSimulator(populated_scheduler, serial_seconds=-1.0)

    def test_efficiency_at_most_one(self, populated_scheduler):
        simulator = ParallelSimulator(populated_scheduler, serial_seconds=1.0)
        curve = simulator.speedup_curve([1, 2, 4, 8])
        for value in efficiency(curve).values():
            assert value <= 1.0 + 1e-9

    def test_estimate_reports_configuration(self, populated_scheduler):
        simulator = ParallelSimulator(populated_scheduler, serial_seconds=1.0)
        estimate = simulator.estimate(4, "static")
        assert estimate.n_threads == 4
        assert estimate.scheduling == "static"

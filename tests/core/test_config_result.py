"""Tests for PTuckerConfig validation and the TuckerResult/trace objects."""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig, TuckerResult
from repro.core.trace import ConvergenceTrace, IterationRecord
from repro.exceptions import ShapeError


class TestConfigValidation:
    def test_defaults_are_paper_defaults(self):
        config = PTuckerConfig()
        assert config.regularization == pytest.approx(0.01)
        assert config.max_iterations == 20
        assert config.truncation_rate == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"regularization": -1.0},
            {"max_iterations": 0},
            {"min_iterations": 0},
            {"min_iterations": 5, "max_iterations": 3},
            {"tolerance": -0.1},
            {"truncation_rate": 0.0},
            {"truncation_rate": 1.0},
            {"block_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ShapeError):
            PTuckerConfig(**kwargs)

    def test_resolve_ranks_broadcast(self):
        assert PTuckerConfig(ranks=(4,)).resolve_ranks(3) == (4, 4, 4)

    def test_resolve_ranks_explicit(self):
        assert PTuckerConfig(ranks=(2, 3, 4)).resolve_ranks(3) == (2, 3, 4)

    def test_resolve_ranks_mismatch(self):
        with pytest.raises(ShapeError):
            PTuckerConfig(ranks=(2, 3)).resolve_ranks(3)

    def test_with_updates_returns_new_config(self):
        base = PTuckerConfig()
        changed = base.with_updates(max_iterations=5)
        assert changed.max_iterations == 5
        assert base.max_iterations == 20


class TestTrace:
    def _record(self, i, err):
        return IterationRecord(iteration=i, reconstruction_error=err, loss=err**2, seconds=0.1)

    def test_relative_change(self):
        trace = ConvergenceTrace()
        trace.add(self._record(1, 10.0))
        trace.add(self._record(2, 9.0))
        assert trace.relative_change() == pytest.approx(0.1)

    def test_relative_change_single_record_is_inf(self):
        trace = ConvergenceTrace()
        trace.add(self._record(1, 10.0))
        assert trace.relative_change() == float("inf")

    def test_relative_change_zero_previous(self):
        trace = ConvergenceTrace()
        trace.add(self._record(1, 0.0))
        trace.add(self._record(2, 0.0))
        assert trace.relative_change() == 0.0

    def test_mean_iteration_seconds(self):
        trace = ConvergenceTrace()
        trace.add(self._record(1, 2.0))
        trace.add(self._record(2, 1.0))
        assert trace.mean_iteration_seconds == pytest.approx(0.1)

    def test_property_lists(self):
        trace = ConvergenceTrace()
        trace.add(self._record(1, 3.0))
        assert trace.errors == [3.0]
        assert trace.losses == [9.0]
        assert trace.n_iterations == 1

    def test_record_iteration_stop_rule(self):
        config = PTuckerConfig(max_iterations=4, min_iterations=3, tolerance=0.2)
        trace = ConvergenceTrace()
        # A small change before min_iterations does not stop the run.
        assert not trace.record_iteration(self._record(1, 10.0), config)
        assert not trace.record_iteration(self._record(2, 9.9), config)
        assert trace.record_iteration(self._record(3, 9.8), config)
        assert trace.converged
        assert trace.stop_reason == "relative error change below tolerance 0.2"

    def test_record_iteration_stops_at_max_iterations(self):
        config = PTuckerConfig(max_iterations=2, tolerance=0.0)
        trace = ConvergenceTrace()
        assert not trace.record_iteration(self._record(1, 10.0), config)
        assert trace.record_iteration(self._record(2, 5.0), config)
        assert not trace.converged
        assert trace.stop_reason == "reached max_iterations=2"


class TestTuckerResult:
    def test_summary_contains_key_facts(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        summary = result.summary()
        assert "P-Tucker" in summary
        assert "ranks=(3, 3, 3)" in summary

    def test_to_dense_shape(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        dense = result.to_dense()
        assert dense.shape == planted_small.tensor.shape

    def test_predict_tensor_matches_predict(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        via_tensor = result.predict_tensor(planted_small.tensor)
        via_indices = result.predict(planted_small.tensor.indices)
        np.testing.assert_allclose(via_tensor, via_indices)

    def test_core_nnz(self):
        core = np.zeros((2, 2))
        core[0, 0] = 1.0
        result = TuckerResult(core=core, factors=[np.ones((3, 2)), np.ones((4, 2))])
        assert result.core_nnz == 1
        assert result.shape == (3, 4)
        assert result.ranks == (2, 2)

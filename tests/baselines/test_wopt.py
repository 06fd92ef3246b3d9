"""Tests for the Tucker-wOpt baseline."""

import numpy as np
import pytest

from repro.baselines import TuckerWopt
from repro.core import PTuckerConfig
from repro.data import planted_tucker_tensor
from repro.exceptions import OutOfMemoryError


class TestTuckerWopt:
    def test_loss_decreases(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=8, seed=0, tolerance=0.0)
        result = TuckerWopt(config).fit(planted_small.tensor)
        assert result.trace.errors[-1] < result.trace.errors[0]

    def test_observed_entry_objective_ignores_missing_cells(self):
        """wOpt must fit the observed entries without being dragged to zero."""
        planted = planted_tucker_tensor(
            (15, 15, 15), (2, 2, 2), nnz=600, noise_level=0.0, seed=4
        )
        config = PTuckerConfig(ranks=(2, 2, 2), max_iterations=25, seed=0, tolerance=0.0)
        result = TuckerWopt(config).fit(planted.tensor)
        predictions = result.predict_tensor(planted.tensor)
        observed_mean = float(np.mean(planted.tensor.values))
        assert float(np.mean(predictions)) > 0.5 * observed_mean

    def test_dense_intermediates_tracked(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        result = TuckerWopt(config).fit(planted_small.tensor)
        cells = int(np.prod(planted_small.tensor.shape))
        assert result.memory.peak_bytes >= 3 * cells * 8

    def test_oom_on_tight_budget(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, seed=0, memory_budget_bytes=1000
        )
        with pytest.raises(OutOfMemoryError):
            TuckerWopt(config).fit(planted_small.tensor)

    def test_memory_exceeds_ptucker(self, planted_small):
        from repro.core import PTucker

        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        wopt = TuckerWopt(config).fit(planted_small.tensor)
        ptucker = PTucker(config).fit(planted_small.tensor)
        assert wopt.memory.peak_bytes > 100 * ptucker.memory.peak_bytes

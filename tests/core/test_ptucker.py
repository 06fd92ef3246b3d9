"""Unit and behaviour tests for the P-Tucker solver."""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig
from repro.data import random_sparse_tensor
from repro.exceptions import OutOfMemoryError, ShapeError
from repro.tensor.io import TensorEntryReader


class TestConvergence:
    def test_loss_monotonically_non_increasing(self, planted_small):
        """Theorem 2: the regularised loss never increases across iterations."""
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=6, seed=0, tolerance=0.0
        )
        result = PTucker(config).fit(planted_small.tensor)
        losses = result.trace.losses
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_error_decreases_substantially_on_planted_data(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=6, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        errors = result.trace.errors
        assert errors[-1] < 0.5 * errors[0]

    def test_converges_before_max_iterations_when_tolerance_loose(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=20, tolerance=0.05, seed=0
        )
        result = PTucker(config).fit(planted_small.tensor)
        assert result.trace.converged
        assert result.trace.n_iterations < 20

    def test_stop_reason_reported(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, tolerance=0.0, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        assert "max_iterations" in result.trace.stop_reason

    def test_4way_tensor(self, planted_4way):
        config = PTuckerConfig(ranks=(2, 2, 2, 2), max_iterations=4, seed=0)
        result = PTucker(config).fit(planted_4way.tensor)
        assert result.order == 4
        assert result.trace.errors[-1] < result.trace.errors[0]


class TestOutputContract:
    def test_shapes_and_ranks(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        assert result.shape == planted_small.tensor.shape
        assert result.ranks == (3, 3, 3)
        assert result.core.shape == (3, 3, 3)

    def test_single_rank_broadcasts(self, planted_small):
        config = PTuckerConfig(ranks=(3,), max_iterations=2, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        assert result.ranks == (3, 3, 3)

    def test_orthogonal_factors_after_fit(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        assert result.orthogonality_defect() < 1e-8

    def test_orthogonalization_preserves_error(self, planted_small):
        base = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, seed=0, orthogonalize=False
        )
        raw = PTucker(base).fit(planted_small.tensor)
        ortho = PTucker(base.with_updates(orthogonalize=True)).fit(planted_small.tensor)
        raw_error = raw.reconstruction_error(planted_small.tensor)
        ortho_error = ortho.reconstruction_error(planted_small.tensor)
        assert ortho_error == pytest.approx(raw_error, rel=1e-6)

    def test_deterministic_given_seed(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=5)
        first = PTucker(config).fit(planted_small.tensor)
        second = PTucker(config).fit(planted_small.tensor)
        np.testing.assert_allclose(first.core, second.core)
        for a, b in zip(first.factors, second.factors):
            np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self, planted_small):
        first = PTucker(PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=1)).fit(
            planted_small.tensor
        )
        second = PTucker(PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=2)).fit(
            planted_small.tensor
        )
        assert not np.allclose(first.core, second.core)

    def test_memory_tracking_optional(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, seed=0, track_memory=False
        )
        result = PTucker(config).fit(planted_small.tensor)
        assert result.memory is None


class TestRankValidation:
    """Every fit path refuses a rank its mode cannot hold, with one message."""

    @pytest.fixture
    def narrow_tensor(self):
        return random_sparse_tensor((30, 4, 20), 300, seed=3)

    def _fit(self, path, tensor, ranks, tmp_path):
        config = PTuckerConfig(ranks=ranks, max_iterations=1, seed=0)
        if path == "in-core":
            return PTucker(config).fit(tensor)
        if path == "shard_dir":
            return PTucker(config.with_updates(shard_dir=str(tmp_path))).fit(tensor)
        return PTucker(config).fit_streaming(TensorEntryReader(tensor))

    @pytest.mark.parametrize("path", ["in-core", "shard_dir", "streaming"])
    @pytest.mark.parametrize(
        "ranks, message",
        [((3, 6, 3), "rank 6 exceeds mode length 4"), ((3, 0, 3), "must be positive")],
    )
    def test_invalid_rank_is_refused(self, narrow_tensor, tmp_path, path, ranks, message):
        with pytest.raises(ShapeError, match=message):
            self._fit(path, narrow_tensor, ranks, tmp_path)
        if path != "streaming":
            # Refused before any store is built: no manifest, no mode dirs.
            assert list(tmp_path.iterdir()) == []

    def test_rank_equal_to_dimension_is_accepted(self, narrow_tensor, tmp_path):
        result = self._fit("in-core", narrow_tensor, (3, 4, 3), tmp_path)
        assert result.core.shape == (3, 4, 3)
        assert [f.shape for f in result.factors] == [(30, 3), (4, 4), (20, 3)]


class TestAccuracy:
    def test_recovers_planted_model_on_test_split(self, planted_small, rng):
        train, test = planted_small.tensor.split(0.9, rng=rng)
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=8, seed=0)
        result = PTucker(config).fit(train)
        rmse = result.test_rmse(test)
        spread = float(np.std(test.values))
        assert rmse < 0.5 * spread

    def test_prediction_interface(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=4, seed=0)
        result = PTucker(config).fit(planted_small.tensor)
        single = result.predict(planted_small.tensor.indices[0])
        batch = result.predict(planted_small.tensor.indices[:5])
        assert single.shape == (1,)
        assert batch.shape == (5,)
        np.testing.assert_allclose(batch[0], single[0])


class TestMemoryBudget:
    def test_tiny_budget_raises_oom(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, seed=0, memory_budget_bytes=8
        )
        with pytest.raises(OutOfMemoryError):
            PTucker(config).fit(planted_small.tensor)

    def test_generous_budget_ok(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3),
            max_iterations=2,
            seed=0,
            memory_budget_bytes=10 * 1024 * 1024,
        )
        result = PTucker(config).fit(planted_small.tensor)
        assert result.memory is not None
        assert result.memory.peak_bytes <= 10 * 1024 * 1024

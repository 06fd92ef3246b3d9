"""Tests for the P-Tucker-Sampled extension (sampling on observed entries)."""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig, PTuckerSampled
from repro.exceptions import ShapeError


class TestConfiguration:
    def test_rejects_invalid_fraction(self):
        with pytest.raises(ShapeError):
            PTuckerSampled(sample_fraction=0.0)
        with pytest.raises(ShapeError):
            PTuckerSampled(sample_fraction=1.5)

    def test_full_fraction_matches_plain_ptucker(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0, tolerance=0.0)
        exact = PTucker(config).fit(planted_small.tensor)
        sampled = PTuckerSampled(config, sample_fraction=1.0).fit(planted_small.tensor)
        np.testing.assert_allclose(exact.trace.errors, sampled.trace.errors, rtol=1e-9)


class TestBehaviour:
    def test_error_still_decreases_with_sampling(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=6, seed=0, tolerance=0.0)
        result = PTuckerSampled(config, sample_fraction=0.5).fit(planted_small.tensor)
        assert result.trace.errors[-1] < 0.6 * result.trace.errors[0]

    def test_accuracy_close_to_exact_for_moderate_sampling(self, planted_small, rng):
        train, test = planted_small.tensor.split(0.9, rng=rng)
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=8, seed=0, tolerance=0.0)
        exact_rmse = PTucker(config).fit(train).test_rmse(test)
        sampled_rmse = (
            PTuckerSampled(config, sample_fraction=0.7).fit(train).test_rmse(test)
        )
        assert sampled_rmse <= 2.5 * exact_rmse

    def test_error_measured_on_full_tensor(self, planted_small):
        """The trace error is Eq. (5) over all of Omega, not over the sample."""
        from repro.metrics.errors import reconstruction_error

        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, seed=0, tolerance=0.0, orthogonalize=False
        )
        result = PTuckerSampled(config, sample_fraction=0.4).fit(planted_small.tensor)
        recomputed = reconstruction_error(
            planted_small.tensor, result.core, result.factors
        )
        assert result.trace.errors[-1] == pytest.approx(recomputed, rel=1e-9)

    def test_result_records_sample_fraction(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        result = PTuckerSampled(config, sample_fraction=0.3).fit(planted_small.tensor)
        assert result.sample_fraction == pytest.approx(0.3)
        assert result.algorithm == "P-Tucker-Sampled"

    def test_fixed_sample_mode(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=4, seed=0, tolerance=0.0)
        result = PTuckerSampled(
            config, sample_fraction=0.5, resample_each_iteration=False
        ).fit(planted_small.tensor)
        assert result.trace.n_iterations == 4
        assert np.all(np.isfinite(result.core))

    def test_deterministic_given_seed(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=4, tolerance=0.0)
        first = PTuckerSampled(config, sample_fraction=0.5).fit(planted_small.tensor)
        second = PTuckerSampled(config, sample_fraction=0.5).fit(planted_small.tensor)
        np.testing.assert_allclose(first.trace.errors, second.trace.errors)

    def test_orthogonal_output(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0)
        result = PTuckerSampled(config, sample_fraction=0.5).fit(planted_small.tensor)
        assert result.orthogonality_defect() < 1e-8


class TestOutOfCoreRefusal:
    @pytest.mark.parametrize("fraction", [0.3, 0.5, 1.0])
    def test_shard_dir_refused_at_every_fraction(
        self, planted_small, tmp_path, fraction
    ):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=1, shard_dir=str(tmp_path / "s")
        )
        with pytest.raises(
            ShapeError,
            match="shard_dir streaming supports the base P-Tucker solver only",
        ):
            PTuckerSampled(config, sample_fraction=fraction).fit(
                planted_small.tensor
            )
        assert not (tmp_path / "s").exists()

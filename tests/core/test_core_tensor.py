"""Tests for core-tensor utilities: init, orthogonalisation, LS core, SparseCore."""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig, orthogonalize
from repro.core import core_tensor
from repro.core.core_tensor import (
    SparseCore,
    cholesky_qr2,
    initialize_core,
    initialize_factors,
)
from repro.exceptions import ShapeError
from repro.metrics.errors import reconstruction_error
from repro.tensor import sparse_reconstruct
from repro.tensor.dense import mode_product
from repro.tensor.operations import factor_rows_product


def least_squares_core(tensor, factors, regularization=1e-9):
    """Reference: the ridge least-squares core for fixed factors.

    The model value at an observed entry is linear in the core entries with
    per-entry weights ``Π_k a^(k)_{i_k j_k}`` (the rows of
    :func:`factor_rows_product` with ``skip=-1``).
    """
    ranks = tuple(int(np.asarray(f).shape[1]) for f in factors)
    design = factor_rows_product(tensor, list(factors), skip=-1)
    gram = design.T @ design + regularization * np.eye(design.shape[1])
    core_flat = np.linalg.solve(gram, design.T @ tensor.values)
    return core_flat.reshape(ranks)


def householder_orthogonalize(factors, core):
    """Reference: Eqs. (7)-(8) with LAPACK's Householder QR."""
    new_core = np.asarray(core, dtype=np.float64)
    new_factors = []
    for mode, factor in enumerate(factors):
        q_matrix, r_matrix = np.linalg.qr(factor)
        new_factors.append(q_matrix)
        new_core = mode_product(new_core, r_matrix, mode)
    return new_factors, new_core


def conditioned_factor(rng, rows, rank, condition):
    """A ``rows × rank`` factor whose singular values span ``condition``."""
    left, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
    return (left * np.logspace(0, -np.log10(condition), rank)) @ right.T


def predictions(core, factors, indices):
    """Model values at ``indices`` of a three-way Tucker model."""
    rows = [factor[indices[:, mode]] for mode, factor in enumerate(factors)]
    return np.einsum("abc,na,nb,nc->n", core, *rows)


class TestInitialization:
    def test_factor_shapes_and_range(self, rng):
        factors = initialize_factors((5, 6, 7), (2, 3, 4), rng)
        assert [f.shape for f in factors] == [(5, 2), (6, 3), (7, 4)]
        for factor in factors:
            assert factor.min() >= 0.0
            assert factor.max() < 1.0

    def test_core_shape_and_range(self, rng):
        core = initialize_core((2, 3, 4), rng)
        assert core.shape == (2, 3, 4)
        assert core.min() >= 0.0
        assert core.max() < 1.0

    def test_rank_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            initialize_factors((5, 6), (2, 2, 2), rng)


class TestOrthogonalize:
    def test_factors_become_orthonormal(self, rng):
        factors = [rng.uniform(size=(10, 3)), rng.uniform(size=(8, 2))]
        core = rng.uniform(size=(3, 2))
        new_factors, _ = orthogonalize(factors, core)
        for factor in new_factors:
            gram = factor.T @ factor
            np.testing.assert_allclose(gram, np.eye(factor.shape[1]), atol=1e-10)

    def test_reconstruction_unchanged(self, planted_small, rng):
        """Eq. (7)-(8): Q R push keeps G x_n A^(n) products identical."""
        tensor = planted_small.tensor
        factors = [rng.uniform(size=(d, 3)) for d in tensor.shape]
        core = rng.uniform(size=(3, 3, 3))
        before = sparse_reconstruct(tensor, core, factors)
        new_factors, new_core = orthogonalize(factors, core)
        after = sparse_reconstruct(tensor, new_core, new_factors)
        np.testing.assert_allclose(before, after, atol=1e-8)

    def test_error_unchanged(self, planted_small, rng):
        tensor = planted_small.tensor
        factors = [rng.uniform(size=(d, 3)) for d in tensor.shape]
        core = rng.uniform(size=(3, 3, 3))
        new_factors, new_core = orthogonalize(factors, core)
        assert reconstruction_error(tensor, core, factors) == pytest.approx(
            reconstruction_error(tensor, new_core, new_factors), rel=1e-9
        )


class TestCholeskyQR2:
    """The final step's CholeskyQR2 against an inline Householder reference."""

    def _problem(self, rng, first_factor):
        factors = [first_factor, rng.uniform(size=(9, 2)), rng.uniform(size=(7, 3))]
        core = rng.uniform(size=(first_factor.shape[1], 2, 3))
        indices = np.stack(
            [rng.integers(0, f.shape[0], size=200) for f in factors], axis=1
        )
        return factors, core, indices

    def _assert_orthonormal_and_preserved(self, factors, core, indices, atol):
        new_factors, new_core = orthogonalize(factors, core)
        for factor in new_factors:
            assert np.all(np.isfinite(factor))
            gram = factor.T @ factor
            np.testing.assert_allclose(gram, np.eye(factor.shape[1]), atol=atol)
        assert np.all(np.isfinite(new_core))
        before = predictions(core, factors, indices)
        after = predictions(new_core, new_factors, indices)
        np.testing.assert_allclose(
            after, before, rtol=1e-9, atol=1e-12 * np.abs(before).max()
        )
        return new_factors, new_core

    def test_well_conditioned_factor_matches_householder_up_to_signs(self, rng):
        factor = rng.uniform(size=(2000, 8))
        q_and_r = cholesky_qr2(factor)
        assert q_and_r is not None
        q_matrix, r_matrix = q_and_r
        np.testing.assert_array_equal(np.tril(r_matrix, -1), 0.0)
        assert np.all(np.diag(r_matrix) > 0)
        reference_q, reference_r = np.linalg.qr(factor)
        signs = np.sign(np.diag(reference_r))
        np.testing.assert_allclose(q_matrix, reference_q * signs, rtol=0, atol=1e-12)
        factors, core, indices = self._problem(rng, factor)
        new_factors, _ = self._assert_orthonormal_and_preserved(
            factors, core, indices, atol=1e-12
        )
        np.testing.assert_array_equal(new_factors[0], q_matrix)

    def test_second_pass_orthogonalizes_a_moderately_conditioned_factor(self, rng):
        factor = conditioned_factor(rng, 500, 8, condition=1e6)
        q_matrix, r_matrix = cholesky_qr2(factor)
        gram = q_matrix.T @ q_matrix
        np.testing.assert_allclose(gram, np.eye(8), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_matrix @ r_matrix, factor, rtol=0, atol=1e-12)

    def test_ill_conditioned_factor_falls_back_to_householder(self, rng):
        factor = conditioned_factor(rng, 500, 8, condition=1e10)
        assert cholesky_qr2(factor) is None
        factors, core, indices = self._problem(rng, factor)
        new_factors, new_core = self._assert_orthonormal_and_preserved(
            factors, core, indices, atol=1e-10
        )
        reference_q, _ = np.linalg.qr(factor)
        np.testing.assert_array_equal(new_factors[0], reference_q)

    def test_orthogonality_bound_selects_the_fallback(self, rng, monkeypatch):
        factors, core, _ = self._problem(rng, rng.uniform(size=(40, 4)))
        monkeypatch.setattr(core_tensor, "ORTHOGONALITY_TOLERANCE", -1.0)
        new_factors, new_core = orthogonalize(factors, core)
        reference_factors, reference_core = householder_orthogonalize(factors, core)
        np.testing.assert_array_equal(new_core, reference_core)
        for mine, reference in zip(new_factors, reference_factors):
            np.testing.assert_array_equal(mine, reference)

    def test_rank_deficient_factor_gives_no_nan(self, rng):
        factor = rng.uniform(size=(50, 5))
        factor[:, 3] = factor[:, 1]
        factors, core, indices = self._problem(rng, factor)
        self._assert_orthonormal_and_preserved(factors, core, indices, atol=1e-10)

    def test_square_factor(self, rng):
        factor = rng.uniform(size=(6, 6)) + 3 * np.eye(6)
        assert cholesky_qr2(factor) is not None
        factors, core, indices = self._problem(rng, factor)
        self._assert_orthonormal_and_preserved(factors, core, indices, atol=1e-12)

    def test_fewer_rows_than_columns_is_refused(self, rng):
        factors, core, _ = self._problem(rng, rng.uniform(size=(3, 4)))
        with pytest.raises(ShapeError, match="factor 0 has 3 rows and rank 4"):
            orthogonalize(factors, core)

    def test_fit_predictions_match_householder(self, planted_small):
        tensor = planted_small.tensor
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0)
        raw = PTucker(config.with_updates(orthogonalize=False)).fit(tensor)
        fitted = PTucker(config).fit(tensor)
        new_factors, new_core = orthogonalize(raw.factors, raw.core)
        np.testing.assert_array_equal(fitted.core, new_core)
        for mine, expected in zip(fitted.factors, new_factors):
            np.testing.assert_array_equal(mine, expected)
        assert fitted.orthogonality_defect() < 1e-12
        reference_factors, reference_core = householder_orthogonalize(
            raw.factors, raw.core
        )
        mine = predictions(fitted.core, fitted.factors, tensor.indices)
        reference = predictions(reference_core, reference_factors, tensor.indices)
        np.testing.assert_allclose(mine, reference, rtol=1e-9, atol=0)


class TestLeastSquaresCore:
    def test_improves_or_matches_reconstruction(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, seed=0, orthogonalize=False
        )
        result = PTucker(config).fit(planted_small.tensor)
        refit = least_squares_core(planted_small.tensor, result.factors)
        original_error = reconstruction_error(
            planted_small.tensor, result.core, result.factors
        )
        refit_error = reconstruction_error(
            planted_small.tensor, refit, result.factors
        )
        assert refit_error <= original_error + 1e-6

    def test_exact_on_noiseless_planted_data(self, rng):
        from repro.data import planted_tucker_tensor

        planted = planted_tucker_tensor(
            (15, 12, 10), (2, 2, 2), nnz=800, noise_level=0.0, seed=9
        )
        core = least_squares_core(planted.tensor, list(planted.factors))
        predictions = sparse_reconstruct(planted.tensor, core, list(planted.factors))
        np.testing.assert_allclose(predictions, planted.tensor.values, atol=1e-6)


class TestSparseCore:
    def test_roundtrip(self, rng):
        dense = rng.uniform(size=(3, 3, 3))
        dense[dense < 0.5] = 0.0
        sparse = SparseCore.from_dense(dense)
        np.testing.assert_allclose(sparse.to_dense(), dense)
        assert sparse.nnz == int(np.count_nonzero(dense))

    def test_drop(self, rng):
        dense = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        sparse = SparseCore.from_dense(dense)
        dropped = sparse.drop(np.array([0, 1]))
        assert dropped.nnz == sparse.nnz - 2

    def test_empty_core(self):
        sparse = SparseCore.from_dense(np.zeros((2, 2)))
        assert sparse.nnz == 0
        np.testing.assert_allclose(sparse.to_dense(), np.zeros((2, 2)))

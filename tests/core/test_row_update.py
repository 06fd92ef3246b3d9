"""Unit tests for the row-wise update kernel (Eqs. 9-12)."""

import numpy as np
import pytest

from repro.core import PTuckerConfig
from repro.core.row_update import (
    brute_force_row_update,
    build_all_mode_contexts,
    build_mode_context,
    solve_rows,
    update_factor_mode,
)
from repro.kernels.microbench import (
    accumulate_normal_equations,
    compute_delta_block,
    core_unfolding,
)
from repro.metrics.errors import regularized_loss
from repro.metrics.memory import MemoryTracker
from repro.tensor import SparseTensor


@pytest.fixture
def setup_small(rng):
    """A small tensor plus random factors/core for kernel-level checks."""
    shape, ranks = (8, 7, 6), (3, 2, 2)
    nnz = 60
    indices = np.stack(
        [rng.integers(0, dim, size=nnz) for dim in shape], axis=1
    )
    tensor = SparseTensor(indices, rng.uniform(0.5, 1.5, size=nnz), shape).deduplicate()
    factors = [rng.uniform(0.1, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(0.1, 1.0, size=ranks)
    return tensor, factors, core


class TestModeContext:
    def test_row_segments_cover_all_entries(self, setup_small):
        tensor, _, _ = setup_small
        for mode in range(3):
            ctx = build_mode_context(tensor, mode)
            assert int(ctx.row_counts.sum()) == tensor.nnz
            # Each segment's entries really have that row index.
            for pos, row in enumerate(ctx.row_ids):
                start = ctx.row_starts[pos]
                stop = start + ctx.row_counts[pos]
                assert np.all(ctx.sorted_indices[start:stop, mode] == row)

    def test_contexts_for_all_modes(self, setup_small):
        tensor, _, _ = setup_small
        contexts = build_all_mode_contexts(tensor)
        assert len(contexts) == tensor.order
        assert [c.mode for c in contexts] == [0, 1, 2]


class TestDelta:
    def test_delta_matches_bruteforce_definition(self, setup_small):
        tensor, factors, core = setup_small
        mode = 1
        unfolded = core_unfolding(core, mode)
        deltas = compute_delta_block(tensor.indices, factors, unfolded, mode)
        # Brute force Eq. (12) for a handful of entries.
        for entry in (0, 5, 17):
            idx = tensor.indices[entry]
            expected = np.zeros(core.shape[mode])
            for beta in np.ndindex(*core.shape):
                weight = core[beta]
                for k in range(3):
                    if k == mode:
                        continue
                    weight *= factors[k][idx[k], beta[k]]
                expected[beta[mode]] += weight
            np.testing.assert_allclose(deltas[entry], expected)

    def test_core_unfolding_shape(self, setup_small):
        _, _, core = setup_small
        for mode in range(3):
            unfolded = core_unfolding(core, mode)
            assert unfolded.shape[0] == core.shape[mode]
            assert unfolded.size == core.size

    def test_prediction_identity(self, setup_small):
        """Model prediction equals <delta_alpha, a^(n)_{i_n,:}> for any mode."""
        tensor, factors, core = setup_small
        from repro.tensor import sparse_reconstruct

        predictions = sparse_reconstruct(tensor, core, factors)
        for mode in range(3):
            unfolded = core_unfolding(core, mode)
            deltas = compute_delta_block(tensor.indices, factors, unfolded, mode)
            via_delta = np.sum(
                deltas * factors[mode][tensor.indices[:, mode]], axis=1
            )
            np.testing.assert_allclose(via_delta, predictions, atol=1e-10)


class TestNormalEquations:
    def test_accumulation_matches_manual_sum(self, rng):
        deltas = rng.standard_normal((10, 3))
        values = rng.standard_normal(10)
        segments = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 2])
        b_matrices, c_vectors = accumulate_normal_equations(deltas, values, segments, 3)
        for segment in range(3):
            rows = segments == segment
            expected_b = sum(np.outer(d, d) for d in deltas[rows])
            expected_c = sum(v * d for v, d in zip(values[rows], deltas[rows]))
            np.testing.assert_allclose(b_matrices[segment], expected_b)
            np.testing.assert_allclose(c_vectors[segment], expected_c)

    def test_solve_rows_solves_systems(self, rng):
        b_matrices = rng.standard_normal((4, 3, 3))
        b_matrices = np.einsum("nij,nkj->nik", b_matrices, b_matrices)  # SPD
        c_vectors = rng.standard_normal((4, 3))
        solutions = solve_rows(b_matrices, c_vectors, regularization=0.1)
        for row in range(4):
            expected = np.linalg.solve(
                b_matrices[row] + 0.1 * np.eye(3), c_vectors[row]
            )
            np.testing.assert_allclose(solutions[row], expected)

    def test_solve_rows_zero_regularization_is_finite(self, rng):
        b_matrices = np.zeros((2, 3, 3))
        c_vectors = np.zeros((2, 3))
        solutions = solve_rows(b_matrices, c_vectors, regularization=0.0)
        assert np.all(np.isfinite(solutions))


class TestUpdateFactorMode:
    def test_matches_brute_force_rows(self, setup_small):
        tensor, factors, core = setup_small
        regularization = 0.05
        for mode in range(3):
            fresh = [f.copy() for f in factors]
            update_factor_mode(tensor, fresh, core, mode, regularization)
            ctx = build_mode_context(tensor, mode)
            for row in ctx.row_ids[:4]:
                expected = brute_force_row_update(
                    tensor, factors, core, mode, int(row), regularization
                )
                np.testing.assert_allclose(fresh[mode][row], expected, atol=1e-8)

    def test_rows_without_observations_untouched(self, setup_small):
        tensor, factors, core = setup_small
        mode = 0
        observed_rows = set(np.unique(tensor.indices[:, mode]).tolist())
        untouched = [r for r in range(tensor.shape[mode]) if r not in observed_rows]
        before = factors[mode].copy()
        update_factor_mode(tensor, factors, core, mode, 0.01)
        for row in untouched:
            np.testing.assert_array_equal(factors[mode][row], before[row])

    def test_update_decreases_loss(self, setup_small):
        tensor, factors, core = setup_small
        regularization = 0.01
        before = regularized_loss(tensor, core, factors, regularization)
        update_factor_mode(tensor, factors, core, 0, regularization)
        after = regularized_loss(tensor, core, factors, regularization)
        assert after <= before + 1e-9

    def test_update_is_row_optimal(self, setup_small, rng):
        """Perturbing any updated row can only increase the loss (Theorem 1)."""
        tensor, factors, core = setup_small
        regularization = 0.01
        mode = 2
        update_factor_mode(tensor, factors, core, mode, regularization)
        baseline = regularized_loss(tensor, core, factors, regularization)
        observed_rows = np.unique(tensor.indices[:, mode])
        # Only the L2 term involving updated rows matters; perturb them one by one.
        for row in observed_rows[:3]:
            perturbed = [f.copy() for f in factors]
            perturbed[mode][row] += rng.standard_normal(core.shape[mode]) * 0.05
            assert (
                regularized_loss(tensor, core, perturbed, regularization)
                >= baseline - 1e-9
            )

    def test_block_size_does_not_change_result(self, setup_small):
        tensor, factors, core = setup_small
        one_block = [f.copy() for f in factors]
        many_blocks = [f.copy() for f in factors]
        update_factor_mode(tensor, one_block, core, 0, 0.01, block_size=10**6)
        update_factor_mode(tensor, many_blocks, core, 0, 0.01, block_size=7)
        np.testing.assert_allclose(one_block[0], many_blocks[0], atol=1e-10)

    def test_memory_tracker_records_workspace(self, setup_small):
        tensor, factors, core = setup_small
        tracker = MemoryTracker()
        update_factor_mode(tensor, factors, core, 0, 0.01, memory=tracker)
        assert tracker.peak_bytes > 0
        assert tracker.current_bytes == 0  # workspace released after the update

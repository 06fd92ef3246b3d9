"""Tests for P-Tucker-Cache: identical results to P-Tucker, more memory."""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerCache, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.kernels import contract_delta_block

#: Factor tolerance of the grouped provider against the paper-literal one.
#: Summing a j_n group before dividing rounds differently from dividing
#: every cell first; over a few sweeps the factors drift by ~1e-12.
PAPER_LITERAL_ATOL = 1e-9


class PaperLiteralCache(PTuckerCache):
    """Algorithm 3 as printed: divide every Pres cell, then reduce over j_n."""

    def _delta_provider(self, tensor, factors, core, mode):
        pres = self._pres
        self._previous_factor = factors[mode].copy()
        core_arr = np.asarray(core)
        jn_of_column = np.indices(core_arr.shape)[mode].reshape(-1)
        group_matrix = np.zeros((core_arr.size, core_arr.shape[mode]))
        group_matrix[np.arange(core_arr.size), jn_of_column] = 1.0

        def provider(entry_positions, mode_inner):
            rows = tensor.indices[entry_positions]
            divisor_cells = factors[mode_inner][rows[:, mode_inner]][:, jn_of_column]
            safe = np.abs(divisor_cells) > self._zero_tolerance
            contributions = np.zeros((rows.shape[0], core_arr.size))
            np.divide(
                pres[entry_positions], divisor_cells, out=contributions, where=safe
            )
            deltas = contributions @ group_matrix
            fallback = np.nonzero(~safe.all(axis=1))[0]
            if fallback.size:
                deltas[fallback] = contract_delta_block(
                    rows[fallback], factors, core_arr, mode_inner
                )
            return deltas

        return provider


def _prepared_cache(tensor, ranks, seed=0):
    """A PTuckerCache with Pres built for freshly initialised factors."""
    rng = np.random.default_rng(seed)
    factors = initialize_factors(tensor.shape, ranks, rng)
    core = initialize_core(ranks, rng)
    cache = PTuckerCache(PTuckerConfig(ranks=ranks))
    cache._prepare(tensor, factors, core, None)
    return cache, factors, core


class TestEquivalence:
    def test_same_errors_as_ptucker(self, planted_small):
        """The cache only changes how δ is computed, never its value."""
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=4, seed=0, tolerance=0.0
        )
        exact = PTucker(config).fit(planted_small.tensor)
        cached = PTuckerCache(config).fit(planted_small.tensor)
        np.testing.assert_allclose(
            exact.trace.errors, cached.trace.errors, rtol=1e-6
        )

    def test_same_factors_as_ptucker(self, planted_small):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, seed=0, tolerance=0.0
        )
        exact = PTucker(config).fit(planted_small.tensor)
        cached = PTuckerCache(config).fit(planted_small.tensor)
        for a, b in zip(exact.factors, cached.factors):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_equivalence_on_4way(self, planted_4way):
        config = PTuckerConfig(
            ranks=(2, 2, 2, 2), max_iterations=3, seed=0, tolerance=0.0
        )
        exact = PTucker(config).fit(planted_4way.tensor)
        cached = PTuckerCache(config).fit(planted_4way.tensor)
        np.testing.assert_allclose(exact.trace.errors, cached.trace.errors, rtol=1e-6)

    @pytest.mark.parametrize("fixture", ["planted_small", "planted_4way"])
    def test_matches_paper_literal_provider(self, request, fixture):
        """Reducing Pres before dividing stays within PAPER_LITERAL_ATOL of
        dividing every cell first, the order Algorithm 3 prints."""
        planted = request.getfixturevalue(fixture)
        ranks = (2,) * planted.tensor.order
        config = PTuckerConfig(ranks=ranks, max_iterations=3, seed=0, tolerance=0.0)
        grouped = PTuckerCache(config).fit(planted.tensor)
        literal = PaperLiteralCache(config).fit(planted.tensor)
        for a, b in zip(grouped.factors, literal.factors):
            np.testing.assert_allclose(a, b, rtol=0, atol=PAPER_LITERAL_ATOL)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_exact_zero_divisor_falls_back_to_direct_delta(self, planted_small, mode):
        """An entry whose factor value is exactly 0 gets the directly
        contracted δ; every other entry's δ matches it to rounding."""
        tensor = planted_small.tensor
        cache, factors, core = _prepared_cache(tensor, (3, 3, 3))
        zero_row = int(tensor.indices[0, mode])
        factors[mode][zero_row, 1] = 0.0
        provider = cache._delta_provider(tensor, factors, core, mode)
        positions = np.arange(tensor.nnz)
        deltas = provider(positions, mode)
        hit = tensor.indices[:, mode] == zero_row
        np.testing.assert_array_equal(
            deltas[hit], contract_delta_block(tensor.indices[hit], factors, core, mode)
        )
        direct = contract_delta_block(tensor.indices, factors, core, mode)
        np.testing.assert_allclose(deltas, direct, rtol=1e-10, atol=1e-12)

    def test_rescale_rebuilds_cells_of_a_zero_old_value(self, planted_small):
        """After an update from an exact-0 factor value, Pres still equals
        the product table of the new factors."""
        tensor = planted_small.tensor
        cache, factors, core = _prepared_cache(tensor, (3, 3, 3))
        factors[0][int(tensor.indices[0, 0]), 2] = 0.0
        cache._prepare(tensor, factors, core, None)
        cache._delta_provider(tensor, factors, core, 0)
        factors[0] = factors[0] * 1.5 + 0.25
        cache._after_mode_update(tensor, factors, core, 0)
        expected = PTuckerCache(PTuckerConfig(ranks=(3, 3, 3)))
        expected._prepare(tensor, factors, core, None)
        np.testing.assert_allclose(cache._pres, expected._pres, rtol=1e-12, atol=0)

    def test_handles_zero_factor_entries(self, planted_small):
        """Zero divisors must fall back to the direct computation, not produce NaN."""
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, seed=3, tolerance=0.0
        )
        result = PTuckerCache(config).fit(planted_small.tensor)
        assert np.all(np.isfinite(result.core))
        for factor in result.factors:
            assert np.all(np.isfinite(factor))


class TestMemoryProfile:
    def test_cache_uses_more_intermediate_memory(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
        exact = PTucker(config).fit(planted_small.tensor)
        cached = PTuckerCache(config).fit(planted_small.tensor)
        assert cached.memory.peak_bytes > exact.memory.peak_bytes

    def test_cache_memory_scales_with_core_size(self, planted_small):
        small_rank = PTuckerCache(
            PTuckerConfig(ranks=(2, 2, 2), max_iterations=1, seed=0)
        ).fit(planted_small.tensor)
        large_rank = PTuckerCache(
            PTuckerConfig(ranks=(4, 4, 4), max_iterations=1, seed=0)
        ).fit(planted_small.tensor)
        assert large_rank.memory.peak_bytes > small_rank.memory.peak_bytes

    def test_cache_table_accounted_as_omega_times_core(self, planted_small):
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=1, seed=0)
        result = PTuckerCache(config).fit(planted_small.tensor)
        expected = planted_small.tensor.nnz * 27 * 8  # |Omega| * |G| * 8 bytes
        assert result.memory.peak_bytes >= expected

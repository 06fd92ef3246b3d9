"""Unit tests for the COO sparse tensor."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor import SparseTensor


class TestConstruction:
    def test_basic_attributes(self, small_sparse_tensor):
        t = small_sparse_tensor
        assert t.order == 3
        assert t.nnz == 5
        assert t.shape == (4, 4, 3)
        assert len(t) == 5

    def test_density(self, small_sparse_tensor):
        expected = 5 / (4 * 4 * 3)
        assert small_sparse_tensor.density == pytest.approx(expected)

    def test_from_entries_empty(self):
        t = SparseTensor.from_entries([], shape=(3, 3))
        assert t.nnz == 0
        assert t.order == 2

    def test_from_dense_roundtrip(self, small_dense_tensor):
        t = SparseTensor.from_dense(small_dense_tensor, keep_zeros=True)
        np.testing.assert_allclose(t.to_dense(), small_dense_tensor)

    def test_from_dense_drops_zeros(self):
        arr = np.zeros((2, 2))
        arr[0, 1] = 3.0
        t = SparseTensor.from_dense(arr)
        assert t.nnz == 1
        assert t.get((0, 1)) == 3.0

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ShapeError):
            SparseTensor(np.array([[5, 0]]), np.array([1.0]), shape=(3, 3))

    def test_rejects_negative_index(self):
        with pytest.raises(ShapeError):
            SparseTensor(np.array([[-1, 0]]), np.array([1.0]), shape=(3, 3))

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(ShapeError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0, 2.0]), shape=(3, 3))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ShapeError):
            SparseTensor(np.array([[0, 0]]), np.array([np.nan]), shape=(3, 3))

    def test_rejects_empty_shape(self):
        with pytest.raises(ShapeError):
            SparseTensor(np.empty((0, 0)), np.empty(0), shape=())


class TestAccess:
    def test_get_observed(self, small_sparse_tensor):
        assert small_sparse_tensor.get((1, 2, 0)) == 2.5

    def test_get_missing_returns_default(self, small_sparse_tensor):
        assert small_sparse_tensor.get((0, 1, 2)) == 0.0
        assert small_sparse_tensor.get((0, 1, 2), default=-1.0) == -1.0

    def test_get_wrong_arity(self, small_sparse_tensor):
        with pytest.raises(ShapeError):
            small_sparse_tensor.get((0, 1))

    def test_iteration_yields_all_entries(self, small_sparse_tensor):
        entries = dict(iter(small_sparse_tensor))
        assert entries[(1, 2, 0)] == 2.5
        assert len(entries) == 5

    def test_norm_matches_numpy(self, small_sparse_tensor):
        expected = np.linalg.norm(small_sparse_tensor.values)
        assert small_sparse_tensor.norm() == pytest.approx(expected)

    def test_to_dense_refuses_huge(self):
        t = SparseTensor(np.array([[0, 0, 0]]), np.array([1.0]), shape=(10**3, 10**3, 10**3))
        with pytest.raises(ShapeError):
            t.to_dense()


class TestReorganisation:
    def test_deduplicate_last(self):
        idx = np.array([[0, 0], [0, 0], [1, 1]])
        t = SparseTensor(idx, np.array([1.0, 2.0, 3.0]), shape=(2, 2))
        d = t.deduplicate("last")
        assert d.nnz == 2
        assert d.get((0, 0)) == 2.0

    def test_deduplicate_sum_and_mean(self):
        idx = np.array([[0, 0], [0, 0]])
        t = SparseTensor(idx, np.array([1.0, 3.0]), shape=(2, 2))
        assert t.deduplicate("sum").get((0, 0)) == 4.0
        assert t.deduplicate("mean").get((0, 0)) == 2.0

    def test_deduplicate_unknown_mode(self, small_sparse_tensor):
        with pytest.raises(ValueError):
            small_sparse_tensor.deduplicate("median")

    def test_sort_by_mode_is_sorted(self, small_sparse_tensor):
        for mode in range(3):
            perm = small_sparse_tensor.sort_by_mode(mode)
            column = small_sparse_tensor.indices[perm, mode]
            assert np.all(np.diff(column) >= 0)

    def test_mode_slice_matches_mask(self, small_sparse_tensor):
        sliced = small_sparse_tensor.mode_slice(0, 1)
        assert sliced.nnz == 2
        assert np.all(sliced.indices[:, 0] == 1)

    def test_counts_along_mode(self, small_sparse_tensor):
        counts = small_sparse_tensor.counts_along_mode(0)
        assert counts.tolist() == [1, 2, 1, 1]
        assert counts.sum() == small_sparse_tensor.nnz

    def test_permute_modes_roundtrip(self, small_sparse_tensor):
        permuted = small_sparse_tensor.permute_modes([2, 0, 1])
        back = permuted.permute_modes([1, 2, 0])
        assert back.allclose(small_sparse_tensor)

    def test_permute_modes_invalid(self, small_sparse_tensor):
        with pytest.raises(ShapeError):
            small_sparse_tensor.permute_modes([0, 0, 1])

    def test_linear_indices_unique_for_distinct_entries(self, small_sparse_tensor):
        linear = small_sparse_tensor.linear_indices()
        assert len(np.unique(linear)) == small_sparse_tensor.nnz


class TestSplitAndTransform:
    def test_split_partitions_entries(self, random_small, rng):
        train, test = random_small.split(0.8, rng=rng)
        assert train.nnz + test.nnz == random_small.nnz
        assert train.shape == random_small.shape

    def test_split_rejects_bad_fraction(self, random_small):
        with pytest.raises(ValueError):
            random_small.split(1.5)

    def test_split_disjoint(self, random_small, rng):
        train, test = random_small.split(0.9, rng=rng)
        train_keys = set(map(tuple, train.indices))
        test_keys = set(map(tuple, test.indices))
        assert not train_keys & test_keys

    def test_normalize_values_range(self, random_small):
        normalized, lo, span = random_small.normalize_values()
        assert normalized.values.min() >= 0.0
        assert normalized.values.max() <= 1.0
        np.testing.assert_allclose(
            normalized.values * span + lo, random_small.values
        )

    def test_normalize_constant_tensor(self):
        t = SparseTensor(np.array([[0, 0], [1, 1]]), np.array([2.0, 2.0]), (2, 2))
        normalized, lo, span = t.normalize_values()
        assert lo == 2.0
        assert np.all(normalized.values == 0.0)

    def test_with_values_keeps_pattern(self, small_sparse_tensor):
        new = small_sparse_tensor.with_values(np.ones(5))
        np.testing.assert_array_equal(new.indices, small_sparse_tensor.indices)
        assert np.all(new.values == 1.0)

    def test_copy_is_independent(self, small_sparse_tensor):
        copy = small_sparse_tensor.copy()
        copy.values[0] = 99.0
        assert small_sparse_tensor.values[0] != 99.0

    def test_allclose_detects_difference(self, small_sparse_tensor):
        other = small_sparse_tensor.with_values(small_sparse_tensor.values + 1.0)
        assert not small_sparse_tensor.allclose(other)
        assert small_sparse_tensor.allclose(small_sparse_tensor.copy())

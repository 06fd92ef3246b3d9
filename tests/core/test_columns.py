"""Unit tests for the columnar narrow index blocks (:mod:`repro.columns`)."""

import pickle

import numpy as np
import pytest

from repro.columns import (
    IndexColumns,
    as_index_block,
    index_dtype_for_max,
    index_dtypes_for_shape,
)
from repro.exceptions import ShapeError


@pytest.fixture
def block():
    return IndexColumns(
        [
            np.arange(10, dtype=np.uint8),
            np.arange(10, 20, dtype=np.uint16),
            np.arange(20, 30, dtype=np.int64),
        ]
    )


class TestIndexColumns:
    def test_shape_and_dtypes(self, block):
        assert block.shape == (10, 3)
        assert block.ndim == 2
        assert len(block) == 10
        assert block.dtypes == (
            np.dtype(np.uint8),
            np.dtype(np.uint16),
            np.dtype(np.int64),
        )
        assert block.nbytes == 10 * (1 + 2 + 8)

    def test_full_column_access_is_a_view(self, block):
        column = block[:, 1]
        assert column.dtype == np.uint16
        assert column is block.columns[1]  # no copy, not even a view object

    def test_row_slice_keeps_views(self, block):
        sliced = block[2:5]
        assert isinstance(sliced, IndexColumns)
        assert sliced.shape == (3, 3)
        assert sliced.columns[0].base is block.columns[0]
        np.testing.assert_array_equal(sliced[:, 2], [22, 23, 24])

    def test_partial_2d_access(self, block):
        np.testing.assert_array_equal(block[2:5, 1], [12, 13, 14])
        row = block[3]
        assert row.dtype == np.int64
        np.testing.assert_array_equal(row, [3, 13, 23])

    def test_fancy_row_gather(self, block):
        picked = block[np.asarray([7, 0, 7])]
        assert isinstance(picked, IndexColumns)
        assert picked.dtypes == block.dtypes
        np.testing.assert_array_equal(picked[:, 0], [7, 0, 7])

    def test_asarray_materialises_int64_matrix(self, block):
        matrix = np.asarray(block)
        assert matrix.shape == (10, 3)
        assert matrix.dtype == np.int64
        np.testing.assert_array_equal(matrix[:, 1], np.arange(10, 20))

    def test_as_index_block_passthrough(self, block):
        assert as_index_block(block) is block
        matrix = [[1, 2], [3, 4]]
        out = as_index_block(matrix)
        assert isinstance(out, np.ndarray)

    def test_from_matrix_narrows_by_shape(self):
        matrix = np.asarray([[0, 5], [3, 70_000]], dtype=np.int64)
        block = IndexColumns.from_matrix(matrix, shape=(4, 70_001))
        assert block.dtypes == (np.dtype(np.uint8), np.dtype(np.uint32))
        np.testing.assert_array_equal(np.asarray(block), matrix)
        # Without a shape the columns narrow to their own maxima.
        assert IndexColumns.from_matrix(matrix).dtypes == (
            np.dtype(np.uint8),
            np.dtype(np.uint32),
        )

    def test_validation(self):
        with pytest.raises(ShapeError):
            IndexColumns([])
        with pytest.raises(ShapeError):
            IndexColumns([np.zeros((2, 2), dtype=np.int64)])
        with pytest.raises(ShapeError):
            IndexColumns([np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)])
        with pytest.raises(ShapeError):
            IndexColumns([np.zeros(2, dtype=np.float64)])
        with pytest.raises(ShapeError):
            IndexColumns.from_matrix(np.zeros((2, 3), dtype=np.int64), shape=(4, 4))

    def test_pickle_round_trip(self, block):
        """Process-pool workers receive gathered blocks by pickle."""
        clone = pickle.loads(pickle.dumps(block))
        assert clone.dtypes == block.dtypes
        np.testing.assert_array_equal(np.asarray(clone), np.asarray(block))

    def test_numpy_fancy_indexing_accepts_narrow_columns(self, block):
        """The property every kernel gather relies on."""
        table = np.arange(200.0).reshape(20, 10)
        gathered = table[block[:, 1] - 10]
        np.testing.assert_array_equal(gathered[:, 0], table[np.arange(10), 0])


class TestDtypeHelpers:
    def test_index_dtype_for_max(self):
        assert index_dtype_for_max(255) == np.dtype(np.uint8)
        assert index_dtype_for_max(256) == np.dtype(np.uint16)
        assert index_dtype_for_max(2**32 - 1) == np.dtype(np.uint32)
        assert index_dtype_for_max(2**32) == np.dtype(np.int64)

    def test_index_dtypes_for_shape_policies(self):
        shape = (10, 300, 100_000)
        assert index_dtypes_for_shape(shape) == (
            np.dtype(np.uint8),
            np.dtype(np.uint16),
            np.dtype(np.uint32),
        )
        assert index_dtypes_for_shape(shape, "wide") == (np.dtype(np.int64),) * 3


class TestAutoBackendWithNarrowBlocks:
    def test_autotuned_dispatch_consumes_columns(self, rng):
        """backend="auto" calibrates over narrow blocks without widening."""
        from repro.core.row_update import (
            InMemorySource,
            build_mode_context,
            update_factor_mode,
        )
        from repro.data import random_sparse_tensor

        tensor = random_sparse_tensor((30, 20, 10), nnz=400, seed=2)
        core = rng.uniform(-0.5, 0.5, size=(3, 3, 3))
        factors = [
            rng.uniform(-0.5, 0.5, size=(dim, 3)) for dim in tensor.shape
        ]
        results = {}
        for policy in ("auto", "wide"):
            context = build_mode_context(tensor, 0, index_dtype=policy)
            fresh = [np.array(f, copy=True) for f in factors]
            update_factor_mode(
                InMemorySource(tensor, [context]), fresh, core, 0, 0.01,
                backend="auto",
            )
            results[policy] = fresh[0]
        np.testing.assert_array_equal(results["auto"], results["wide"])

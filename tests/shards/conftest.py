"""The shard-store content oracle shared by the store tests.

A store built from a tensor must hold, for every mode, the tensor's entries
stably sorted by that mode's index, cut into shards at multiples of
``shard_nnz``, with the row segmentation ``numpy.unique`` gives over the
sorted mode column and the tensor's fingerprint.  The oracle derives all of
that from the tensor alone, so it checks a builder's behaviour instead of
comparing one builder with another.
"""

import numpy as np
import pytest

from repro.shards import ShardStore
from repro.shards.store import _tensor_digest


def assert_store_holds(store: ShardStore, tensor) -> None:
    """Assert that ``store`` is the mode-sorted shard layout of ``tensor``."""
    assert store.shape == tuple(tensor.shape)
    assert store.nnz == tensor.nnz
    for mode in range(tensor.order):
        perm = np.argsort(tensor.indices[:, mode], kind="stable")
        block, values = store.read_mode_block(mode, 0, tensor.nnz)
        assert block.dtypes == store.index_dtypes
        np.testing.assert_array_equal(
            block.to_matrix(), tensor.indices[perm], err_msg=f"mode {mode} columns"
        )
        assert values.tobytes() == tensor.values[perm].tobytes(), (
            f"mode {mode} values"
        )
        expected = np.unique(
            tensor.indices[perm, mode], return_index=True, return_counts=True
        )
        for name, got, want in zip(
            ("row_ids", "row_starts", "row_counts"),
            store.mode_segmentation(mode),
            expected,
        ):
            assert got.dtype == np.int64, f"mode {mode} {name} dtype"
            np.testing.assert_array_equal(got, want, err_msg=f"mode {mode} {name}")
        assert [shard.start for shard in store.mode_shards(mode)] == list(
            range(0, tensor.nnz, store.shard_nnz)
        )
    assert store.fingerprint == {
        "values_sum": float(np.sum(tensor.values)),
        "indices_sum": int(tensor.indices.sum()),
        "entries_sha256": _tensor_digest(tensor),
    }
    store.validate()


@pytest.fixture
def store_oracle():
    """The :func:`assert_store_holds` oracle as a fixture."""
    return assert_store_holds

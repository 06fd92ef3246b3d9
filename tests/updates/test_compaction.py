"""Compaction: folding deltas must equal a fresh build, crash-safely.

The headline contract: ``compact()`` leaves the store directory
**file-for-file identical** to ``ShardStore.build`` of the union tensor
(base entries in the store's canonical order followed by the deltas in
log order) — same names, same bytes.  Plus the commit protocol's
idempotence: ``complete_compaction`` may re-run any number of times, and
``ShardStore.open`` finishes a marker it finds.
"""

import os

import numpy as np
import pytest

from updatehelpers import random_entries, write_delta
from repro.exceptions import DataFormatError
from repro.shards import ShardStore
from repro.tensor import SparseTensor
from repro.updates import (
    COMPACT_MARKER,
    DeltaLog,
    UnionEntrySource,
    compact,
    complete_compaction,
)


def snapshot(directory):
    """Relative path -> bytes for every file under ``directory``."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


def union_tensor(store, log):
    """Base entries in canonical store order, then deltas in log order."""
    base = store.to_tensor()
    delta_idx, delta_vals = log.load_entries(store.order)
    return SparseTensor(
        np.concatenate([base.indices, delta_idx]),
        np.concatenate([base.values, delta_vals]),
        shape=store.shape,
    )


class TestFileForFile:
    def test_compacted_store_identical_to_fresh_union_build(
        self, update_case, tmp_path
    ):
        store, _, _, _ = update_case(seed=31)
        log = DeltaLog.open(store.directory)
        expected = union_tensor(store, log)
        fresh = ShardStore.build(
            expected, str(tmp_path / "fresh"), shard_nnz=store.shard_nnz
        )
        compacted = compact(store)
        compacted.validate()
        assert compacted.nnz == expected.nnz
        mine, theirs = snapshot(compacted.directory), snapshot(fresh.directory)
        assert sorted(mine) == sorted(theirs)
        for relative in theirs:
            assert mine[relative] == theirs[relative], relative
        assert len(DeltaLog.open(compacted.directory)) == 0

    def test_multiple_deltas_fold_in_log_order(self, update_case, tmp_path):
        shape = (40, 30, 20)
        store, _, _, _ = update_case(shape=shape, seed=32)
        rng = np.random.default_rng(99)
        log = DeltaLog.open(store.directory)
        for n in range(2):
            indices, values = random_entries(rng, shape, 25 + n)
            log.append(
                write_delta(
                    tmp_path / f"more-{n}.rcoo", indices, values, shape
                ),
                store.shape,
            )
        expected = union_tensor(store, DeltaLog.open(store.directory))
        fresh = ShardStore.build(
            expected, str(tmp_path / "fresh"), shard_nnz=store.shard_nnz
        )
        compacted = compact(store)
        mine, theirs = snapshot(compacted.directory), snapshot(fresh.directory)
        assert sorted(mine) == sorted(theirs)
        for relative in theirs:
            assert mine[relative] == theirs[relative], relative

    def test_no_pending_deltas_is_a_no_op(self, tmp_path):
        rng = np.random.default_rng(33)
        indices, values = random_entries(rng, (20, 15, 10), 150)
        tensor = SparseTensor(indices, values, shape=(20, 15, 10))
        store = ShardStore.build(tensor, str(tmp_path / "store"), shard_nnz=80)
        before = snapshot(store.directory)
        result = compact(store)
        assert result is store
        assert snapshot(store.directory) == before


class TestCommitProtocol:
    def test_complete_compaction_is_idempotent(self, update_case):
        store, _, _, _ = update_case(seed=34)
        directory = store.directory
        compacted = compact(store)
        reference = snapshot(directory)
        # Re-running with no marker is a no-op returning False.
        assert complete_compaction(directory) is False
        assert snapshot(directory) == reference
        compacted.validate()

    def test_open_finishes_a_pending_marker(self, update_case, tmp_path):
        """A marker left by a crash is executed by the next open; the
        result equals an uninterrupted compaction."""
        store, _, _, _ = update_case(seed=35)
        directory = store.directory
        log = DeltaLog.open(directory)
        expected = union_tensor(store, log)
        fresh = ShardStore.build(
            expected, str(tmp_path / "fresh"), shard_nnz=store.shard_nnz
        )
        # Reproduce the post-marker pre-completion state by hand: build
        # the scratch store and write the marker, but do not complete.
        from repro.updates.compact import COMPACT_SCRATCH, _store_relative_files
        from repro.resilience.atomic import atomic_write_json

        scratch = os.path.join(directory, COMPACT_SCRATCH)
        new_store = ShardStore.build_streaming(
            UnionEntrySource(store, log),
            scratch,
            shard_nnz=store.shard_nnz,
            shape=store.shape,
        )
        new_files = _store_relative_files(new_store)
        old_files = _store_relative_files(store)
        atomic_write_json(
            os.path.join(directory, COMPACT_MARKER),
            {
                "format": "repro-compact-commit",
                "version": 1,
                "scratch": COMPACT_SCRATCH,
                "store_files": sorted(new_files),
                "remove": sorted(old_files - new_files),
                "deltas": log.relative_paths(),
            },
        )
        reopened = ShardStore.open(directory)
        reopened.validate()
        assert not os.path.exists(os.path.join(directory, COMPACT_MARKER))
        mine, theirs = snapshot(directory), snapshot(fresh.directory)
        assert sorted(mine) == sorted(theirs)
        for relative in theirs:
            assert mine[relative] == theirs[relative], relative

    def test_corrupt_pending_delta_aborts_before_any_change(
        self, update_case
    ):
        store, _, _, _ = update_case(seed=36)
        log = DeltaLog.open(store.directory)
        path = os.path.join(store.directory, log.records[0].file)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte ^ 0xFF]))
        before = snapshot(store.directory)
        with pytest.raises(DataFormatError, match="sha256 mismatch"):
            compact(store)
        assert snapshot(store.directory) == before

    def test_custom_shard_nnz_matches_fresh_build_at_that_size(
        self, update_case, tmp_path
    ):
        store, _, _, _ = update_case(seed=37)
        expected = union_tensor(store, DeltaLog.open(store.directory))
        fresh = ShardStore.build(
            expected, str(tmp_path / "fresh"), shard_nnz=97
        )
        compacted = compact(store, shard_nnz=97)
        assert compacted.shard_nnz == 97
        mine, theirs = snapshot(compacted.directory), snapshot(fresh.directory)
        assert sorted(mine) == sorted(theirs)
        for relative in theirs:
            assert mine[relative] == theirs[relative], relative

"""Tests for the on-disk shard store (build, manifest, reads, round-trip)."""

import json
import os

import numpy as np
import pytest

from repro.core.row_update import build_mode_context
from repro.data import random_sparse_tensor
from repro.exceptions import DataFormatError, ShapeError
from repro.shards import MANIFEST_NAME, ShardStore
from repro.tensor import SparseTensor, load_shards, save_shards


@pytest.fixture
def tensor():
    return random_sparse_tensor((23, 17, 12), nnz=800, seed=5)


@pytest.fixture
def store(tensor, tmp_path):
    return ShardStore.build(tensor, tmp_path / "store", shard_nnz=150)


class TestBuildLayout:
    def test_manifest_and_files_exist(self, store, tensor):
        assert os.path.exists(store.manifest_path())
        assert store.shape == tensor.shape
        assert store.nnz == tensor.nnz
        for mode in range(tensor.order):
            for shard in store.mode_shards(mode):
                assert len(shard.column_paths) == tensor.order
                for column_path in shard.column_paths:
                    assert os.path.exists(
                        os.path.join(store.directory, column_path)
                    )
                assert os.path.exists(os.path.join(store.directory, shard.values_path))
                assert shard.nnz <= 150

    def test_shards_are_contiguous_and_cover_nnz(self, store):
        for mode in range(store.order):
            shards = store.mode_shards(mode)
            assert shards[0].start == 0
            for left, right in zip(shards, shards[1:]):
                assert left.stop == right.start
            assert shards[-1].stop == store.nnz

    def test_validate_passes_on_fresh_build(self, store):
        store.validate()

    def test_segmentation_matches_in_core_context(self, store, tensor, bitwise):
        for mode in range(tensor.order):
            context = build_mode_context(tensor, mode)
            row_ids, row_starts, row_counts = store.mode_segmentation(mode)
            bitwise(row_ids, context.row_ids, f"mode {mode} row_ids")
            bitwise(row_starts, context.row_starts, f"mode {mode} row_starts")
            bitwise(row_counts, context.row_counts, f"mode {mode} row_counts")

    def test_segment_bookkeeping_in_manifest(self, store, tensor):
        """segment_offset / n_segments / continues_segment describe the cut."""
        for mode in range(tensor.order):
            _, row_starts, _ = store.mode_segmentation(mode)
            for shard in store.mode_shards(mode):
                lo = int(np.searchsorted(row_starts, shard.start, side="right")) - 1
                hi = int(np.searchsorted(row_starts, shard.stop, side="left"))
                assert shard.segment_offset == lo
                assert shard.n_segments == hi - lo
                assert shard.continues_segment == (row_starts[lo] < shard.start)

    def test_rebuild_replaces_previous_store(self, tensor, tmp_path):
        target = tmp_path / "store"
        first = ShardStore.build(tensor, target, shard_nnz=50)
        n_first = len(first.mode_shards(0))
        second = ShardStore.build(tensor, target, shard_nnz=400)
        assert len(second.mode_shards(0)) < n_first
        second.validate()
        # No stale shard files from the finer first build survive.
        files = os.listdir(os.path.join(str(target), "mode0"))
        assert all(int(f[5:9]) < len(second.mode_shards(0))
                   for f in files if f.startswith("shard"))


class TestReads:
    def test_read_mode_block_matches_sorted_slices(self, store, tensor, bitwise):
        for mode in range(tensor.order):
            context = build_mode_context(tensor, mode)
            # Ranges chosen to sit inside one shard and to cross shards.
            for start, stop in [(0, 10), (140, 160), (0, tensor.nnz), (700, 800)]:
                indices, values = store.read_mode_block(mode, start, stop)
                # Indices compare by value: the store's columns are narrow
                # while the in-core context is wide int64.
                np.testing.assert_array_equal(
                    indices, context.sorted_indices[start:stop]
                )
                bitwise(
                    values,
                    context.sorted_values[start:stop],
                    f"mode {mode} values [{start}:{stop}]",
                )

    def test_read_mode_block_clamps_range(self, store):
        indices, values = store.read_mode_block(0, store.nnz - 5, store.nnz + 50)
        assert indices.shape == (5, store.order)
        indices, values = store.read_mode_block(0, 20, 20)
        assert indices.shape == (0, store.order)
        assert values.shape == (0,)

    def test_iter_mode_blocks_streams_everything(self, store, tensor, bitwise):
        context = build_mode_context(tensor, 0)
        chunks = list(store.iter_mode_blocks(0, 99))
        indices = np.concatenate([c[0] for c in chunks])
        values = np.concatenate([c[1] for c in chunks])
        np.testing.assert_array_equal(indices, context.sorted_indices)
        bitwise(values, context.sorted_values, "streamed values")

    def test_unknown_mode_raises(self, store):
        with pytest.raises(ShapeError):
            store.read_mode_block(store.order, 0, 1)
        with pytest.raises(ShapeError):
            store.mode_segmentation(store.order)


class TestRoundTrip:
    def test_to_tensor_preserves_entries(self, store, tensor):
        assert store.to_tensor().allclose(tensor)

    def test_io_helpers_round_trip(self, tensor, tmp_path):
        save_shards(tensor, tmp_path / "io-store", shard_nnz=120)
        restored = load_shards(tmp_path / "io-store")
        assert restored.allclose(tensor)

    def test_reopen_equals_build(self, store, tensor):
        reopened = ShardStore.open(store.directory)
        assert reopened.shape == store.shape
        assert reopened.nnz == store.nnz
        assert reopened.to_tensor().allclose(tensor)

    def test_empty_tensor_round_trips(self, tmp_path):
        empty = SparseTensor(
            np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6)
        )
        store = ShardStore.build(empty, tmp_path / "empty", shard_nnz=10)
        assert store.nnz == 0
        assert store.mode_shards(0) == []
        restored = store.to_tensor()
        assert restored.nnz == 0
        assert restored.shape == (4, 5, 6)


class TestForTensor:
    def test_reuses_matching_store(self, tensor, tmp_path):
        target = tmp_path / "store"
        built = ShardStore.for_tensor(tensor, target, shard_nnz=150)
        stamp = os.path.getmtime(built.manifest_path())
        again = ShardStore.for_tensor(tensor, target, shard_nnz=150)
        assert os.path.getmtime(again.manifest_path()) == stamp

    def test_rebuilds_on_content_mismatch(self, tensor, tmp_path):
        target = tmp_path / "store"
        ShardStore.for_tensor(tensor, target, shard_nnz=150)
        other = tensor.with_values(tensor.values * 2.0)
        rebuilt = ShardStore.for_tensor(other, target, shard_nnz=150)
        assert rebuilt.to_tensor().allclose(other)

    def test_rebuilds_on_sum_preserving_edit(self, tensor, tmp_path):
        """Swapping two values keeps every sum identical; the entry digest
        still catches the change and triggers a rebuild."""
        target = tmp_path / "store"
        ShardStore.for_tensor(tensor, target, shard_nnz=150)
        values = tensor.values.copy()
        values[0], values[1] = values[1], values[0]
        edited = tensor.with_values(values)
        rebuilt = ShardStore.for_tensor(edited, target, shard_nnz=150)
        assert rebuilt.to_tensor().allclose(edited)

    def test_rebuilds_on_shard_nnz_change(self, tensor, tmp_path):
        target = tmp_path / "store"
        ShardStore.for_tensor(tensor, target, shard_nnz=150)
        finer = ShardStore.for_tensor(tensor, target, shard_nnz=60)
        assert finer.shard_nnz == 60


class TestCorruption:
    def test_open_without_manifest_raises(self, tmp_path):
        with pytest.raises(DataFormatError):
            ShardStore.open(tmp_path)

    def test_open_with_invalid_json_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DataFormatError):
            ShardStore.open(tmp_path)

    def test_open_with_wrong_format_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(DataFormatError):
            ShardStore.open(tmp_path)

    def test_missing_shard_file_raises_on_read(self, store):
        shard = store.mode_shards(0)[0]
        os.remove(os.path.join(store.directory, shard.column_paths[0]))
        with pytest.raises(DataFormatError):
            store.read_mode_block(0, 0, 5)

    def test_validate_detects_truncated_values(self, store):
        shard = store.mode_shards(1)[0]
        path = os.path.join(store.directory, shard.values_path)
        np.save(path, np.load(path)[:-1])
        with pytest.raises(DataFormatError):
            store.validate()

    def test_non_contiguous_manifest_rejected(self, store):
        with open(store.manifest_path(), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["modes"][0]["shards"][0]["stop"] -= 1
        with open(store.manifest_path(), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(DataFormatError):
            ShardStore.open(store.directory)

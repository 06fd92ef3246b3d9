"""External-memory shard builds: store contents and independence of chunking.

``ShardStore.build`` streams an in-RAM tensor through the same external
merge as every other source, so each reference store is checked against
the tensor itself (the ``store_oracle`` fixture of ``conftest.py``), and the
file-for-file comparisons check that the output does not depend on the
chunk size, the merge cascade or the input source.
"""

import os

import numpy as np
import pytest

from repro.core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig
from repro.exceptions import DataFormatError, ShapeError
from repro.shards import ShardStore
from repro.tensor import SparseTensor, load_shards, save_shards, save_text
from repro.tensor.io import TensorEntryReader, TextEntryReader


def random_tensor(order, nnz, seed, dim=24):
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(dim // 2, dim, order))
    indices = np.stack(
        [rng.integers(0, s, nnz) for s in shape], axis=1
    ).astype(np.int64)
    values = rng.standard_normal(nnz)
    return SparseTensor(indices, values, shape)


def directory_files(root):
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names
    )


def assert_directories_identical(left, right):
    left_files = directory_files(left)
    assert left_files == directory_files(right)
    assert left_files, "comparison would be vacuous"
    for relative in left_files:
        with open(os.path.join(left, relative), "rb") as handle:
            left_bytes = handle.read()
        with open(os.path.join(right, relative), "rb") as handle:
            right_bytes = handle.read()
        assert left_bytes == right_bytes, f"{relative} differs"


class TestBitwiseIdentity:
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_orders(self, store_oracle, order, tmp_path):
        tensor = random_tensor(order, 2_000, seed=order)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=700), tensor
        )
        ShardStore.build_streaming(
            TensorEntryReader(tensor), streamed, shard_nnz=700, chunk_nnz=333
        )
        assert_directories_identical(reference, streamed)

    @pytest.mark.parametrize(
        "shard_nnz,chunk_nnz",
        [(1, 1), (13, 7), (100, 1000), (1000, 100), (257, 61), (5000, 5000)],
    )
    def test_ragged_shard_and_chunk_sizes(
        self, store_oracle, shard_nnz, chunk_nnz, tmp_path
    ):
        tensor = random_tensor(3, 1_200, seed=17)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=shard_nnz), tensor
        )
        ShardStore.build_streaming(
            TensorEntryReader(tensor),
            streamed,
            shard_nnz=shard_nnz,
            chunk_nnz=chunk_nnz,
        )
        assert_directories_identical(reference, streamed)

    def test_from_text_file(self, store_oracle, tmp_path):
        tensor = random_tensor(3, 900, seed=3)
        path = tmp_path / "t.tns"
        save_text(tensor, path)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=250), tensor
        )
        store = ShardStore.build_streaming(
            TextEntryReader(path), streamed, shard_nnz=250, chunk_nnz=123
        )
        assert_directories_identical(reference, streamed)
        # The fingerprint matches the original tensor, so for_tensor reuses it.
        assert store.matches(tensor)

    def test_duplicate_and_skewed_rows(self, store_oracle, tmp_path):
        """Ties everywhere: one dominant row id exercises stable merging."""
        rng = np.random.default_rng(11)
        nnz = 800
        indices = np.stack(
            [
                np.where(rng.random(nnz) < 0.7, 2, rng.integers(0, 6, nnz)),
                rng.integers(0, 4, nnz),
                rng.integers(0, 5, nnz),
            ],
            axis=1,
        ).astype(np.int64)
        tensor = SparseTensor(indices, rng.standard_normal(nnz), (6, 4, 5))
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(ShardStore.build(tensor, reference, shard_nnz=97), tensor)
        ShardStore.build_streaming(
            TensorEntryReader(tensor), streamed, shard_nnz=97, chunk_nnz=53
        )
        assert_directories_identical(reference, streamed)

    def test_single_entry_and_empty(self, store_oracle, tmp_path):
        single = SparseTensor(
            np.asarray([[0, 1, 2]]), np.asarray([3.5]), (2, 3, 4)
        )
        empty = SparseTensor(
            np.empty((0, 3), dtype=np.int64), np.empty(0), (2, 3, 4)
        )
        for name, tensor in (("single", single), ("empty", empty)):
            reference = str(tmp_path / f"{name}_reference")
            streamed = str(tmp_path / f"{name}_streamed")
            store_oracle(
                ShardStore.build(tensor, reference, shard_nnz=1), tensor
            )
            ShardStore.build_streaming(
                TensorEntryReader(tensor), streamed, shard_nnz=1, chunk_nnz=1
            )
            assert_directories_identical(reference, streamed)

    def test_cascaded_merge_matches_flat_merge(
        self, store_oracle, tmp_path, monkeypatch
    ):
        """Many tiny runs force the fd-bounded cascade; output is identical."""
        import repro.shards.merge as merge_module

        monkeypatch.setattr(merge_module, "MAX_OPEN_RUNS", 3)
        tensor = random_tensor(3, 1_500, seed=41)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=400), tensor
        )
        # chunk_nnz=60 -> 25 runs per mode -> two cascade passes at fan-in 3.
        ShardStore.build_streaming(
            TensorEntryReader(tensor), streamed, shard_nnz=400, chunk_nnz=60
        )
        assert_directories_identical(reference, streamed)

    @pytest.mark.parametrize("max_open_runs", [128, 4])
    def test_runs_interleaving_at_every_entry(
        self, store_oracle, tmp_path, monkeypatch, max_open_runs
    ):
        """Every run holds every mode-0 row twice and mode 1 deals rows out
        round-robin, so the merge switches runs at every entry (tied on
        mode 0, distinct on mode 1), across windows shorter than a run and
        through a cascade at a shrunk fan-in."""
        import repro.shards.merge as merge_module

        monkeypatch.setattr(merge_module, "MAX_OPEN_RUNS", max_open_runs)
        rng = np.random.default_rng(7)
        n_runs, run_nnz = 6, 1_000
        chunks = []
        for run in range(n_runs):
            local = rng.permutation(run_nnz)
            chunks.append(
                np.stack(
                    [
                        local // 2,
                        local * n_runs + run,
                        rng.integers(0, 9, run_nnz),
                    ],
                    axis=1,
                )
            )
        indices = np.concatenate(chunks).astype(np.int64)
        shape = (run_nnz // 2, run_nnz * n_runs, 9)
        tensor = SparseTensor(indices, rng.standard_normal(indices.shape[0]), shape)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=777), tensor
        )
        # One run per chunk; the default merge block (1 024 at this chunk
        # size) gives each of the six runs a window of 170 entries.
        ShardStore.build_streaming(
            TensorEntryReader(tensor), streamed, shard_nnz=777, chunk_nnz=run_nnz
        )
        assert_directories_identical(reference, streamed)

    @pytest.mark.parametrize("merge_block", [1, 2, 5, 64])
    def test_windowed_merge_order_and_block_bound(self, merge_block):
        """Blocks follow the compound key and never exceed ``merge_block``."""
        import repro.shards.merge as merge_module

        rng = np.random.default_rng(merge_block)
        runs, keys = [], []
        for run in range(5):
            n = int(rng.integers(0, 40))
            # Both ascending, so the run is sorted by (column, position).
            column = np.sort(rng.integers(0, 6, n)).astype(np.uint8)
            positions = np.sort(rng.choice(10_000, n, replace=False)) * 5 + run
            runs.append(((column,), positions * 0.5, positions.astype(np.int64)))
            keys += list(zip(column.tolist(), positions.tolist()))
        blocks = list(
            merge_module._iter_merged(runs, 0, merge_block, (np.int64,))
        )
        merged = [
            (int(c), int(p)) for (col,), _, pos in blocks for c, p in zip(col, pos)
        ]
        assert merged == sorted(keys)
        assert all(0 < values.shape[0] <= merge_block for _, values, _ in blocks)
        assert all(col.dtype == np.int64 for (col,), _, _ in blocks)

    @pytest.mark.slow
    def test_large_disk_heavy_build(self, store_oracle, tmp_path):
        tensor = random_tensor(4, 60_000, seed=99, dim=64)
        reference = str(tmp_path / "reference")
        streamed = str(tmp_path / "streamed")
        store_oracle(
            ShardStore.build(tensor, reference, shard_nnz=7_000), tensor
        )
        ShardStore.build_streaming(
            TensorEntryReader(tensor),
            streamed,
            shard_nnz=7_000,
            chunk_nnz=4_111,
        )
        assert_directories_identical(reference, streamed)


class TestStreamingBuildBehaviour:
    def test_scratch_directory_removed(self, random_small, tmp_path):
        target = tmp_path / "store"
        ShardStore.build_streaming(TensorEntryReader(random_small), str(target))
        assert not (target / ".ingest-tmp").exists()

    def test_store_is_usable_and_validates(self, random_small, tmp_path):
        store = ShardStore.build_streaming(
            TensorEntryReader(random_small), str(tmp_path / "s"), shard_nnz=100
        )
        store.validate()
        roundtrip = load_shards(tmp_path / "s")
        assert roundtrip.allclose(random_small)

    def test_empty_source_without_shape_raises(self, tmp_path):
        class EmptySource:
            shape = None

            def iter_entry_chunks(self, chunk_nnz):
                return iter(())

        with pytest.raises(DataFormatError):
            ShardStore.build_streaming(EmptySource(), str(tmp_path / "s"))

    def test_out_of_bounds_source_raises(self, tmp_path):
        tensor = SparseTensor(np.asarray([[5, 0]]), np.asarray([1.0]), (6, 2))
        with pytest.raises(ShapeError):
            ShardStore.build_streaming(
                TensorEntryReader(tensor), str(tmp_path / "s"), shape=(3, 2)
            )

    def test_invalid_sizes_raise(self, random_small, tmp_path):
        reader = TensorEntryReader(random_small)
        with pytest.raises(ShapeError):
            ShardStore.build_streaming(reader, str(tmp_path / "s"), shard_nnz=0)
        with pytest.raises(ShapeError):
            ShardStore.build_streaming(reader, str(tmp_path / "s"), chunk_nnz=0)

    def test_save_shards_source_keyword(self, random_small, tmp_path):
        from_tensor = str(tmp_path / "from_tensor")
        streamed = str(tmp_path / "streamed")
        save_shards(random_small, from_tensor, shard_nnz=150)
        save_shards(
            None,
            streamed,
            shard_nnz=150,
            source=TensorEntryReader(random_small),
            chunk_nnz=77,
        )
        assert_directories_identical(from_tensor, streamed)

    def test_save_shards_requires_exactly_one_input(self, random_small, tmp_path):
        with pytest.raises(ShapeError):
            save_shards(None, str(tmp_path / "s"))
        with pytest.raises(ShapeError):
            save_shards(
                random_small,
                str(tmp_path / "s"),
                source=TensorEntryReader(random_small),
            )


class TestFitStreaming:
    def test_matches_in_ram_fit(self, tmp_path, bitwise):
        tensor = random_tensor(3, 1_000, seed=23)
        config = PTuckerConfig(
            ranks=(3, 3, 3),
            max_iterations=3,
            tolerance=0.0,
            seed=0,
            ingest_chunk_nnz=311,
            shard_nnz=450,
        )
        in_ram = PTucker(config).fit(tensor)
        streamed = PTucker(config).fit_streaming(TensorEntryReader(tensor))
        bitwise(streamed.core, in_ram.core, "streamed vs in-ram core")
        for mode, (mine, theirs) in enumerate(
            zip(streamed.factors, in_ram.factors)
        ):
            bitwise(mine, theirs, f"streamed vs in-ram factor {mode}")

    def test_from_text_matches_in_ram_fit(self, tmp_path, bitwise):
        tensor = random_tensor(3, 800, seed=29)
        path = tmp_path / "t.tns"
        save_text(tensor, path)
        config = PTuckerConfig(
            ranks=(2, 2, 2), max_iterations=2, tolerance=0.0, seed=1
        )
        in_ram = PTucker(config).fit(tensor)
        streamed = PTucker(config).fit_streaming(TextEntryReader(path))
        bitwise(streamed.core, in_ram.core, "text-ingest vs in-ram core")

    def test_persists_store_when_shard_dir_set(self, tmp_path):
        tensor = random_tensor(3, 500, seed=31)
        store_dir = str(tmp_path / "store")
        config = PTuckerConfig(
            ranks=(2, 2, 2), max_iterations=1, shard_dir=store_dir
        )
        PTucker(config).fit_streaming(TensorEntryReader(tensor))
        assert ShardStore.open(store_dir).matches(tensor)

    @pytest.mark.parametrize("solver", [PTuckerCache, PTuckerApprox])
    def test_variants_rejected(self, random_small, solver):
        with pytest.raises(
            ShapeError,
            match="streaming ingest supports the base P-Tucker solver only",
        ):
            solver(PTuckerConfig(ranks=(2, 2, 2))).fit_streaming(
                TensorEntryReader(random_small)
            )

    def test_config_validates_ingest_chunk_nnz(self):
        with pytest.raises(ShapeError):
            PTuckerConfig(ingest_chunk_nnz=0)

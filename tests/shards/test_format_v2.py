"""Format-v2 tests: narrow column dtypes, v1 refusal, spill workers.

Covers the dtype-boundary property (uint8/16/32/int64 chosen exactly at the
documented dimension boundaries, including synthetic shapes beyond 2**32),
the bitwise narrow-vs-wide contract of stores and sweeps, the clear error a
retired v1 directory produces (and the in-place rebuild ``fit --shards``
does instead), and the forced single-worker spill path.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.columns import IndexColumns, index_dtype_for_dim, index_dtypes_for_shape
from repro.core.row_update import (
    InMemorySource,
    build_mode_context,
    update_factor_mode,
)
from repro.data import random_sparse_tensor
from repro.exceptions import DataFormatError, ShapeError
from repro.shards import ShardStore, ShardedSweepExecutor
from repro.shards.store import MANIFEST_NAME
from repro.tensor import SparseTensor, TensorEntryReader
from repro.cli import main as cli_main


def assert_directories_identical(left, right):
    left, right = str(left), str(right)
    left_files = sorted(
        os.path.relpath(os.path.join(dirpath, name), left)
        for dirpath, _, names in os.walk(left)
        for name in names
    )
    right_files = sorted(
        os.path.relpath(os.path.join(dirpath, name), right)
        for dirpath, _, names in os.walk(right)
        for name in names
    )
    assert left_files == right_files
    for relative in left_files:
        with open(os.path.join(left, relative), "rb") as fh:
            left_bytes = fh.read()
        with open(os.path.join(right, relative), "rb") as fh:
            right_bytes = fh.read()
        assert left_bytes == right_bytes, f"{relative} differs"


class TestDtypeBoundaries:
    """The narrowest-dtype rule at every documented boundary."""

    @pytest.mark.parametrize(
        "dim,expected",
        [
            (2, np.uint8),
            (255, np.uint8),
            (256, np.uint8),  # largest index 255 still fits
            (257, np.uint16),
            (65535, np.uint16),
            (65536, np.uint16),  # largest index 65535 still fits
            (65537, np.uint32),
            (2**32 - 1, np.uint32),
            (2**32, np.uint32),  # largest index 2**32-1 still fits
            (2**32 + 1, np.int64),
        ],
    )
    def test_dim_boundaries(self, dim, expected):
        assert index_dtype_for_dim(dim) == np.dtype(expected)
        # The wide policy ignores the dimension entirely.
        assert index_dtype_for_dim(dim, "wide") == np.dtype(np.int64)

    def test_shape_helper_and_policy_validation(self):
        dtypes = index_dtypes_for_shape((256, 257, 2**32 + 1))
        assert dtypes == (
            np.dtype(np.uint8),
            np.dtype(np.uint16),
            np.dtype(np.int64),
        )
        with pytest.raises(ShapeError):
            index_dtypes_for_shape((4, 4), "narrow")

    def test_store_columns_use_boundary_dtypes(self, tmp_path, rng):
        """A synthetic shape straddling the boundaries lands every dtype."""
        shape = (256, 65536, 2**32, 2**32 + 1)
        nnz = 64
        indices = np.stack(
            [rng.integers(0, min(s, 10**6), size=nnz) for s in shape], axis=1
        ).astype(np.int64)
        # Pin one entry at each dimension's maximum so the data really
        # exercises the extreme representable index.
        indices[0] = [s - 1 for s in shape]
        tensor = SparseTensor(indices, rng.standard_normal(nnz), shape)
        store = ShardStore.build(tensor, tmp_path / "store", shard_nnz=20)
        assert store.index_dtypes == (
            np.dtype(np.uint8),
            np.dtype(np.uint16),
            np.dtype(np.uint32),
            np.dtype(np.int64),
        )
        assert store.index_bytes_per_entry == 1 + 2 + 4 + 8
        store.validate()
        block, _ = store.read_mode_block(0, 0, store.nnz)
        assert isinstance(block, IndexColumns)
        assert block.dtypes == store.index_dtypes
        restored = store.to_tensor()
        assert restored.allclose(tensor)
        assert int(np.asarray(restored.indices).max()) == 2**32

    def test_streaming_build_matches_in_ram_at_boundaries(self, tmp_path, rng):
        """The external-memory build picks the same dtypes, file for file."""
        shape = (255, 257, 65537)
        nnz = 300
        indices = np.stack(
            [rng.integers(0, s, size=nnz) for s in shape], axis=1
        ).astype(np.int64)
        indices[0] = [s - 1 for s in shape]
        tensor = SparseTensor(indices, rng.standard_normal(nnz), shape)
        in_ram = tmp_path / "in-ram"
        streamed = tmp_path / "streamed"
        ShardStore.build(tensor, in_ram, shard_nnz=64)
        ShardStore.build_streaming(
            TensorEntryReader(tensor), streamed, shard_nnz=64, chunk_nnz=57
        )
        assert_directories_identical(in_ram, streamed)


class TestNarrowVsWideBitwise:
    """index_dtype="auto" and "wide" produce bit-identical numerics."""

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_incore_contexts_bitwise_equal(self, order, rng, bitwise):
        from repro.kernels.backends import available_backends

        shape = tuple([13, 300, 9, 70_000, 5][:order])
        tensor = random_sparse_tensor(shape, nnz=600, seed=order)
        ranks = tuple([3, 2, 4, 2, 3][:order])
        core = rng.uniform(-0.5, 0.5, size=ranks)
        factors = [
            rng.uniform(-0.5, 0.5, size=(dim, rank))
            for dim, rank in zip(shape, ranks)
        ]
        for backend in available_backends():
            for mode in range(order):
                results = {}
                for policy in ("wide", "auto"):
                    context = build_mode_context(
                        tensor, mode, index_dtype=policy
                    )
                    if policy == "auto":
                        assert isinstance(context.sorted_indices, IndexColumns)
                    fresh = [np.array(f, copy=True) for f in factors]
                    update_factor_mode(
                        InMemorySource(tensor, [context]),
                        fresh,
                        core,
                        mode,
                        0.01,
                        block_size=150,
                        backend=backend,
                    )
                    results[policy] = fresh[mode]
                bitwise(
                    results["auto"],
                    results["wide"],
                    f"backend={backend} mode={mode}",
                )

    @pytest.mark.parametrize("backend", ["numpy", "threaded"])
    def test_sharded_sweep_bitwise_equal(self, backend, tmp_path, rng, bitwise):
        tensor = random_sparse_tensor((40, 25, 12), nnz=900, seed=11)
        core = rng.uniform(-0.5, 0.5, size=(3, 3, 3))
        factors = [
            rng.uniform(-0.5, 0.5, size=(dim, 3)) for dim in tensor.shape
        ]
        results = {}
        for policy in ("auto", "wide"):
            store = ShardStore.build(
                tensor, tmp_path / policy, shard_nnz=128, index_dtype=policy
            )
            tensor.clear_caches()
            executor = ShardedSweepExecutor(
                store, backend=backend, block_size=200
            )
            fresh = [np.array(f, copy=True) for f in factors]
            executor.update_factor_mode(fresh, core, 0, 0.01)
            results[policy] = fresh[0]
        bitwise(results["auto"], results["wide"], f"backend={backend}")

    def test_full_fit_bitwise_equal(self, bitwise):
        from repro.core import PTucker, PTuckerConfig

        tensor = random_sparse_tensor((20, 14, 9), nnz=500, seed=3)
        fits = {}
        for policy in ("auto", "wide"):
            config = PTuckerConfig(
                ranks=(3, 3, 3), max_iterations=3, index_dtype=policy
            )
            fits[policy] = PTucker(config).fit(tensor)
        bitwise(fits["auto"].core, fits["wide"].core, "auto vs wide core")
        for mode, (narrow, wide) in enumerate(
            zip(fits["auto"].factors, fits["wide"].factors)
        ):
            bitwise(narrow, wide, f"auto vs wide factor {mode}")

    def test_for_tensor_rebuilds_on_policy_change(self, tmp_path):
        tensor = random_sparse_tensor((30, 20, 10), nnz=300, seed=7)
        target = tmp_path / "store"
        narrow = ShardStore.for_tensor(tensor, target, shard_nnz=100)
        assert narrow.index_dtype == "auto"
        wide = ShardStore.for_tensor(
            tensor, target, shard_nnz=100, index_dtype="wide"
        )
        assert wide.index_dtype == "wide"
        assert all(d == np.dtype(np.int64) for d in wide.index_dtypes)


def _downgrade_to_v1(directory: str) -> None:
    """Rewrite a freshly built v2 store as the retired v1 layout (test rig).

    v1 stored one ``(m, N)`` int64 matrix per shard; stacking a v2
    shard's columns back reproduces it exactly (same entries, same
    order), and the manifest shard entries regain their v1 keys.
    """
    directory = str(directory)
    with open(os.path.join(directory, MANIFEST_NAME), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for mode_entry in manifest["modes"]:
        for shard in mode_entry["shards"]:
            columns = [
                np.load(os.path.join(directory, path))
                for path in shard["columns"]
            ]
            matrix = np.stack(
                [c.astype(np.int64) for c in columns], axis=1
            )
            stem = shard["values"][: -len(".values.npy")]
            np.save(os.path.join(directory, stem + ".indices.npy"), matrix)
            for path in shard["columns"]:
                os.remove(os.path.join(directory, path))
            shard["indices"] = stem + ".indices.npy"
            del shard["columns"]
    manifest["version"] = 1
    manifest["dtypes"] = {"indices": "int64", "values": "float64"}
    with open(
        os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8"
    ) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture
def tensor():
    return random_sparse_tensor((23, 17, 12), nnz=800, seed=5)


@pytest.fixture
def v1_dir(tensor, tmp_path):
    directory = tmp_path / "v1-store"
    ShardStore.build(tensor, directory, shard_nnz=150)
    _downgrade_to_v1(directory)
    return directory


class TestV1Handling:
    def test_open_names_versions_and_recipe(self, v1_dir):
        with pytest.raises(DataFormatError) as excinfo:
            ShardStore.open(v1_dir)
        message = str(excinfo.value)
        assert "version-1" in message
        assert "version 2" in message
        assert "python -m repro ingest <input> --out" in message
        assert "shards-migrate" not in message

    def test_ingest_cli_refuses_v1_directory(self, v1_dir, tmp_path, capsys):
        """``ingest <v1 dir>`` exits 2 with the rebuild recipe, no traceback."""
        out = tmp_path / "resharded"
        assert cli_main(["ingest", str(v1_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "version-1" in err and "version 2" in err
        assert "ingest <input> --out" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["shards-verify"], ["compact"], ["update", "delta.rcoo"]],
        ids=["shards-verify", "compact", "update"],
    )
    def test_store_commands_refuse_v1_directory(
        self, v1_dir, tmp_path, capsys, command
    ):
        """Every command that opens a store exits 2 with the recipe and
        leaves the v1 directory exactly as it was."""
        untouched = tmp_path / "untouched"
        shutil.copytree(v1_dir, untouched)
        argv = [command[0], str(v1_dir)] + [
            str(tmp_path / arg) for arg in command[1:]
        ]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "version-1" in err and "version 2" in err
        assert "ingest <input> --out" in err
        assert "Traceback" not in err
        assert_directories_identical(v1_dir, untouched)

    def test_library_readers_refuse_v1_directory(self, v1_dir):
        """The entry-chunk reader and ``load_shards`` refuse it too."""
        from repro.tensor.io import ShardEntryReader, load_shards

        for read in (ShardEntryReader, load_shards):
            with pytest.raises(DataFormatError, match="version-1"):
                read(v1_dir)

    def test_fit_shards_on_v1_rebuilds_in_place(self, v1_dir, tmp_path):
        """``fit --shards <v1 dir>`` still serves: the directory is a cache,
        so the unreadable v1 store is rebuilt as v2 from the input tensor
        (the standalone recipe in the ``open()`` error covers the case
        where only the store survives)."""
        from repro.tensor import save_text

        tensor = random_sparse_tensor((23, 17, 12), nnz=800, seed=5)
        text = tmp_path / "t.tns"
        save_text(tensor, text)
        code = cli_main(
            [
                "fit",
                str(text),
                "--ranks",
                "3",
                "--max-iterations",
                "1",
                "--shards",
                str(v1_dir),
            ]
        )
        assert code == 0
        rebuilt = ShardStore.open(v1_dir)
        assert rebuilt.index_dtype == "auto"
        assert rebuilt.to_tensor().allclose(tensor)


class TestSpillWorkers:
    def test_forced_serial_and_parallel_spills_identical(
        self, tensor, tmp_path, monkeypatch
    ):
        """REPRO_SPILL_WORKERS=1 (the pinned serial path) and a forced
        multi-worker pool write identical stores."""
        reader = TensorEntryReader(tensor)
        monkeypatch.setenv("REPRO_SPILL_WORKERS", "1")
        serial = tmp_path / "serial"
        ShardStore.build_streaming(reader, serial, shard_nnz=150, chunk_nnz=97)
        monkeypatch.setenv("REPRO_SPILL_WORKERS", "3")
        threaded = tmp_path / "threaded"
        ShardStore.build_streaming(
            reader, threaded, shard_nnz=150, chunk_nnz=97
        )
        assert_directories_identical(serial, threaded)

    def test_spill_workers_env_parsing(self, monkeypatch):
        from repro.shards.merge import spill_workers

        monkeypatch.setenv("REPRO_SPILL_WORKERS", "5")
        assert spill_workers() == 5
        monkeypatch.setenv("REPRO_SPILL_WORKERS", "not-a-number")
        assert spill_workers() >= 1
        monkeypatch.delenv("REPRO_SPILL_WORKERS")
        assert spill_workers() >= 1

"""Tests for shard-store file verification and crash-safe builds."""

import logging
import os

import numpy as np
import pytest

from faultinject import FaultInjector
from repro.cli import main
from repro.exceptions import DataFormatError
from repro.shards import ShardStore
from repro.tensor import save_text
from repro.tensor.io import open_entry_reader, save_shards


@pytest.fixture
def store_dir(tmp_path, planted_small):
    directory = str(tmp_path / "store")
    ShardStore.build(planted_small.tensor, directory, shard_nnz=400)
    return directory


@pytest.fixture
def tensor_file(tmp_path, planted_small):
    path = tmp_path / "tensor.tns"
    save_text(planted_small.tensor, path)
    return str(path)


class TestVerifyFiles:
    def test_intact_store_passes(self, store_dir):
        store = ShardStore.open(store_dir)
        store.verify_files()
        store.validate()

    def test_truncated_values_file_is_named(self, store_dir):
        store = ShardStore.open(store_dir)
        shard = store.mode_shards(0)[0]
        bad = os.path.join(store_dir, shard.values_path)
        FaultInjector().truncate(bad)
        with pytest.raises(DataFormatError) as excinfo:
            store.verify_files()
        assert bad in str(excinfo.value)
        assert "truncated" in str(excinfo.value)

    def test_missing_column_file_is_named(self, store_dir):
        store = ShardStore.open(store_dir)
        shard = store.mode_shards(1)[0]
        bad = os.path.join(store_dir, shard.column_paths[0])
        os.remove(bad)
        with pytest.raises(DataFormatError) as excinfo:
            store.verify_files()
        assert bad in str(excinfo.value)
        assert "missing" in str(excinfo.value)

    def test_wrong_dtype_is_named(self, store_dir):
        store = ShardStore.open(store_dir)
        shard = store.mode_shards(0)[0]
        bad = os.path.join(store_dir, shard.values_path)
        np.save(bad, np.zeros(shard.nnz, dtype=np.float32))
        with pytest.raises(DataFormatError, match="header dtype"):
            store.verify_files()

    def test_wrong_shape_is_named(self, store_dir):
        store = ShardStore.open(store_dir)
        shard = store.mode_shards(0)[0]
        bad = os.path.join(store_dir, shard.values_path)
        np.save(bad, np.zeros(shard.nnz + 7, dtype=np.float64))
        with pytest.raises(DataFormatError, match="header shape"):
            store.verify_files()

    def test_corrupt_segmentation_array_is_named(self, store_dir):
        store = ShardStore.open(store_dir)
        bad = os.path.join(store_dir, "mode0", "row_ids.npy")
        np.save(bad, np.zeros(3, dtype=np.float64))
        with pytest.raises(DataFormatError, match="segmentation"):
            store.verify_files()


class TestShardsVerifyCommand:
    def test_intact_store_exits_0(self, store_dir, capsys):
        assert main(["shards-verify", store_dir]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "observed entries" in out

    def test_quick_mode_exits_0(self, store_dir, capsys):
        assert main(["shards-verify", store_dir, "--quick"]) == 0
        assert "file headers OK" in capsys.readouterr().out

    def test_corrupt_store_exits_2_naming_the_file(self, store_dir, capsys):
        store = ShardStore.open(store_dir)
        bad = os.path.join(store_dir, store.mode_shards(0)[0].values_path)
        FaultInjector().truncate(bad)
        assert main(["shards-verify", store_dir]) == 2
        assert bad in capsys.readouterr().err

    def test_bit_flip_caught_by_full_validation(self, store_dir, capsys):
        """Data-level damage passes the header check but fails validate()."""
        store = ShardStore.open(store_dir)
        shard = store.mode_shards(0)[0]
        bad = os.path.join(store_dir, shard.column_paths[0])
        # Flip the high bit of the sorted mode column's last element: the
        # file size and header stay intact (--quick passes) but the row
        # range no longer matches the manifest.
        FaultInjector(seed=9).bit_flip(
            bad, offset=os.path.getsize(bad) - 1, bit=7
        )
        assert main(["shards-verify", store_dir, "--quick"]) == 0
        capsys.readouterr()
        assert main(["shards-verify", store_dir]) == 2

    def test_fit_shards_runs_the_check_before_sweeping(
        self, store_dir, tensor_file, capsys
    ):
        store = ShardStore.open(store_dir)
        bad = os.path.join(store_dir, store.mode_shards(2)[0].values_path)
        FaultInjector().truncate(bad)
        code = main(
            ["fit", tensor_file, "--ranks", "3", "3", "3",
             "--max-iterations", "2", "--shards", store_dir,
             "--shard-nnz", "400"]
        )
        assert code == 2
        assert bad in capsys.readouterr().err


class TestCrashSafeBuilds:
    def test_crashed_rebuild_leaves_no_openable_store(
        self, store_dir, planted_small, monkeypatch
    ):
        """Manifest retirement first, manifest write last: a rebuild that
        dies in between leaves a directory ``open`` refuses — never one
        that opens but holds mixed old/new data."""

        def boom(directory, manifest):
            raise RuntimeError("injected crash before the commit point")

        # The one store builder (repro.shards.merge) commits the manifest.
        monkeypatch.setattr("repro.shards.merge._write_manifest", boom)
        with pytest.raises(RuntimeError, match="injected crash"):
            ShardStore.build(planted_small.tensor, store_dir, shard_nnz=200)
        with pytest.raises(DataFormatError):
            ShardStore.open(store_dir)

    def test_stale_ingest_tmp_is_detected_and_cleaned(
        self, tmp_path, tensor_file, caplog
    ):
        directory = str(tmp_path / "store")
        tmp = os.path.join(directory, ".ingest-tmp", "mode0")
        os.makedirs(tmp)
        with open(os.path.join(tmp, "run000000.col0.npy"), "wb") as handle:
            handle.write(b"stale spill junk")
        with caplog.at_level(logging.WARNING, logger="repro.shards.merge"):
            store = save_shards(
                None,
                directory,
                shard_nnz=300,
                source=open_entry_reader(tensor_file),
                chunk_nnz=200,
            )
        assert "interrupted streaming build" in caplog.text
        assert not os.path.isdir(os.path.join(directory, ".ingest-tmp"))
        store.validate()

    def test_stale_tmp_next_to_manifest_is_also_cleaned(
        self, store_dir, tensor_file, caplog
    ):
        os.makedirs(os.path.join(store_dir, ".ingest-tmp", "mode1"))
        with caplog.at_level(logging.WARNING, logger="repro.shards.merge"):
            store = save_shards(
                None,
                store_dir,
                shard_nnz=300,
                source=open_entry_reader(tensor_file),
                chunk_nnz=200,
            )
        assert "stale" in caplog.text
        assert not os.path.isdir(os.path.join(store_dir, ".ingest-tmp"))
        store.validate()

"""One index layout: narrow columns are written, wide ones are still read.

Builds up to commit 73ce086 could write every index column as int64
(``index_dtype="wide"``).  Every writer now emits the narrow columns of
:func:`repro.columns.index_dtypes_for_shape`, byte for byte as that commit
wrote them by default, and the readers keep reading the wide files already
on disk.  The fixtures under ``data/`` were written by that commit with::

    tensor = random_sparse_tensor((9, 7, 300), nnz=60, seed=33)
    ShardStore.build(tensor, "data/wide-store", shard_nnz=32, index_dtype="wide")
    save_rcoo(tensor, "data/wide.rcoo", block_nnz=25, index_dtype="wide")
    ShardStore.build(tensor, "data/narrow-store", shard_nnz=32)
    save_rcoo(tensor, "data/narrow.rcoo", block_nnz=25)

Tests that write into a store work on a ``tmp_path`` copy, so the
fixtures stay as written.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.columns import index_dtypes_for_shape
from repro.core import PTucker, PTuckerConfig
from repro.core.row_update import InMemorySource, update_factor_mode
from repro.data import random_sparse_tensor
from repro.exceptions import DataFormatError, ShapeError
from repro.kernels.backends import available_backends
from repro.kernels.microbench import _write_wide_copy
from repro.shards import ShardStore, ShardedSweepExecutor
from repro.shards.store import MANIFEST_NAME
from repro.tensor import SparseTensor
from repro.tensor.io import RcooEntryReader, load_rcoo, save_rcoo
from repro.updates import DeltaLog, compact

DATA = os.path.join(os.path.dirname(__file__), "data")
SHARD_NNZ = 32
INT64 = (np.dtype(np.int64),) * 3


def fixture_tensor():
    return random_sparse_tensor((9, 7, 300), nnz=60, seed=33)


def snapshot(directory):
    """Relative path -> bytes for every file under ``directory``."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


@pytest.fixture
def wide_dir(tmp_path):
    """A private copy of the parent-written wide store."""
    directory = str(tmp_path / "wide")
    shutil.copytree(os.path.join(DATA, "wide-store"), directory)
    return directory


@pytest.fixture
def narrow(tmp_path):
    """The store this build writes for the same tensor."""
    return ShardStore.build(
        fixture_tensor(), str(tmp_path / "narrow"), shard_nnz=SHARD_NNZ
    )


def factors_and_core(shape, ranks, seed=5):
    rng = np.random.default_rng(seed)
    factors = [rng.uniform(-0.5, 0.5, size=(d, r)) for d, r in zip(shape, ranks)]
    return factors, rng.uniform(-0.5, 0.5, size=ranks)


class TestWideStore:
    def test_opens_and_passes_shards_verify(self, wide_dir, store_oracle, capsys):
        store = ShardStore.open(wide_dir)
        assert store.index_dtypes == INT64
        assert store.index_bytes_per_entry == 24
        store_oracle(store, fixture_tensor())
        assert cli_main(["shards-verify", wide_dir]) == 0
        assert ": OK" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "procpool"])
    def test_sweeps_bitwise_equal_to_narrow(self, wide_dir, narrow, backend, bitwise):
        """int64 column blocks and narrow ones give the same bits."""
        wide = ShardStore.open(wide_dir)
        assert narrow.index_dtypes != wide.index_dtypes
        factors, core = factors_and_core(wide.shape, (3, 2, 4))
        for mode in range(wide.order):
            results = []
            for source in (wide, narrow, InMemorySource.build(fixture_tensor())):
                fresh = [np.array(f, copy=True) for f in factors]
                update_factor_mode(
                    source, fresh, core, mode, 0.01, block_size=20,
                    backend=backend,
                )
                results.append(fresh[mode])
            bitwise(results[1], results[0], f"narrow vs wide, mode {mode}")
            bitwise(results[2], results[0], f"in-core vs wide, mode {mode}")

    def test_fit_bitwise_equal_in_core_and_sharded(self, wide_dir, narrow, bitwise):
        tensor = fixture_tensor()
        config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3)
        fits = {
            "in-core": PTucker(config).fit(tensor),
            "narrow": ShardedSweepExecutor(narrow).fit(config),
            "wide": ShardedSweepExecutor(ShardStore.open(wide_dir)).fit(config),
        }
        # fit(shard_dir=...) reuses the matching wide store as it is.
        before = snapshot(wide_dir)
        sharded = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=3, shard_dir=wide_dir,
            shard_nnz=SHARD_NNZ,
        )
        fits["for_tensor"] = PTucker(sharded).fit(tensor)
        assert snapshot(wide_dir) == before
        reference = fits.pop("in-core")
        for name, fit in fits.items():
            bitwise(fit.core, reference.core, f"{name} core")
            for mode, factor in enumerate(fit.factors):
                bitwise(factor, reference.factors[mode], f"{name} factor {mode}")
            assert fit.trace.errors == reference.trace.errors, name

    def test_delta_then_compaction_writes_the_narrow_build(self, wide_dir, tmp_path):
        wide = ShardStore.open(wide_dir)
        rng = np.random.default_rng(8)
        delta = SparseTensor(
            np.stack([rng.integers(0, d, 7) for d in wide.shape], axis=1),
            rng.normal(size=7),
            wide.shape,
        )
        delta_path = str(tmp_path / "delta.rcoo")
        save_rcoo(delta, delta_path)
        DeltaLog.open(wide_dir).append(delta_path, wide.shape)
        base = wide.to_tensor()
        union = SparseTensor(
            np.concatenate([base.indices, delta.indices]),
            np.concatenate([base.values, delta.values]),
            wide.shape,
        )
        fresh = ShardStore.build(union, str(tmp_path / "fresh"), shard_nnz=SHARD_NNZ)
        compacted = compact(wide_dir)
        assert compacted.index_dtypes == index_dtypes_for_shape(wide.shape)
        compacted.validate()
        assert snapshot(compacted.directory) == snapshot(fresh.directory)


class TestDefaultBytes:
    """Every writer emits what the parent build wrote under its default."""

    def test_store_build_matches_the_parent_narrow_store(self, narrow):
        assert snapshot(narrow.directory) == snapshot(
            os.path.join(DATA, "narrow-store")
        )
        with open(narrow.manifest_path(), encoding="utf-8") as handle:
            dtypes = json.load(handle)["dtypes"]
        # "auto" stays recorded, so builds that predate this one open it.
        assert dtypes == {
            "index_columns": ["uint8", "uint8", "uint16"],
            "index_dtype": "auto",
            "values": "float64",
        }

    def test_rcoo_matches_the_parent_narrow_rcoo(self, tmp_path):
        path = str(tmp_path / "t.rcoo")
        save_rcoo(fixture_tensor(), path, block_nnz=25)
        with open(path, "rb") as mine, open(
            os.path.join(DATA, "narrow.rcoo"), "rb"
        ) as parent:
            assert mine.read() == parent.read()


class TestManifestPolicy:
    def _rewrite(self, directory, **dtypes):
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["dtypes"].update(dtypes)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

    def test_unknown_policy_is_refused(self, wide_dir):
        self._rewrite(wide_dir, index_dtype="narrow")
        with pytest.raises(DataFormatError, match="unknown index_dtype"):
            ShardStore.open(wide_dir)

    def test_wide_policy_with_narrow_columns_is_refused(self, narrow):
        self._rewrite(narrow.directory, index_dtype="wide")
        with pytest.raises(DataFormatError, match="'wide' policy"):
            ShardStore.open(narrow.directory)


class TestFrozenWideCopy:
    """The microbench's int64 baseline is the store the wide policy wrote."""

    def test_copy_is_the_parent_wide_store_byte_for_byte(self, narrow, tmp_path):
        copy = str(tmp_path / "copy")
        _write_wide_copy(narrow, copy)
        assert snapshot(copy) == snapshot(os.path.join(DATA, "wide-store"))

    @pytest.mark.parametrize("order", [4, 5])
    def test_int64_columns_sweep_bitwise_equal(self, order, tmp_path, bitwise):
        shape = (13, 300, 9, 70_000, 5)[:order]
        ranks = (3, 2, 4, 2, 3)[:order]
        tensor = random_sparse_tensor(shape, nnz=600, seed=order)
        narrow = ShardStore.build(tensor, str(tmp_path / "narrow"), shard_nnz=150)
        _write_wide_copy(narrow, str(tmp_path / "wide"))
        wide = ShardStore.open(str(tmp_path / "wide"))
        assert wide.index_dtypes == (np.dtype(np.int64),) * order
        factors, core = factors_and_core(shape, ranks)
        for backend in available_backends():
            for mode in range(order):
                results = []
                for source in (wide, narrow):
                    fresh = [np.array(f, copy=True) for f in factors]
                    update_factor_mode(
                        source, fresh, core, mode, 0.01, block_size=150,
                        backend=backend,
                    )
                    results.append(fresh[mode])
                bitwise(results[1], results[0], f"{backend} mode {mode}")


class TestWideRcoo:
    def test_loads_equal_to_narrow(self, tmp_path):
        wide_path = os.path.join(DATA, "wide.rcoo")
        narrow_path = str(tmp_path / "narrow.rcoo")
        save_rcoo(fixture_tensor(), narrow_path, block_nnz=25)
        assert RcooEntryReader(wide_path).index_dtypes == INT64
        assert RcooEntryReader(narrow_path).index_dtypes == index_dtypes_for_shape(
            (9, 7, 300)
        )
        wide, narrow = load_rcoo(wide_path), load_rcoo(narrow_path)
        assert wide.shape == narrow.shape
        assert wide.indices.tobytes() == narrow.indices.tobytes()
        assert wide.values.tobytes() == narrow.values.tobytes()

    def test_ingests_into_the_narrow_store(self, narrow, tmp_path):
        out = str(tmp_path / "ingested")
        code = cli_main(
            ["ingest", os.path.join(DATA, "wide.rcoo"), "--out", out,
             "--shard-nnz", str(SHARD_NNZ)]
        )
        assert code == 0
        assert snapshot(out) == snapshot(narrow.directory)


class TestNoWidePolicy:
    @pytest.mark.parametrize(
        "argv",
        [["fit", "t.tns", "--ranks", "2"], ["ingest", "t.tns", "--out", "s"]],
        ids=["fit", "ingest"],
    )
    def test_index_dtype_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--index-dtype", "wide"])
        assert excinfo.value.code == 2
        assert "--index-dtype" in capsys.readouterr().err

    def test_config_refuses_wide(self):
        with pytest.raises(ShapeError, match="index_dtype"):
            PTuckerConfig(index_dtype="wide")

    def test_for_tensor_refuses_wide(self, tmp_path):
        with pytest.raises(ShapeError, match="index_dtype"):
            ShardStore.for_tensor(
                fixture_tensor(), str(tmp_path / "s"), index_dtype="wide"
            )
        assert not os.path.exists(tmp_path / "s")

"""Tests for the chunked binary rcoo COO container.

Round-trips (tensor and text-sourced writes, multi-block files, empty
tensors, wide and narrow dtypes), `open_entry_reader` dispatch by magic and
extension, and the diagnostics for bad magic / truncated files.
"""

import os
import struct

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import random_sparse_tensor
from repro.exceptions import DataFormatError, ShapeError
from repro.shards import ShardStore
from repro.tensor import (
    RcooEntryReader,
    SparseTensor,
    TensorEntryReader,
    TextEntryReader,
    load_rcoo,
    open_entry_reader,
    save_rcoo,
    save_text,
    write_rcoo,
)
from repro.tensor.io import RCOO_MAGIC, _RCOO_NNZ_OFFSET


@pytest.fixture
def tensor():
    return random_sparse_tensor((300, 23, 12), nnz=700, seed=9)


class TestRoundTrip:
    @pytest.mark.parametrize("block_nnz", [64, 700, 10_000])
    def test_save_load_round_trip(self, tensor, tmp_path, block_nnz):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path, block_nnz=block_nnz)
        restored = load_rcoo(path)
        assert restored.shape == tensor.shape
        np.testing.assert_array_equal(restored.indices, tensor.indices)
        np.testing.assert_array_equal(restored.values, tensor.values)

    def test_header_records_narrow_dtypes(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path)
        reader = RcooEntryReader(path)
        assert reader.shape == tensor.shape
        assert reader.nnz == tensor.nnz
        assert reader.index_dtypes == (
            np.dtype(np.uint16),  # dim 300
            np.dtype(np.uint8),
            np.dtype(np.uint8),
        )

    def test_chunks_are_bounded(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path, block_nnz=128)
        reader = RcooEntryReader(path)
        chunks = list(reader.iter_entry_chunks(100))
        assert all(i.shape[0] <= 100 for i, _ in chunks)
        assert sum(i.shape[0] for i, _ in chunks) == tensor.nnz
        indices = np.concatenate([i for i, _ in chunks])
        np.testing.assert_array_equal(indices, tensor.indices)

    def test_empty_tensor_round_trips(self, tmp_path):
        empty = SparseTensor(
            np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6)
        )
        path = tmp_path / "empty.rcoo"
        save_rcoo(empty, path)
        restored = load_rcoo(path)
        assert restored.nnz == 0
        assert restored.shape == (4, 5, 6)

    def test_text_sourced_header_nnz_is_back_patched(self, tensor, tmp_path):
        """The entry count is unknown until the stream ends: ragged text
        blocks regrouped into 128-entry blocks (the last one partial) leave
        the header's nnz field, patched after the last block, at 700."""
        text = tmp_path / "t.tns"
        save_text(tensor, text)
        path = tmp_path / "t.rcoo"
        reader = TextEntryReader(text, shape=tensor.shape, chunk_bytes=100)
        write_rcoo(reader, path, block_nnz=128)
        with open(path, "rb") as fh:
            fh.seek(_RCOO_NNZ_OFFSET)
            (nnz,) = struct.unpack("<Q", fh.read(8))
        assert nnz == tensor.nnz == 700
        restored = RcooEntryReader(path)
        assert restored.nnz == nnz
        header_bytes = restored._data_offset
        entry_bytes = sum(d.itemsize for d in restored.index_dtypes) + 8
        assert os.path.getsize(path) == header_bytes + nnz * entry_bytes
        np.testing.assert_array_equal(load_rcoo(path).indices, tensor.indices)

    def test_streamed_write_infers_shape_from_text(self, tensor, tmp_path):
        """A shapeless text reader triggers the extra inference pass."""
        text = tmp_path / "t.tns"
        save_text(tensor, text)
        path = tmp_path / "t.rcoo"
        shape = write_rcoo(TextEntryReader(text), path, block_nnz=200)
        assert shape == tensor.shape
        restored = load_rcoo(path)
        np.testing.assert_array_equal(restored.indices, tensor.indices)
        np.testing.assert_array_equal(restored.values, tensor.values)

    def test_write_rcoo_rejects_out_of_shape_indices(self, tensor, tmp_path):
        with pytest.raises(ShapeError):
            write_rcoo(
                TensorEntryReader(tensor),
                tmp_path / "bad.rcoo",
                shape=(10, 10, 10),
            )

    def test_ingest_to_store_matches_direct_build(self, tensor, tmp_path):
        """text -> rcoo -> store equals text -> store (entry order is
        preserved through the container)."""
        rcoo_path = tmp_path / "t.rcoo"
        save_rcoo(tensor, rcoo_path, block_nnz=96)
        via_rcoo = ShardStore.build_streaming(
            RcooEntryReader(rcoo_path), tmp_path / "via-rcoo", shard_nnz=150
        )
        direct = ShardStore.build(tensor, tmp_path / "direct", shard_nnz=150)
        assert via_rcoo.matches(tensor)
        assert via_rcoo.fingerprint == direct.fingerprint


class TestDispatch:
    def test_open_entry_reader_by_extension(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path)
        assert isinstance(open_entry_reader(path), RcooEntryReader)

    def test_open_entry_reader_by_magic_sniff(self, tensor, tmp_path):
        path = tmp_path / "mystery.bin"
        save_rcoo(tensor, path)
        assert isinstance(open_entry_reader(path), RcooEntryReader)

    def test_text_files_still_dispatch_to_text(self, tensor, tmp_path):
        path = tmp_path / "t.tns"
        save_text(tensor, path)
        assert isinstance(open_entry_reader(path), TextEntryReader)

    def test_cli_ingest_format_rcoo(self, tensor, tmp_path, capsys):
        text = tmp_path / "t.tns"
        save_text(tensor, text)
        out = tmp_path / "t.rcoo"
        code = cli_main(
            ["ingest", str(text), "--format", "rcoo", "--out", str(out)]
        )
        assert code == 0
        assert "rcoo container" in capsys.readouterr().out
        restored = load_rcoo(out)
        np.testing.assert_array_equal(restored.indices, tensor.indices)
        np.testing.assert_array_equal(restored.values, tensor.values)


class TestDiagnostics:
    def test_bad_magic_raises_with_both_magics(self, tmp_path):
        path = tmp_path / "not.rcoo"
        path.write_bytes(b"PK\x03\x04 definitely a zip")
        with pytest.raises(DataFormatError) as excinfo:
            RcooEntryReader(path)
        message = str(excinfo.value)
        assert "bad magic" in message
        assert "RCOO" in message

    def test_truncated_prefix_raises(self, tmp_path):
        path = tmp_path / "t.rcoo"
        path.write_bytes(RCOO_MAGIC + b"\x01")
        with pytest.raises(DataFormatError, match="truncated rcoo header"):
            RcooEntryReader(path)

    def test_truncated_shape_table_raises(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path)
        data = path.read_bytes()
        path.write_bytes(data[: _RCOO_NNZ_OFFSET + 10])
        with pytest.raises(DataFormatError, match="truncated rcoo header"):
            RcooEntryReader(path)

    def test_truncated_block_names_missing_bytes(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path, block_nnz=256)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        reader = RcooEntryReader(path)  # header is intact
        with pytest.raises(DataFormatError) as excinfo:
            list(reader.iter_entry_chunks(256))
        message = str(excinfo.value)
        assert "truncated rcoo container" in message
        assert "expected" in message and "got" in message

    def test_unknown_version_raises(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version byte
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version 99"):
            RcooEntryReader(path)

    def test_unknown_dtype_code_raises(self, tensor, tmp_path):
        path = tmp_path / "t.rcoo"
        save_rcoo(tensor, path)
        data = bytearray(path.read_bytes())
        # Last header byte before the blocks is the value-column code.
        order = 3
        data[struct.calcsize("<4sBBHIQ") + 8 * order + order] = 77
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="dtype code"):
            RcooEntryReader(path)

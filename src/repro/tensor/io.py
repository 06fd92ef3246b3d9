"""Reading and writing sparse tensors: text, ``.npz``, ``.rcoo`` and shards.

The P-Tucker release reads whitespace-separated text files where each line is
``i_1 i_2 ... i_N value`` (1-based indices).  This module reads and writes
that format, auto-detects the tensor shape when one is not given, supports a
simple ``.npz`` binary round-trip for faster test fixtures, implements the
chunked binary **rcoo** COO container (magic + fixed header + fixed-size
blocks with narrow per-column index dtypes, so huge files stream in
bounded memory instead of decompressing whole ``.npz`` arrays; written by
:func:`write_rcoo` alone — :func:`save_rcoo` feeds it a tensor — and read
by :class:`RcooEntryReader`), and exports / imports the out-of-core
shard-store format of :mod:`repro.shards` (:func:`save_shards` /
:func:`load_shards`).

Every input format is exposed through the chunked *entry reader* protocol:
an object with a ``shape`` attribute (``None`` when not yet known) and an
``iter_entry_chunks(chunk_nnz)`` method yielding ``(indices, values)`` array
pairs of at most ``chunk_nnz`` entries, in file order.  Readers exist for
text files (:class:`TextEntryReader` — vectorized parsing, bounded memory),
``.npz`` archives (:class:`NpzEntryReader`), rcoo containers
(:class:`RcooEntryReader`), in-RAM tensors (:class:`TensorEntryReader`) and
shard stores (:class:`ShardEntryReader`).  The shard-store builder
(:meth:`repro.shards.ShardStore.build_streaming`, which
:meth:`~repro.shards.ShardStore.build` and :func:`save_shards` also run)
consumes any of them, so a raw text file can become an on-disk store —
and then a fitted model — without the tensor ever existing in RAM.

Text parsing is tiered for speed: a fully vectorized parser
(:mod:`repro.tensor.textparse`) handles plain numeric blocks an order of
magnitude faster than per-line Python, ``numpy.loadtxt`` covers blocks with
comments or unusual formatting, and only a block that actually fails is
re-scanned line by line to raise :class:`~repro.exceptions.DataFormatError`
with the exact offending line number.  Files are read as UTF-8 (a leading
BOM is skipped, and non-ASCII bytes in comments are tolerated).
"""

from __future__ import annotations

import codecs
import os
import struct
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..columns import index_dtypes_for_shape
from ..exceptions import DataFormatError, ShapeError
from ..resilience.atomic import atomic_open
from .coo import SparseTensor
from .textparse import loadtxt_block, parse_numeric_block

PathLike = Union[str, "os.PathLike[str]"]

EntryChunk = Tuple[np.ndarray, np.ndarray]

#: Default entries per chunk yielded by ``iter_entry_chunks``.
DEFAULT_CHUNK_NNZ = 500_000

#: Default bytes per file read in :class:`TextEntryReader`.
DEFAULT_CHUNK_BYTES = 1 << 24

#: Entries per parsed block.  The vectorized parser keeps ~10 state
#: vectors per entry alive at once; above ~128k entries they fall out of
#: cache and the sweep turns memory-bound, so larger consumer chunks are
#: assembled from several parses of this size.
PARSE_BLOCK_NNZ = 131_072


def save_text(tensor: SparseTensor, path: PathLike, one_based: bool = True) -> None:
    """Write a sparse tensor as ``i_1 ... i_N value`` lines."""
    offset = 1 if one_based else 0
    with open(path, "w", encoding="utf-8") as handle:
        for row, value in zip(tensor.indices, tensor.values):
            cols = " ".join(str(int(i) + offset) for i in row)
            handle.write(f"{cols} {value:.17g}\n")


class TextEntryReader:
    """Chunked, vectorized reader of ``i_1 ... i_N value`` text files.

    Reads the file in fixed-size byte chunks (``chunk_bytes``), keeps the
    trailing partial line as carry-over for the next chunk, and parses each
    complete-line block through the tiers of :mod:`repro.tensor.textparse`.
    Peak memory is bounded by the byte chunk plus one parsed block — never
    by the file size.  Malformed input raises
    :class:`~repro.exceptions.DataFormatError` naming ``path:line`` exactly
    as the historical per-line parser did, including for lines that were
    split across byte-chunk boundaries.

    Parameters
    ----------
    path:
        Text file to read.
    shape:
        Optional mode lengths; indices are then bounds-checked per chunk.
        When omitted, ``shape`` stays ``None`` and consumers infer it.
    one_based:
        Subtract one from every index (the paper's file convention).
    chunk_bytes:
        Bytes per file read (floored at 16; the default is 16 MiB).
    """

    def __init__(
        self,
        path: PathLike,
        shape: Optional[Sequence[int]] = None,
        one_based: bool = True,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        self.path = os.fspath(path)
        self.shape: Optional[Tuple[int, ...]] = (
            tuple(int(s) for s in shape) if shape is not None else None
        )
        self.one_based = bool(one_based)
        self.chunk_bytes = max(int(chunk_bytes), 16)
        self._order: Optional[int] = (
            len(self.shape) if self.shape is not None else None
        )

    @property
    def order(self) -> Optional[int]:
        """Number of index columns (None until the first entry is seen)."""
        return self._order

    # ------------------------------------------------------------------
    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[EntryChunk]:
        """Yield ``(indices, values)`` pairs of at most ``chunk_nnz`` entries."""
        if chunk_nnz < 1:
            raise ShapeError("chunk_nnz must be positive")
        yield from _exact_chunks(self._iter_blocks(chunk_nnz), chunk_nnz)

    def _read_size(self, target_nnz: int, bytes_per_entry: float) -> int:
        """Bytes per file read: aims at ``target_nnz`` entries per block.

        Capped by ``chunk_bytes`` and the file size (``read(n)``
        preallocates an ``n``-byte buffer, which would charge every small
        file a full ``chunk_bytes`` of peak memory), so the parser's
        working set tracks the consumer's chunk size rather than the file.
        """
        size = int(min(target_nnz, PARSE_BLOCK_NNZ) * bytes_per_entry * 1.25)
        try:
            size = min(size, os.path.getsize(self.path))
        except OSError:
            pass
        return max(16, min(self.chunk_bytes, size))

    def _iter_blocks(self, target_nnz: int = 2**62) -> Iterator[EntryChunk]:
        """Parse the file one byte chunk at a time (complete lines only)."""
        carry = b""
        lineno = 0
        first = True
        read_size = self._read_size(target_nnz, 16.0)  # ~16 B/entry guess
        with open(self.path, "rb") as handle:
            while True:
                data = handle.read(read_size)
                if not data:
                    break
                if first:
                    data = data.removeprefix(codecs.BOM_UTF8)
                    first = False
                data = carry + data
                cut = data.rfind(b"\n")
                if cut < 0:
                    carry = data
                    continue
                block, carry = data[: cut + 1], data[cut + 1 :]
                parsed = self._parse_block(block, lineno)
                yield parsed
                lineno += block.count(b"\n")
                if parsed[0].shape[0]:
                    read_size = self._read_size(
                        target_nnz, len(block) / parsed[0].shape[0]
                    )
        if carry:
            yield self._parse_block(carry, lineno)

    # ------------------------------------------------------------------
    def _parse_block(self, block: bytes, lineno_base: int) -> EntryChunk:
        """One complete-line block as validated ``(indices, values)`` arrays."""
        if self._order is None:
            self._order = _detect_order(block)
            if self._order is None:  # no data lines in this block
                return _empty_chunk(0)
        ncols = self._order + 1
        got = parse_numeric_block(block, ncols) if ncols >= 2 else None
        if got is not None:
            indices, values = got
        else:
            table = loadtxt_block(block)
            if table is None:
                return self._rescan(block, lineno_base)
            if table.shape[0] == 0:
                return _empty_chunk(self._order)
            if table.shape[1] != ncols:
                return self._rescan(block, lineno_base)
            raw = table[:, :-1]
            with np.errstate(invalid="ignore"):  # out-of-int64 floats
                indices = raw.astype(np.int64)
            if not np.array_equal(indices, raw):
                return self._rescan(block, lineno_base)
            values = np.ascontiguousarray(table[:, -1])
        return self._finalize(indices, values, block, lineno_base)

    def _finalize(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        block: bytes,
        lineno_base: int,
    ) -> EntryChunk:
        """Apply the index base and bounds checks (re-scan on violation)."""
        if self.one_based:
            indices -= 1  # the parse tiers hand over a fresh array
        if indices.size and int(indices.min()) < 0:
            return self._rescan(block, lineno_base)
        if self.shape is not None and indices.size:
            bound = np.asarray(self.shape, dtype=np.int64)
            if (indices >= bound[None, :]).any():
                return self._rescan(block, lineno_base)
        return indices, values

    def _rescan(self, block: bytes, lineno_base: int) -> EntryChunk:
        """Reference per-line parse of a failing block, for exact diagnostics.

        Raises :class:`~repro.exceptions.DataFormatError` naming the first
        offending line; if everything parses after all (e.g. the fast tiers
        only stumbled over encoding), its result is used as-is.
        """
        text = block.decode("utf-8", errors="replace")
        rows: List[List[int]] = []
        values: List[float] = []
        for offset, raw in enumerate(text.split("\n")):
            lineno = lineno_base + offset + 1
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise DataFormatError(
                    f"{self.path}:{lineno}: expected at least one index and "
                    "a value"
                )
            if self._order is None:
                self._order = len(parts) - 1
            elif len(parts) - 1 != self._order:
                raise DataFormatError(
                    f"{self.path}:{lineno}: expected {self._order} indices, "
                    f"got {len(parts) - 1}"
                )
            try:
                idx = [_parse_index_token(p) for p in parts[:-1]]
                val = float(parts[-1])
            except ValueError as exc:
                raise DataFormatError(f"{self.path}:{lineno}: {exc}") from exc
            if self.one_based:
                idx = [i - 1 for i in idx]
            if any(i < 0 for i in idx):
                raise DataFormatError(
                    f"{self.path}:{lineno}: negative index after applying "
                    "base offset"
                )
            if self.shape is not None and any(
                i >= s for i, s in zip(idx, self.shape)
            ):
                raise DataFormatError(
                    f"{self.path}:{lineno}: index exceeds shape {self.shape}"
                )
            rows.append(idx)
            values.append(val)
        if not rows:
            return _empty_chunk(self._order or 0)
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )


def _parse_index_token(token: str) -> int:
    """An index field as int64; integral floats ('3', '3.0', '3e2') accepted.

    Raises ``ValueError`` (which callers wrap into a ``path:line``
    :class:`~repro.exceptions.DataFormatError`) for non-integral and
    out-of-int64-range tokens alike — a bare Python int would otherwise
    surface later as an uninformative ``OverflowError`` from NumPy.
    """
    try:
        result = int(token)
    except ValueError:
        value = float(token)  # ValueError propagates to the caller's wrapper
        result = int(value)
        if result != value:
            raise ValueError(f"index {token!r} is not an integer") from None
    if not -(2 ** 63) <= result < 2 ** 63:
        raise ValueError(f"index {token!r} overflows 64-bit integers")
    return result


def _detect_order(block: bytes) -> Optional[int]:
    """Index-column count of the first data line in ``block`` (None if none)."""
    position = 0
    while position < len(block):
        newline = block.find(b"\n", position)
        if newline < 0:
            newline = len(block)
        line = block[position:newline].split(b"#", 1)[0].strip()
        if line:
            return max(len(line.split()) - 1, 1)
        position = newline + 1
    return None


def _empty_chunk(order: int) -> EntryChunk:
    return (
        np.empty((0, order), dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _join_chunks(chunks: Sequence[EntryChunk]) -> EntryChunk:
    """One ``(indices, values)`` pair from a non-empty list of chunks."""
    if len(chunks) == 1:
        return chunks[0]
    return (
        np.concatenate([i for i, _ in chunks]),
        np.concatenate([v for _, v in chunks]),
    )


def _exact_chunks(
    blocks: Iterator[EntryChunk], chunk_nnz: int
) -> Iterator[EntryChunk]:
    """Regroup variable-size parsed blocks into exact ``chunk_nnz`` chunks.

    The final chunk carries the remainder; empty blocks are dropped.  The
    regrouping is deterministic, so a fixed ``chunk_nnz`` always produces
    the same chunk boundaries for the same input.
    """
    pending: List[EntryChunk] = []
    count = 0
    for indices, values in blocks:
        if indices.shape[0] == 0:
            continue
        pending.append((indices, values))
        count += indices.shape[0]
        if count < chunk_nnz:
            continue
        whole_idx, whole_val = _join_chunks(pending)
        full = (count // chunk_nnz) * chunk_nnz
        for start in range(0, full, chunk_nnz):
            yield (
                whole_idx[start : start + chunk_nnz],
                whole_val[start : start + chunk_nnz],
            )
        pending = []
        count -= full
        if count:
            pending = [(whole_idx[full:], whole_val[full:])]
    if count:
        yield _join_chunks(pending)


class NpzEntryReader:
    """Chunked reader over a ``.npz`` archive written by :func:`save_npz`.

    The archive's arrays are decompressed whole (that is how ``.npz``
    works), so this reader bounds the *downstream* working set — the
    chunks handed to a streaming consumer — rather than the decompression
    buffer itself.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        with np.load(self.path) as data:
            missing = {"indices", "values", "shape"} - set(data.files)
            if missing:
                raise DataFormatError(
                    f"{self.path}: missing arrays {sorted(missing)}"
                )
            self.shape: Tuple[int, ...] = tuple(
                int(s) for s in data["shape"]
            )

    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return len(self.shape)

    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[EntryChunk]:
        """Yield ``(indices, values)`` pairs of at most ``chunk_nnz`` entries."""
        if chunk_nnz < 1:
            raise ShapeError("chunk_nnz must be positive")
        with np.load(self.path) as data:
            indices = np.asarray(data["indices"], dtype=np.int64)
            values = np.asarray(data["values"], dtype=np.float64)
            if indices.ndim != 2 or values.shape != (indices.shape[0],):
                raise DataFormatError(
                    f"{self.path}: indices/values arrays are inconsistent"
                )
            for start in range(0, indices.shape[0], chunk_nnz):
                stop = start + chunk_nnz
                yield indices[start:stop], values[start:stop]


# ----------------------------------------------------------------------
# The rcoo chunked binary COO container
# ----------------------------------------------------------------------

#: First bytes of every rcoo container.
RCOO_MAGIC = b"RCOO"

#: Current container version.
RCOO_VERSION = 1

#: Default entries per rcoo block (~1-3 MB per block at typical orders).
DEFAULT_RCOO_BLOCK_NNZ = 262_144

#: On-disk dtype codes (1 byte per column in the header).
_RCOO_DTYPE_CODES = {
    np.dtype(np.uint8): 1,
    np.dtype(np.uint16): 2,
    np.dtype(np.uint32): 3,
    np.dtype(np.int64): 4,
    np.dtype(np.float64): 5,
}
_RCOO_CODE_DTYPES = {code: dtype for dtype, code in _RCOO_DTYPE_CODES.items()}

#: Fixed-size header prefix: magic, version (u1), order (u1), reserved
#: (u2), block_nnz (u4), nnz (u8) — all little-endian.  ``order`` u8
#: shape dims and ``order + 1`` dtype-code bytes follow.
_RCOO_PREFIX = struct.Struct("<4sBBHIQ")

#: Byte offset of the nnz field (patched after a streamed write).
_RCOO_NNZ_OFFSET = 12


def _rcoo_header_bytes(
    shape: Sequence[int],
    nnz: int,
    block_nnz: int,
    index_dtypes: Sequence[np.dtype],
) -> bytes:
    order = len(shape)
    if not 1 <= order <= 255:
        raise ShapeError("rcoo supports orders 1..255")
    prefix = _RCOO_PREFIX.pack(
        RCOO_MAGIC, RCOO_VERSION, order, 0, int(block_nnz), int(nnz)
    )
    dims = struct.pack(f"<{order}Q", *(int(s) for s in shape))
    codes = bytes(
        [_RCOO_DTYPE_CODES[np.dtype(d)] for d in index_dtypes]
        + [_RCOO_DTYPE_CODES[np.dtype(np.float64)]]
    )
    return prefix + dims + codes


def save_rcoo(
    tensor: SparseTensor,
    path: PathLike,
    block_nnz: int = DEFAULT_RCOO_BLOCK_NNZ,
) -> None:
    """Write a sparse tensor as a chunked binary rcoo container.

    Layout: the :data:`RCOO_MAGIC` magic, a fixed header (version, order,
    block size, nnz, shape, per-column dtype codes), then
    ``ceil(nnz / block_nnz)`` fixed-size blocks, each holding the block's
    index columns — every column in the narrowest dtype its mode dimension
    admits — followed by its float64 values.  Unlike ``.npz``, the format
    has no compression layer to inflate whole arrays through:
    :class:`RcooEntryReader` streams it back one block at a time in
    bounded memory.  The tensor is streamed through :func:`write_rcoo`,
    the one rcoo writer.
    """
    write_rcoo(
        TensorEntryReader(tensor),
        path,
        block_nnz=block_nnz,
        shape=tensor.shape,
    )


def write_rcoo(
    source,
    path: PathLike,
    block_nnz: int = DEFAULT_RCOO_BLOCK_NNZ,
    shape: Optional[Sequence[int]] = None,
) -> Tuple[int, ...]:
    """Stream any chunked entry source into an rcoo container; return its shape.

    The shape comes from ``shape``, the source's own ``shape`` attribute,
    or — when neither exists (a shapeless text reader) — one extra
    bounded-memory pass over the source that records per-mode maxima.
    That inference pass re-reads the input, roughly doubling ingest wall
    time on big text files; it is unavoidable here because the block
    *encoding* (the narrow per-column dtypes) is fixed by the shape
    before the first block is written, so the shape cannot simply be
    back-patched later the way nnz is.  Sources that know their shape
    (``.npz``, shard stores, rcoo, text with an explicit ``shape=``)
    stream in a single pass.  The entry count is never needed up front:
    blocks are written as chunks arrive and the header's nnz field is
    patched afterwards (the :data:`_RCOO_NNZ_OFFSET` field exists for
    exactly this).  Peak memory is one ``block_nnz`` chunk either way.
    """
    if block_nnz < 1:
        raise ShapeError("block_nnz must be positive")
    if shape is None:
        shape = getattr(source, "shape", None)
    if shape is None:
        order = None
        maxima = None
        for indices, _ in source.iter_entry_chunks(block_nnz):
            indices = np.asarray(indices)
            if indices.shape[0] == 0:
                continue
            if maxima is None:
                order = indices.shape[1]
                maxima = np.zeros(order, dtype=np.int64)
            np.maximum(maxima, indices.max(axis=0), out=maxima)
        if maxima is None:
            raise DataFormatError(
                "entry source produced no entries and no shape; an empty "
                "rcoo container needs an explicit shape"
            )
        shape = tuple(int(m) + 1 for m in maxima)
    shape = tuple(int(s) for s in shape)
    dtypes = index_dtypes_for_shape(shape)
    bound = np.asarray(shape, dtype=np.int64)
    nnz = 0
    # Atomic write; the nnz back-patch below happens on the temporary
    # before the rename, so readers only ever see a complete container.
    with atomic_open(path) as handle:
        handle.write(_rcoo_header_bytes(shape, 0, block_nnz, dtypes))
        for indices, values in _exact_chunks(
            source.iter_entry_chunks(block_nnz), block_nnz
        ):
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            values = np.ascontiguousarray(values, dtype=np.float64)
            if indices.ndim != 2 or indices.shape[1] != len(shape):
                raise DataFormatError(
                    f"entry source yielded order-{indices.shape[-1]} chunks "
                    f"for an order-{len(shape)} shape"
                )
            if indices.shape[0] and (
                int(indices.min()) < 0 or (indices >= bound[None, :]).any()
            ):
                raise ShapeError("an index exceeds the tensor shape")
            if not np.isfinite(values).all():
                raise ShapeError("tensor values must be finite")
            # One block: each index column in its narrow dtype, then values.
            for k, dtype in enumerate(dtypes):
                handle.write(
                    np.ascontiguousarray(indices[:, k], dtype=dtype).tobytes()
                )
            handle.write(values.tobytes())
            nnz += indices.shape[0]
        handle.seek(_RCOO_NNZ_OFFSET)
        handle.write(struct.pack("<Q", nnz))
    return shape


class RcooEntryReader:
    """Chunked reader over an rcoo container written by :func:`save_rcoo`.

    Parses the fixed header eagerly (raising
    :class:`~repro.exceptions.DataFormatError` on a bad magic, an unknown
    version/dtype code, or a truncated header) and streams the fixed-size
    blocks on demand: one block of narrow index columns plus values is
    resident at a time, re-grouped to the consumer's ``chunk_nnz`` — this
    is the bounded-RAM binary ingest path that ``.npz`` (whole-archive
    decompression) cannot provide.  A file that ends mid-block raises a
    :class:`~repro.exceptions.DataFormatError` naming the missing bytes.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as handle:
            prefix = handle.read(_RCOO_PREFIX.size)
            if len(prefix) < 4 or prefix[:4] != RCOO_MAGIC:
                raise DataFormatError(
                    f"{self.path}: not an rcoo container (bad magic "
                    f"{prefix[:4]!r}, expected {RCOO_MAGIC!r})"
                )
            if len(prefix) < _RCOO_PREFIX.size:
                raise DataFormatError(
                    f"{self.path}: truncated rcoo header "
                    f"({len(prefix)} of {_RCOO_PREFIX.size} prefix bytes)"
                )
            _, version, order, _, block_nnz, nnz = _RCOO_PREFIX.unpack(prefix)
            if version != RCOO_VERSION:
                raise DataFormatError(
                    f"{self.path}: unsupported rcoo version {version} "
                    f"(this build reads version {RCOO_VERSION})"
                )
            if order < 1 or block_nnz < 1:
                raise DataFormatError(
                    f"{self.path}: malformed rcoo header "
                    f"(order={order}, block_nnz={block_nnz})"
                )
            rest = handle.read(8 * order + order + 1)
            if len(rest) < 8 * order + order + 1:
                raise DataFormatError(
                    f"{self.path}: truncated rcoo header (missing shape or "
                    f"dtype table)"
                )
            self.shape: Tuple[int, ...] = tuple(
                struct.unpack(f"<{order}Q", rest[: 8 * order])
            )
            codes = rest[8 * order :]
            try:
                dtypes = tuple(_RCOO_CODE_DTYPES[c] for c in codes)
            except KeyError as exc:
                raise DataFormatError(
                    f"{self.path}: unknown rcoo dtype code {exc}"
                ) from exc
            if dtypes[-1] != np.dtype(np.float64):
                raise DataFormatError(
                    f"{self.path}: rcoo value column must be float64, "
                    f"header says {dtypes[-1]}"
                )
            self.index_dtypes: Tuple[np.dtype, ...] = dtypes[:-1]
            self.nnz = int(nnz)
            self.block_nnz = int(block_nnz)
            self._data_offset = _RCOO_PREFIX.size + len(rest)

    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return len(self.shape)

    def _iter_blocks(self) -> Iterator[EntryChunk]:
        order = self.order
        with open(self.path, "rb") as handle:
            handle.seek(self._data_offset)
            for block, start in enumerate(range(0, self.nnz, self.block_nnz)):
                count = min(self.block_nnz, self.nnz - start)
                indices = np.empty((count, order), dtype=np.int64)
                for k, dtype in enumerate(self.index_dtypes):
                    expected = count * dtype.itemsize
                    raw = handle.read(expected)
                    if len(raw) < expected:
                        raise DataFormatError(
                            f"{self.path}: truncated rcoo container (block "
                            f"{block}, column {k}: expected {expected} "
                            f"bytes, got {len(raw)})"
                        )
                    indices[:, k] = np.frombuffer(raw, dtype=dtype)
                expected = count * 8
                raw = handle.read(expected)
                if len(raw) < expected:
                    raise DataFormatError(
                        f"{self.path}: truncated rcoo container (block "
                        f"{block} values: expected {expected} bytes, got "
                        f"{len(raw)})"
                    )
                values = np.frombuffer(raw, dtype=np.float64)
                yield indices, values

    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[EntryChunk]:
        """Yield ``(indices, values)`` pairs of at most ``chunk_nnz`` entries."""
        if chunk_nnz < 1:
            raise ShapeError("chunk_nnz must be positive")
        yield from _exact_chunks(self._iter_blocks(), chunk_nnz)


def load_rcoo(path: PathLike) -> SparseTensor:
    """Load an rcoo container into an in-RAM :class:`SparseTensor`."""
    reader = RcooEntryReader(path)
    chunks = list(reader.iter_entry_chunks(DEFAULT_CHUNK_NNZ))
    if not chunks:
        return SparseTensor(
            np.empty((0, reader.order), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            reader.shape,
        )
    return SparseTensor(*_join_chunks(chunks), reader.shape)


class TensorEntryReader:
    """Chunked reader over an in-RAM :class:`SparseTensor` (entry order)."""

    def __init__(self, tensor: SparseTensor) -> None:
        self.tensor = tensor
        self.shape: Tuple[int, ...] = tensor.shape

    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return self.tensor.order

    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[EntryChunk]:
        """Yield ``(indices, values)`` pairs of at most ``chunk_nnz`` entries."""
        if chunk_nnz < 1:
            raise ShapeError("chunk_nnz must be positive")
        tensor = self.tensor
        for start in range(0, tensor.nnz, chunk_nnz):
            stop = start + chunk_nnz
            yield (
                np.ascontiguousarray(tensor.indices[start:stop], dtype=np.int64),
                np.ascontiguousarray(tensor.values[start:stop], dtype=np.float64),
            )


class ShardEntryReader:
    """Chunked reader over an existing shard store (canonical entry order).

    Streams the store's mode-0 sorted sequence through the entry-chunk
    protocol, so a store can be re-sharded (different ``shard_nnz``) or
    re-exported without materialising the tensor.
    A retired version-1 directory is refused by
    :meth:`~repro.shards.store.ShardStore.open` with the rebuild recipe.
    """

    def __init__(self, directory: PathLike) -> None:
        from ..shards import ShardStore

        self._store = ShardStore.open(os.fspath(directory))
        self.shape: Tuple[int, ...] = self._store.shape

    @property
    def order(self) -> int:
        """Number of tensor modes."""
        return len(self.shape)

    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[EntryChunk]:
        """Yield ``(indices, values)`` pairs of at most ``chunk_nnz`` entries."""
        if chunk_nnz < 1:
            raise ShapeError("chunk_nnz must be positive")
        for start in range(0, self._store.nnz, chunk_nnz):
            stop = min(start + chunk_nnz, self._store.nnz)
            block, values = self._store.read_mode_block(0, start, stop)
            yield np.asarray(block), values


def _sniff_rcoo(path: str) -> bool:
    """True when ``path`` starts with the rcoo magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(RCOO_MAGIC)) == RCOO_MAGIC
    except OSError:
        return False


def open_entry_reader(
    path: PathLike,
    shape: Optional[Sequence[int]] = None,
    one_based: bool = True,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Union[TextEntryReader, NpzEntryReader, RcooEntryReader, ShardEntryReader]:
    """Open ``path`` with the matching chunked reader.

    A directory is opened as a shard store, a ``.npz`` file as an archive,
    a file starting with the :data:`RCOO_MAGIC` bytes (or named
    ``*.rcoo``) as an rcoo container, anything else as text.
    ``shape``/``one_based``/``chunk_bytes`` apply to the text reader only
    (the binary formats carry their own shape and base).
    """
    fs_path = os.fspath(path)
    if os.path.isdir(fs_path):
        return ShardEntryReader(fs_path)
    if fs_path.endswith(".npz"):
        return NpzEntryReader(fs_path)
    if fs_path.endswith(".rcoo") or _sniff_rcoo(fs_path):
        return RcooEntryReader(fs_path)
    return TextEntryReader(
        fs_path, shape=shape, one_based=one_based, chunk_bytes=chunk_bytes
    )


def load_text(
    path: PathLike,
    shape: Optional[Sequence[int]] = None,
    one_based: bool = True,
) -> SparseTensor:
    """Read a sparse tensor from a ``i_1 ... i_N value`` text file.

    When ``shape`` is omitted it is inferred as the per-mode maximum index
    plus one.  Malformed lines raise :class:`~repro.exceptions.DataFormatError`
    with the offending line number.  Parsing is vectorized (see
    :class:`TextEntryReader`); the loaded entries are identical to the
    historical per-line parser's, bit for bit.
    """
    reader = TextEntryReader(path, shape=shape, one_based=one_based)
    chunks = list(reader.iter_entry_chunks(DEFAULT_CHUNK_NNZ))
    if not chunks:
        raise DataFormatError(f"{path}: file contains no tensor entries")
    indices, values = _join_chunks(chunks)
    if shape is None:
        # Per-column maxes beat one axis-0 reduction by ~7x on (nnz, N).
        shape = tuple(
            int(indices[:, mode].max()) + 1 for mode in range(indices.shape[1])
        )
    return SparseTensor(indices, values, shape)


def save_npz(tensor: SparseTensor, path: PathLike) -> None:
    """Save a sparse tensor to NumPy ``.npz`` (indices, values, shape)."""
    np.savez_compressed(
        path,
        indices=tensor.indices,
        values=tensor.values,
        shape=np.asarray(tensor.shape, dtype=np.int64),
    )


def load_npz(path: PathLike) -> SparseTensor:
    """Load a sparse tensor previously written by :func:`save_npz`."""
    with np.load(path) as data:
        missing = {"indices", "values", "shape"} - set(data.files)
        if missing:
            raise DataFormatError(f"{path}: missing arrays {sorted(missing)}")
        return SparseTensor(data["indices"], data["values"], tuple(data["shape"]))


def save_shards(
    tensor: Optional[SparseTensor],
    directory: PathLike,
    shard_nnz: int = 1_000_000,
    *,
    source=None,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
):
    """Export a tensor (or a streamed entry source) as a shard store.

    Writes the memory-mapped columnar COO shard layout of
    :class:`~repro.shards.store.ShardStore` (per-mode, per-column narrow
    ``.npy`` index files plus float64 values and a JSON manifest) at
    ``directory`` and returns the built store, ready for out-of-core
    sweeps.  Exactly one input must be given:
    ``tensor`` (read through :class:`TensorEntryReader` at the default
    chunk size, as :meth:`~repro.shards.ShardStore.build` does) or
    ``source`` (a chunked entry reader, read ``chunk_nnz`` entries at a
    time).  Either way the store is written by the external-memory merge
    of :mod:`repro.shards.merge`, and the same entries give the same
    files whichever input carried them.
    """
    from ..shards import ShardStore

    if (tensor is None) == (source is None):
        raise ShapeError("pass exactly one of tensor or source to save_shards")
    if source is not None:
        return ShardStore.build_streaming(
            source,
            os.fspath(directory),
            shard_nnz=shard_nnz,
            chunk_nnz=chunk_nnz,
        )
    return ShardStore.build(tensor, os.fspath(directory), shard_nnz=shard_nnz)


def load_shards(directory: PathLike) -> SparseTensor:
    """Import a shard store back into an in-RAM :class:`SparseTensor`.

    Entries come back in the store's canonical (mode-0 sorted) order; the
    entry set is identical to the exported tensor.  Raises
    :class:`~repro.exceptions.DataFormatError` when ``directory`` holds no
    valid manifest.
    """
    from ..shards import ShardStore

    return ShardStore.open(os.fspath(directory)).to_tensor()

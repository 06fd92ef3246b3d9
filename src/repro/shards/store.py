"""The on-disk shard store: per-mode, mode-sorted, memory-mapped COO blocks.

A :class:`ShardStore` is the out-of-core representation of a
:class:`~repro.tensor.coo.SparseTensor`.  For every mode ``n`` the observed
entries are stably sorted by their mode-``n`` index — exactly the ordering
:func:`~repro.core.row_update.build_mode_context` produces in RAM — and the
sorted sequence is cut into consecutive *shards* of at most ``shard_nnz``
entries.  **Format v2** stores each shard *columnar*: one ``.npy`` file per
index column, each in the narrowest unsigned dtype its mode dimension
admits (``uint8`` / ``uint16`` / ``uint32``, ``int64`` beyond 2**32 — see
:func:`repro.columns.index_dtype_for_dim`), plus one float64 value file.
At typical dimensions that is 3-8x fewer index bytes than the v1 int64
matrix, on disk and on the wire alike.  Reads go through
``numpy.load(..., mmap_mode="r")`` and surface as zero-copy narrow
:class:`~repro.columns.IndexColumns` blocks, which every kernel backend
consumes without widening; the nnz-sized sorted index/value copies that a
:class:`~repro.core.row_update.ModeContext` keeps in RAM never exist.
This module defines the format and reads it; one builder writes it, the
external-memory merge of :mod:`repro.shards.merge`, which
:meth:`ShardStore.build` feeds an in-RAM tensor through
:class:`~repro.tensor.io.TensorEntryReader`.

Directory layout::

    <dir>/manifest.json           # see below
    <dir>/mode0/row_ids.npy       # distinct mode-0 indices with entries
    <dir>/mode0/row_starts.npy    # global start offset of each row segment
    <dir>/mode0/row_counts.npy    # |Omega_in| per listed row
    <dir>/mode0/shard0000.col0.npy     # mode-0 indices of the shard's entries
    <dir>/mode0/shard0000.col1.npy     # ... one narrow file per index column
    <dir>/mode0/shard0000.values.npy
    ...                           # one subdirectory per mode

The manifest records the per-column index dtypes (identical across modes —
column ``k`` always holds mode-``k`` indices), the ``index_dtype`` policy
that chose them (always ``auto``, the narrowest dtype per dimension;
older builds could also write ``wide``, all-int64 columns, which this
reader still opens), and, per shard, the
global entry range ``[start, stop)`` it covers in the mode-sorted order,
the row range ``[first_row, last_row]`` its entries touch, and the segment
bookkeeping (``segment_offset`` — the position in ``row_ids`` of the first
row present in the shard, ``n_segments`` — how many distinct rows appear,
and ``continues_segment`` — whether the first row's segment started in the
previous shard).  Shard boundaries are *not* snapped to segment
boundaries: a row whose segment is longer than ``shard_nnz`` simply spans
several shards, and the streaming executor accumulates its partial normal
equations across them, exactly as the in-core block loop does for rows
that straddle a ``block_size`` chunk.

Because every shard holds exactly the entries ``sorted[start:stop]`` of the
in-core mode ordering (ties preserved by the stable sort), any consumer
that walks the shards with the same block boundaries as the in-core path
performs bit-for-bit the same floating-point operations; that is what makes
:class:`~repro.shards.executor.ShardedSweepExecutor` bitwise-equal to the
in-core sweep.  Narrowing the index dtype never touches a float64, so a
``wide`` store written by an older build sweeps bitwise-equal to the
narrow store of the same tensor.

Version-1 directories (a single int64 ``shardNNNN.indices.npy`` matrix per
shard) are no longer read; :meth:`ShardStore.open` raises a
:class:`~repro.exceptions.DataFormatError` naming both versions and the
rebuild recipe (``python -m repro ingest <input> --out <dir>``).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columns import IndexColumns, index_dtypes_for_shape
from ..exceptions import DataFormatError, ShapeError
from ..resilience.atomic import atomic_write_json, fsync_directory
from ..tensor.coo import SparseTensor

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Compaction commit marker (written by ``repro.updates.compact``); its
#: name lives here so ``open`` can check for it without importing the
#: updates package on every open.
COMPACT_MARKER_NAME = "compact.commit.json"

#: ``format`` field value identifying a shard-store manifest.
FORMAT_NAME = "repro-shard-store"

#: Current manifest schema version (2 = narrow columnar index files).
FORMAT_VERSION = 2

#: The retired schema version (int64 index matrices); refused with the
#: rebuild recipe of :func:`migration_hint`.
LEGACY_FORMAT_VERSION = 1

#: Default shard capacity in entries (~32 MB of index+value data at order 3).
DEFAULT_SHARD_NNZ = 1_000_000

#: Shard memmaps kept open per store (LRU).  Sequential block reads hit the
#: same one or two shards repeatedly, so a tiny cache removes the repeated
#: file-open/header-parse per block while keeping the number of
#: simultaneously mapped shards — and therefore resident file pages —
#: bounded regardless of tensor size.
MMAP_CACHE_SHARDS = 4


def _tensor_digest(tensor: SparseTensor) -> str:
    """SHA-256 over the entry bytes (order-sensitive, collision-proof).

    Always digests the canonical int64/float64 representation, so the
    fingerprint is independent of the on-disk index dtypes: a narrow and a
    wide store of the same tensor carry the same digest.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(tensor.indices, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(tensor.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def migration_hint(directory: str) -> str:
    """The one-line v1 -> v2 recipe quoted in version-mismatch errors."""
    return (
        f"rebuild it from the source data with "
        f"`python -m repro ingest <input> --out {directory}`"
    )


@dataclass(frozen=True)
class ShardInfo:
    """Metadata of one on-disk shard of one mode's sorted entry sequence.

    Attributes
    ----------
    column_paths:
        Paths of the per-column index ``.npy`` files (one per mode, in
        mode order), relative to the store directory.
    values_path:
        Path of the float64 value ``.npy`` block.
    start / stop:
        Global entry range ``[start, stop)`` the shard covers inside the
        mode-sorted order.
    first_row / last_row:
        Smallest and largest mode index appearing in the shard.
    segment_offset:
        Position in the mode's ``row_ids`` of the first row present here.
    n_segments:
        Number of distinct rows with at least one entry in this shard.
    continues_segment:
        True when the first row's segment began in the previous shard (the
        shard boundary split a row's entries).
    """

    column_paths: Tuple[str, ...]
    values_path: str
    start: int
    stop: int
    first_row: int
    last_row: int
    segment_offset: int
    n_segments: int
    continues_segment: bool

    @property
    def nnz(self) -> int:
        """Entries stored in this shard."""
        return self.stop - self.start

    def to_json(self) -> Dict[str, object]:
        """The manifest entry for this shard."""
        return {
            "columns": list(self.column_paths),
            "values": self.values_path,
            "start": self.start,
            "stop": self.stop,
            "rows": [self.first_row, self.last_row],
            "segment_offset": self.segment_offset,
            "n_segments": self.n_segments,
            "continues_segment": self.continues_segment,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ShardInfo":
        """Parse one manifest shard entry."""
        try:
            rows = payload["rows"]
            return cls(
                column_paths=tuple(str(p) for p in payload["columns"]),
                values_path=str(payload["values"]),
                start=int(payload["start"]),
                stop=int(payload["stop"]),
                first_row=int(rows[0]),
                last_row=int(rows[1]),
                segment_offset=int(payload["segment_offset"]),
                n_segments=int(payload["n_segments"]),
                continues_segment=bool(payload["continues_segment"]),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed shard entry in manifest: {exc}") from exc


def _mode_dir(mode: int) -> str:
    return f"mode{mode}"


def _shard_stem(mode: int, number: int) -> str:
    return os.path.join(_mode_dir(mode), f"shard{number:04d}")


def _mode_shards_json(
    mode: int,
    nnz: int,
    shard_nnz: int,
    order: int,
    row_ids: np.ndarray,
    row_starts: np.ndarray,
) -> List[Dict[str, object]]:
    """Manifest entries of one mode's shards, from its row segmentation.

    Shard boundaries are fixed by ``nnz`` and ``shard_nnz`` alone; every
    row-range and segment field is derived from ``row_ids``/``row_starts``,
    so the manifest does not depend on how the builder chunked its input.
    """
    shards: List[Dict[str, object]] = []
    for number, start in enumerate(range(0, nnz, shard_nnz)):
        stop = min(start + shard_nnz, nnz)
        stem = _shard_stem(mode, number)
        # Rows overlapping [start, stop): the row owning entry ``start`` is
        # the last one starting at or before it.
        seg_lo = int(np.searchsorted(row_starts, start, side="right")) - 1
        seg_hi = int(np.searchsorted(row_starts, stop, side="left"))
        last_seg = int(np.searchsorted(row_starts, stop - 1, side="right")) - 1
        shards.append(
            ShardInfo(
                column_paths=tuple(
                    f"{stem}.col{k}.npy" for k in range(order)
                ),
                values_path=stem + ".values.npy",
                start=start,
                stop=stop,
                first_row=int(row_ids[seg_lo]),
                last_row=int(row_ids[last_seg]),
                segment_offset=seg_lo,
                n_segments=seg_hi - seg_lo,
                continues_segment=bool(row_starts[seg_lo] < start),
            ).to_json()
        )
    return shards


def _manifest_payload(
    shape: Sequence[int],
    nnz: int,
    shard_nnz: int,
    fingerprint: Dict[str, object],
    modes_json: List[Dict[str, object]],
) -> Dict[str, object]:
    """The manifest dictionary the store builder writes."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "shape": [int(s) for s in shape],
        "order": len(shape),
        "nnz": int(nnz),
        "shard_nnz": int(shard_nnz),
        "dtypes": {
            "index_columns": [str(d) for d in index_dtypes_for_shape(shape)],
            "values": "float64",
            "index_dtype": "auto",
        },
        "fingerprint": fingerprint,
        "modes": modes_json,
    }


def _write_manifest(directory: str, manifest: Dict[str, object]) -> None:
    """Serialise a manifest into ``directory`` (sorted keys, trailing newline).

    Written atomically (tmp + fsync + rename) and *last* during a build —
    the manifest is the commit point: a directory without one is not a
    store, so a crash at any earlier instant leaves nothing that
    :meth:`ShardStore.open` would accept.
    """
    atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)


def _retire_manifest(directory: str) -> None:
    """Remove a stale manifest before a rebuild touches any data file.

    Rebuilding over an existing store rewrites the shard files in place;
    if the old manifest survived until the crash, ``open`` would accept a
    directory whose data no longer matches it.  Deleting the manifest
    first makes every partially rebuilt state unopenable instead of
    silently wrong — the commit-point discipline in reverse.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(path):
        os.remove(path)
        fsync_directory(directory)


def _npy_file_info(path: str) -> Tuple[Tuple[int, ...], np.dtype, int]:
    """Parse one ``.npy`` header without reading data.

    Returns ``(shape, dtype, data_offset)``; raises ``OSError`` /
    ``ValueError`` on a missing file or a malformed header.
    """
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, _, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported .npy format version {version}")
        return tuple(int(s) for s in shape), np.dtype(dtype), handle.tell()


class ShardStore:
    """Mode-sorted, memory-mapped columnar COO shards of one sparse tensor.

    Build one with :meth:`build_streaming` (from any chunked entry reader)
    or :meth:`build` (from an in-RAM tensor, streamed through the former)
    and reopen it later with :meth:`open`; :meth:`for_tensor` combines
    both, reusing an existing directory when its manifest matches the
    tensor.  The store implements
    the *entry source* protocol the row update streams from
    (:attr:`nnz` / :attr:`shape` / :attr:`order`,
    :meth:`mode_segmentation`, :meth:`read_mode_block`), so it can be
    passed directly as the ``source`` of ``update_factor_mode`` or wrapped
    in a :class:`~repro.shards.executor.ShardedSweepExecutor`.  Blocks come back
    as narrow :class:`~repro.columns.IndexColumns`, which every kernel
    backend consumes without widening.
    """

    def __init__(self, directory: str, manifest: Dict[str, object]) -> None:
        self.directory = os.fspath(directory)
        self._parse_manifest(manifest)
        self._segmentation: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._shard_starts: Dict[int, np.ndarray] = {}
        self._mmap_cache: "OrderedDict[str, Tuple[Tuple[np.ndarray, ...], np.ndarray]]" = (
            OrderedDict()
        )

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the mmap cache (workers re-map their own shards)."""
        state = dict(self.__dict__)
        state["_mmap_cache"] = OrderedDict()
        return state

    # ------------------------------------------------------------------
    # Manifest handling
    # ------------------------------------------------------------------
    def _parse_manifest(self, manifest: Dict[str, object]) -> None:
        if manifest.get("format") != FORMAT_NAME:
            raise DataFormatError(
                f"{self.directory}: not a shard store "
                f"(format={manifest.get('format')!r})"
            )
        version = int(manifest.get("version", -1))
        if version == LEGACY_FORMAT_VERSION:
            raise DataFormatError(
                f"{self.directory}: this is a version-{LEGACY_FORMAT_VERSION} "
                f"shard store (int64 index matrices); this build reads "
                f"version {FORMAT_VERSION} (narrow columnar indices) — "
                + migration_hint(self.directory)
            )
        if version != FORMAT_VERSION:
            raise DataFormatError(
                f"{self.directory}: unsupported shard-store version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            self.shape: Tuple[int, ...] = tuple(int(s) for s in manifest["shape"])
            self.nnz: int = int(manifest["nnz"])
            self.shard_nnz: int = int(manifest["shard_nnz"])
            dtypes = manifest["dtypes"]
            policy = str(dtypes["index_dtype"])
            self.index_dtypes: Tuple[np.dtype, ...] = tuple(
                np.dtype(str(name)) for name in dtypes["index_columns"]
            )
            modes = manifest["modes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(
                f"{self.directory}: malformed manifest: {exc}"
            ) from exc
        if len(self.index_dtypes) != len(self.shape):
            raise DataFormatError(
                f"{self.directory}: manifest lists {len(self.index_dtypes)} "
                f"index dtypes for an order-{len(self.shape)} shape"
            )
        if policy == "auto":
            expected = index_dtypes_for_shape(self.shape)
        elif policy == "wide":
            # All-int64 columns, as builds before narrow-only stores wrote
            # them; they read, fit and compact like narrow ones.
            expected = (np.dtype(np.int64),) * len(self.shape)
        else:
            raise DataFormatError(
                f"{self.directory}: unknown index_dtype policy {policy!r}"
            )
        if self.index_dtypes != expected:
            raise DataFormatError(
                f"{self.directory}: manifest index dtypes "
                f"{[str(d) for d in self.index_dtypes]} do not match the "
                f"{policy!r} policy for shape {self.shape}"
            )
        self.fingerprint: Dict[str, float] = dict(manifest.get("fingerprint", {}))
        if len(modes) != len(self.shape):
            raise DataFormatError(
                f"{self.directory}: manifest lists {len(modes)} modes for an "
                f"order-{len(self.shape)} shape"
            )
        self._modes: List[Dict[str, object]] = list(modes)
        self._shards: Dict[int, List[ShardInfo]] = {}
        for entry in self._modes:
            mode = int(entry["mode"])
            shards = [ShardInfo.from_json(s) for s in entry["shards"]]
            offset = 0
            for shard in shards:
                if shard.start != offset:
                    raise DataFormatError(
                        f"{self.directory}: mode {mode} shards are not "
                        f"contiguous at entry {offset}"
                    )
                if len(shard.column_paths) != len(self.shape):
                    raise DataFormatError(
                        f"{self.directory}: mode {mode} shard at entry "
                        f"{offset} lists {len(shard.column_paths)} index "
                        f"columns for an order-{len(self.shape)} shape"
                    )
                offset = shard.stop
            if offset != self.nnz:
                raise DataFormatError(
                    f"{self.directory}: mode {mode} shards cover {offset} "
                    f"entries, manifest says nnz={self.nnz}"
                )
            self._shards[mode] = shards

    @property
    def order(self) -> int:
        """Number of tensor modes N."""
        return len(self.shape)

    @property
    def index_bytes_per_entry(self) -> int:
        """Bytes of index data stored per entry (one set of columns)."""
        return sum(int(d.itemsize) for d in self.index_dtypes)

    def manifest_path(self) -> str:
        """Absolute path of this store's manifest file."""
        return os.path.join(self.directory, MANIFEST_NAME)

    def mode_shards(self, mode: int) -> List[ShardInfo]:
        """The shard metadata of one mode, in entry order."""
        if mode not in self._shards:
            raise ShapeError(f"mode {mode} out of range for order {self.order}")
        return list(self._shards[mode])

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        n_shards = sum(len(s) for s in self._shards.values())
        return (
            f"ShardStore(dir={self.directory!r}, shape={self.shape}, "
            f"nnz={self.nnz}, shards={n_shards}, "
            f"index_dtypes={[str(d) for d in self.index_dtypes]})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        tensor: SparseTensor,
        directory: str,
        shard_nnz: int = DEFAULT_SHARD_NNZ,
    ) -> "ShardStore":
        """Convert ``tensor`` into a shard store at ``directory``.

        For every mode the entries are stably sorted by that mode's index
        (the :class:`~repro.core.row_update.ModeContext` ordering, ties kept
        in the tensor's entry order) and written as consecutive shards of at
        most ``shard_nnz`` entries, one narrow column file per mode plus
        the float64 values.  The tensor is streamed through
        :meth:`build_streaming` at the default chunk size — there is one
        store builder.  An existing store in ``directory`` is replaced;
        unrelated files in the directory are left alone.
        """
        from ..tensor.io import TensorEntryReader

        return cls.build_streaming(
            TensorEntryReader(tensor),
            directory,
            shard_nnz=shard_nnz,
            shape=tensor.shape,
        )

    @classmethod
    def build_streaming(
        cls,
        source,
        directory: str,
        shard_nnz: int = DEFAULT_SHARD_NNZ,
        chunk_nnz: Optional[int] = None,
        shape: Optional[Sequence[int]] = None,
    ) -> "ShardStore":
        """Build a shard store from a chunked entry source, out of core.

        ``source`` is any reader implementing the entry-chunk protocol of
        :mod:`repro.tensor.io` (``iter_entry_chunks(chunk_nnz)`` plus an
        optional ``shape`` attribute): a text file, ``.npz`` archive,
        ``.rcoo`` container, in-RAM tensor or another store.  Entries are
        spilled to per-mode sorted runs of at most ``chunk_nnz`` entries —
        already in narrow column dtypes, so spill bytes shrink with the
        data — and k-way merged into the shard layout on disk (see
        :mod:`repro.shards.merge`), so peak memory is bounded by the chunk
        size — never by nnz — and the resulting directory is the same,
        file for file, for any chunk size or source of the same entries
        (:meth:`build` of the tensor included).  ``shape`` overrides
        the source's own shape; when neither is given it is inferred as
        max index + 1 per mode, exactly as
        :func:`repro.tensor.io.load_text` infers it.
        """
        from .merge import streaming_build

        manifest = streaming_build(
            source,
            os.fspath(directory),
            shard_nnz=shard_nnz,
            chunk_nnz=chunk_nnz,
            shape=shape,
        )
        return cls(os.fspath(directory), manifest)

    @classmethod
    def open(cls, directory: str) -> "ShardStore":
        """Open an existing shard store (raises when no manifest is found).

        A version-1 directory raises a :class:`DataFormatError` whose
        message names both versions and the one-line rebuild recipe
        (``ingest <input> --out <dir>``).

        A directory carrying a committed-but-unfinished compaction marker
        (``compact.commit.json`` — see :mod:`repro.updates.compact`) is
        rolled forward first, so a crash mid-compaction is invisible to
        every reader: the marker's presence *is* the commit, and opening
        finishes the file moves idempotently.
        """
        directory = os.fspath(directory)
        if os.path.exists(os.path.join(directory, COMPACT_MARKER_NAME)):
            from ..updates.compact import complete_compaction

            complete_compaction(directory)
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise DataFormatError(
                f"{directory}: no {MANIFEST_NAME}; not a shard store"
            ) from None
        except ValueError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
        return cls(directory, manifest)

    @classmethod
    def for_tensor(
        cls,
        tensor: SparseTensor,
        directory: str,
        shard_nnz: int = DEFAULT_SHARD_NNZ,
        # Held only for benchmarks/e2e/workloads.py:175, which passes
        # ``index_dtype=config.index_dtype``; delete it with that line.
        index_dtype: str = "auto",
    ) -> "ShardStore":
        """Open ``directory`` if it already shards ``tensor``; build otherwise.

        A store is reused when its shape, nnz and entry digest match the
        tensor (see :meth:`matches`) — repeated CLI runs over the same
        dataset then skip the rewrite.  A matching ``wide`` store
        written by an older build is reused too: it sweeps bitwise-equal
        to a narrow one.  Any mismatch (including a different
        ``shard_nnz``) triggers a rebuild; a version-1 directory is rebuilt
        in place.  ``index_dtype`` accepts only ``"auto"``.
        """
        if index_dtype != "auto":
            raise ShapeError(
                f"unknown index_dtype {index_dtype!r}; indices are always "
                "stored in narrow columns ('auto')"
            )
        try:
            store = cls.open(directory)
        except DataFormatError:
            return cls.build(tensor, directory, shard_nnz=shard_nnz)
        if store.matches(tensor) and store.shard_nnz == int(shard_nnz):
            return store
        return cls.build(tensor, directory, shard_nnz=shard_nnz)

    def matches(self, tensor: SparseTensor) -> bool:
        """True when this store was built from exactly ``tensor``.

        Compares shape, nnz and the manifest's SHA-256 over the entry
        bytes, so sum-preserving edits (swapped values, redistributed
        weight) can never alias a stale store.  The digest is
        order-sensitive: re-parsing the same file matches, a reordered
        tensor rebuilds.
        """
        if self.shape != tuple(tensor.shape) or self.nnz != tensor.nnz:
            return False
        recorded = self.fingerprint.get("entries_sha256")
        if not recorded:
            return False
        return recorded == _tensor_digest(tensor)

    # ------------------------------------------------------------------
    # Entry-source protocol (what the row update streams from)
    # ------------------------------------------------------------------
    def mode_segmentation(
        self, mode: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_ids, row_starts, row_counts)`` of one mode's sorted order.

        These are the same arrays a :class:`~repro.core.row_update.ModeContext`
        holds; their size is the number of distinct mode indices (at most
        ``shape[mode]``), so they are loaded into RAM eagerly and cached.
        """
        if mode not in self._segmentation:
            if mode not in self._shards:
                raise ShapeError(
                    f"mode {mode} out of range for order {self.order}"
                )
            mode_dir = os.path.join(self.directory, _mode_dir(mode))
            try:
                loaded = tuple(
                    np.load(os.path.join(mode_dir, name))
                    for name in ("row_ids.npy", "row_starts.npy", "row_counts.npy")
                )
            except (OSError, ValueError) as exc:
                raise DataFormatError(
                    f"{self.directory}: cannot read mode-{mode} row "
                    f"segmentation: {exc}"
                ) from exc
            self._segmentation[mode] = loaded
        return self._segmentation[mode]

    def _starts_of(self, mode: int) -> np.ndarray:
        """Global start offsets of one mode's shards (for searchsorted)."""
        if mode not in self._shard_starts:
            self._shard_starts[mode] = np.asarray(
                [s.start for s in self._shards[mode]], dtype=np.int64
            )
        return self._shard_starts[mode]

    def _mmap_shard(
        self, shard: ShardInfo
    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """Memory-map one shard's column and value files (read-only).

        The most recently touched :data:`MMAP_CACHE_SHARDS` maps are kept
        open, so the block loop's repeated visits to the same shard skip
        the file opens and ``.npy`` header parses; older maps are dropped,
        keeping the simultaneously resident file pages bounded.
        """
        cached = self._mmap_cache.get(shard.values_path)
        if cached is not None:
            self._mmap_cache.move_to_end(shard.values_path)
            return cached
        try:
            columns = tuple(
                np.load(os.path.join(self.directory, path), mmap_mode="r")
                for path in shard.column_paths
            )
            values = np.load(
                os.path.join(self.directory, shard.values_path), mmap_mode="r"
            )
        except (OSError, ValueError) as exc:
            raise DataFormatError(
                f"{self.directory}: cannot map shard "
                f"{shard.values_path!r}: {exc}"
            ) from exc
        self._mmap_cache[shard.values_path] = (columns, values)
        while len(self._mmap_cache) > MMAP_CACHE_SHARDS:
            self._mmap_cache.popitem(last=False)
        return columns, values

    def _empty_block(self) -> Tuple[IndexColumns, np.ndarray]:
        return (
            IndexColumns(
                [np.empty(0, dtype=d) for d in self.index_dtypes]
            ),
            np.empty(0, dtype=np.float64),
        )

    def read_mode_block(
        self, mode: int, start: int, stop: int
    ) -> Tuple[IndexColumns, np.ndarray]:
        """Entries ``[start, stop)`` of the mode-sorted order, as RAM copies.

        The index part comes back as a narrow
        :class:`~repro.columns.IndexColumns` — the copies stay in the
        on-disk dtypes, so a block costs ``index_bytes_per_entry`` per
        entry instead of ``8 * order``.  The requested range may span
        shard boundaries; only the touched shards are mapped (through the
        small LRU of :meth:`_mmap_shard`) and only the requested rows are
        copied, so resident memory is bounded by the block being read plus
        at most :data:`MMAP_CACHE_SHARDS` mapped shards — not by nnz.
        """
        if mode not in self._shards:
            raise ShapeError(f"mode {mode} out of range for order {self.order}")
        start = max(0, int(start))
        stop = min(int(stop), self.nnz)
        length = max(0, stop - start)
        shards = self._shards[mode]
        if length == 0 or not shards:
            return self._empty_block()
        starts = self._starts_of(mode)
        first = int(np.searchsorted(starts, start, side="right")) - 1
        columns_out = [
            np.empty(length, dtype=d) for d in self.index_dtypes
        ]
        values_out = np.empty(length, dtype=np.float64)
        filled = 0
        for shard in shards[first:]:
            if shard.start >= stop:
                break
            lo = max(start, shard.start) - shard.start
            hi = min(stop, shard.stop) - shard.start
            columns_mm, values_mm = self._mmap_shard(shard)
            out = slice(filled, filled + hi - lo)
            for k, column_mm in enumerate(columns_mm):
                columns_out[k][out] = column_mm[lo:hi]
            values_out[out] = values_mm[lo:hi]
            filled += hi - lo
        return IndexColumns(columns_out), values_out

    def iter_mode_blocks(
        self, mode: int, block_size: int
    ) -> Iterator[Tuple[IndexColumns, np.ndarray]]:
        """Stream one mode's sorted entries in ``block_size`` chunks."""
        if block_size < 1:
            raise ShapeError("block_size must be positive")
        for start in range(0, self.nnz, block_size):
            yield self.read_mode_block(mode, start, min(start + block_size, self.nnz))

    # ------------------------------------------------------------------
    # Import / export
    # ------------------------------------------------------------------
    def to_tensor(self) -> SparseTensor:
        """Materialise the store as an in-RAM sparse tensor.

        Entries come back in the store's canonical order — the mode-0 sorted
        sequence.  The set of entries equals the tensor the store was built
        from; only the ordering is normalised.
        """
        block, values = self.read_mode_block(0, 0, self.nnz)
        return SparseTensor(block.to_matrix(), values, self.shape)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def verify_files(self) -> None:
        """Cheap integrity check: every file exists with its declared header.

        Parses each ``.npy`` header (magic, shape, dtype) and compares the
        file's size against ``header + shape × itemsize`` — no data is
        read, so the check is O(number of files), not O(nnz), cheap enough
        to run before every out-of-core sweep.  Catches missing,
        truncated, padded and header-corrupt files with a
        :class:`~repro.exceptions.DataFormatError` naming the path;
        content-level damage to the index columns (bit flips breaking
        sort order or row ranges) needs the full :meth:`validate`.  Flips
        inside the *values* data region are beyond both — only the
        checksummed artifacts (checkpoints) pin every byte.
        """

        def header(relative: str) -> Tuple[Tuple[int, ...], np.dtype, int]:
            path = os.path.join(self.directory, relative)
            try:
                return _npy_file_info(path)
            except FileNotFoundError:
                raise DataFormatError(
                    f"{path}: shard-store file is missing"
                ) from None
            except (OSError, ValueError) as exc:
                raise DataFormatError(
                    f"{path}: unreadable .npy header ({exc})"
                ) from None

        def check(relative: str, shape: Tuple[int, ...], dtype: np.dtype) -> None:
            path = os.path.join(self.directory, relative)
            found_shape, found_dtype, offset = header(relative)
            if found_shape != tuple(shape):
                raise DataFormatError(
                    f"{path}: header shape {found_shape} does not match "
                    f"manifest {tuple(shape)}"
                )
            if found_dtype != np.dtype(dtype):
                raise DataFormatError(
                    f"{path}: header dtype {found_dtype} does not match "
                    f"manifest {np.dtype(dtype)}"
                )
            expected = offset + int(
                np.prod(found_shape, dtype=np.int64) * found_dtype.itemsize
            )
            actual = os.path.getsize(path)
            if actual != expected:
                raise DataFormatError(
                    f"{path}: file is {actual} bytes, header implies "
                    f"{expected} — truncated or padded"
                )

        for mode in range(self.order):
            mode_dir = _mode_dir(mode)
            lengths = {}
            for name in ("row_ids.npy", "row_starts.npy", "row_counts.npy"):
                relative = os.path.join(mode_dir, name)
                shape, dtype, _ = header(relative)
                if len(shape) != 1 or dtype != np.dtype(np.int64):
                    raise DataFormatError(
                        f"{os.path.join(self.directory, relative)}: expected "
                        f"a 1-D int64 segmentation array, found shape "
                        f"{shape} dtype {dtype}"
                    )
                check(relative, shape, np.int64)
                lengths[name] = shape[0]
            if len(set(lengths.values())) != 1:
                raise DataFormatError(
                    f"{self.directory}: mode-{mode} segmentation arrays "
                    f"disagree in length ({lengths})"
                )
            for shard in self._shards[mode]:
                for k, column_path in enumerate(shard.column_paths):
                    check(column_path, (shard.nnz,), self.index_dtypes[k])
                check(shard.values_path, (shard.nnz,), np.float64)

    def validate(self) -> None:
        """Check the on-disk data against the manifest (beyond `open`'s checks).

        Verifies, per mode: every shard column/value file exists with the
        declared shape and dtype, shard entries really are sorted by the
        mode index with row ranges matching the manifest, and the row
        segmentation is consistent with the shard contents.  Raises
        :class:`~repro.exceptions.DataFormatError` on the first violation.
        """
        for mode in range(self.order):
            row_ids, row_starts, row_counts = self.mode_segmentation(mode)
            if row_counts.sum() != self.nnz:
                raise DataFormatError(
                    f"{self.directory}: mode {mode} row counts sum to "
                    f"{int(row_counts.sum())}, expected nnz={self.nnz}"
                )
            previous_last = None
            for shard in self._shards[mode]:
                columns_mm, values_mm = self._mmap_shard(shard)
                for k, column_mm in enumerate(columns_mm):
                    if column_mm.shape != (shard.nnz,):
                        raise DataFormatError(
                            f"{self.directory}: {shard.column_paths[k]} has "
                            f"shape {column_mm.shape}, manifest says "
                            f"({shard.nnz},)"
                        )
                    if column_mm.dtype != self.index_dtypes[k]:
                        raise DataFormatError(
                            f"{self.directory}: {shard.column_paths[k]} has "
                            f"dtype {column_mm.dtype}, manifest says "
                            f"{self.index_dtypes[k]}"
                        )
                if values_mm.shape != (shard.nnz,):
                    raise DataFormatError(
                        f"{self.directory}: {shard.values_path} has shape "
                        f"{values_mm.shape}, manifest says ({shard.nnz},)"
                    )
                column = np.asarray(columns_mm[mode])
                if column.size and np.any(np.diff(column.astype(np.int64)) < 0):
                    raise DataFormatError(
                        f"{self.directory}: {shard.column_paths[mode]} is not "
                        f"sorted by mode {mode}"
                    )
                if column.size and (
                    int(column[0]) != shard.first_row
                    or int(column[-1]) != shard.last_row
                ):
                    raise DataFormatError(
                        f"{self.directory}: {shard.column_paths[mode]} row "
                        f"range [{int(column[0])}, {int(column[-1])}] does "
                        f"not match manifest "
                        f"[{shard.first_row}, {shard.last_row}]"
                    )
                if previous_last is not None and column.size and (
                    int(column[0]) < previous_last
                ):
                    raise DataFormatError(
                        f"{self.directory}: mode-{mode} shards overlap in row "
                        f"order at {shard.column_paths[mode]}"
                    )
                if column.size:
                    previous_last = int(column[-1])

"""The shard-store builder: spill sorted runs, k-way merge.

:func:`streaming_build` turns any chunked entry source (the protocol of
:mod:`repro.tensor.io`) into the on-disk layout of
:class:`~repro.shards.store.ShardStore` without ever materialising the
tensor.  It is the only store builder: an in-RAM tensor
(:meth:`~repro.shards.store.ShardStore.build`, ``save_shards(tensor)``,
``for_tensor``, fits with ``shard_dir``) is read through
:class:`~repro.tensor.io.TensorEntryReader`, and ``ingest``, ``fit
--from-text`` and compaction feed it their own readers.  Per mode, the
store holds the entries under the stable ``argsort`` of the mode column,
the row segmentation ``numpy.unique`` gives over it, and a SHA-256 entry
fingerprint; the output is bitwise the same for any chunk size, cascade
depth or input source of the same entries, which the tests assert file by
file.

The classic two-phase external sort, once per mode:

1. *Spill.*  Each chunk of at most ``chunk_nnz`` entries is narrowed to
   per-mode columns (each in the smallest dtype admitting the chunk's own
   maxima — see :func:`repro.columns.index_dtype_for_max`), stably sorted
   by the mode's column in RAM and written to a *run* — per-column ``.npy``
   files under ``<dir>/.ingest-tmp/mode<n>/`` plus the sorted values and
   the entries' original positions in the input order.  Operating on the
   narrow columns directly shrinks both the spill bytes on disk and the
   peak RAM of the sort's gathers.  On multicore hosts the per-mode
   argsort + spill of one chunk runs on a small thread pool (NumPy's sort
   and the file writes release the GIL); each mode writes disjoint files,
   so the output is identical to the serial order — ``REPRO_SPILL_WORKERS=1``
   forces the serial path, which the tests pin.  Because the chunk sort is
   stable and positions within a chunk are increasing, every run is sorted
   by the compound key ``(mode index, original position)`` — the exact
   ordering of a stable ``argsort`` of the whole mode column.
2. *Merge.*  In rounds: every live run offers a window of at most
   ``merge_block // live`` entries, the smallest window-end key is the
   pivot, and every run emits its entries up to the pivot (one
   ``searchsorted`` each); one ``lexsort`` puts the round's pieces in key
   order.  Interleaved runs therefore move in blocks of up to
   ``merge_block`` entries, not one block per run switch.  Emitted blocks
   stream straight into the columnar shard ``.npy`` files (headers written
   up front — every shard's size is known from ``nnz`` and
   ``shard_nnz``), cast from the runs' chunk-local dtypes to the final
   per-column dtypes of the store's shape, while the row segmentation
   accumulates on the fly.  When the spill produced more than
   :data:`MAX_OPEN_RUNS` runs, the merge *cascades* first — groups of runs
   are merged into longer intermediate runs until one pass fits — so open
   file descriptors stay bounded regardless of tensor size.

While spilling, the ingest pass also accumulates everything the manifest
fingerprint needs: the SHA-256 digest over the canonical int64 index bytes
(value bytes are streamed into the digest afterwards from the value spill,
preserving the ``indices-then-values`` order in which
``ShardStore.matches`` digests an in-RAM tensor), the integer index sum,
per-mode maxima for shape inference, and the value spill itself, whose
memory-map yields the same pairwise-summed ``values_sum`` NumPy computes
over an in-RAM array.

Peak memory is O(``chunk_nnz``) plus the segmentation arrays (one entry
per distinct row id); disk usage during the build is roughly twice the
final store (runs + shards) and the runs of each mode are deleted as soon
as that mode is merged.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..columns import index_dtype_for_max, index_dtypes_for_shape
from ..exceptions import DataFormatError, ShapeError
from ..kernels.backends.threaded import env_workers
from ..resilience.atomic import (
    atomic_save_array,
    fsync_directory,
    fsync_file,
    tmp_path_for,
)
from ..tensor.io import DEFAULT_CHUNK_NNZ
from .store import (
    DEFAULT_SHARD_NNZ,
    MANIFEST_NAME,
    _manifest_payload,
    _mode_dir,
    _mode_shards_json,
    _retire_manifest,
    _write_manifest,
)

logger = logging.getLogger(__name__)

#: Name of the scratch directory inside the target store directory.
INGEST_TMP_DIR = ".ingest-tmp"

#: Entries copied per merge emission (bounds the RAM of one emit).
MERGE_BLOCK_NNZ = 65_536

#: Runs merged simultaneously.  Every open run holds ``order + 2``
#: memory-mapped files (and their descriptors), so huge tensors — millions
#: of entries per chunk times thousands of chunks — must not map every run
#: at once; above this fan-in the merge cascades: groups of this many runs
#: are merged into longer runs first, repeating until one pass fits.
MAX_OPEN_RUNS = 128


def spill_workers() -> int:
    """Threads used for one chunk's per-mode spill sorts.

    ``REPRO_SPILL_WORKERS`` overrides (1 forces the serial path — the
    tests pin it); the default is the CPU count.  The pool is created
    lazily once the stream's order is known, capped at one thread per
    mode since one spill task exists per mode.
    """
    return env_workers("REPRO_SPILL_WORKERS")


def _npy_header(handle, shape: Tuple[int, ...], dtype) -> None:
    """Write the ``.npy`` header ``numpy.save`` would write for this array."""
    np.lib.format.write_array_header_1_0(
        handle,
        {
            "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
            "fortran_order": False,
            "shape": tuple(int(s) for s in shape),
        },
    )


class _ShardSeriesWriter:
    """Streams one mode's merged entries into its columnar shard files.

    Shard boundaries depend only on ``nnz`` and ``shard_nnz``, so every
    shard's exact size is known before the first entry arrives; headers are
    written up front and raw C-order bytes appended — per column, in the
    store's final narrow dtypes — which reproduces ``numpy.save`` output
    byte for byte.
    """

    def __init__(
        self,
        directory: str,
        mode: int,
        nnz: int,
        column_dtypes: Sequence[np.dtype],
        shard_nnz: int,
    ) -> None:
        self.directory = directory
        self.mode = mode
        self.nnz = nnz
        self.column_dtypes = tuple(np.dtype(d) for d in column_dtypes)
        self.shard_nnz = shard_nnz
        self.shard_no = 0
        self.filled = 0  # entries written into the current shard
        self._column_handles: Optional[List] = None
        self._values_handle = None

    def _open_next(self) -> None:
        stem = f"shard{self.shard_no:04d}"
        size = min(self.shard_nnz, self.nnz - self.shard_no * self.shard_nnz)
        mode_dir = os.path.join(self.directory, _mode_dir(self.mode))
        # Each shard file streams into a sibling temporary and is fsynced
        # and renamed into place only when complete, so a crash mid-merge
        # never leaves a final-named file with partial contents.
        self._final_paths = [
            os.path.join(mode_dir, f"{stem}.col{k}.npy")
            for k in range(len(self.column_dtypes))
        ] + [os.path.join(mode_dir, stem + ".values.npy")]
        self._tmp_paths = [tmp_path_for(path) for path in self._final_paths]
        self._column_handles = []
        for k, dtype in enumerate(self.column_dtypes):
            handle = open(self._tmp_paths[k], "wb")
            _npy_header(handle, (size,), dtype)
            self._column_handles.append(handle)
        self._values_handle = open(self._tmp_paths[-1], "wb")
        _npy_header(self._values_handle, (size,), np.float64)
        self._capacity = size

    def _finish_shard(self) -> None:
        """Commit the completed shard: fsync, close, rename every file."""
        handles = list(self._column_handles) + [self._values_handle]
        for handle, tmp, final in zip(handles, self._tmp_paths, self._final_paths):
            fsync_file(handle)
            handle.close()
            os.replace(tmp, final)
        fsync_directory(os.path.join(self.directory, _mode_dir(self.mode)))
        self._column_handles = None
        self._values_handle = None
        self.shard_no += 1
        self.filled = 0

    def write(
        self, columns: Sequence[np.ndarray], values: np.ndarray
    ) -> None:
        """Append a merged block, cutting shard files at their boundaries."""
        offset = 0
        total = values.shape[0]
        while offset < total:
            if self._column_handles is None:
                self._open_next()
            take = min(self._capacity - self.filled, total - offset)
            piece = slice(offset, offset + take)
            for k, handle in enumerate(self._column_handles):
                handle.write(
                    np.ascontiguousarray(
                        columns[k][piece], dtype=self.column_dtypes[k]
                    ).tobytes()
                )
            self._values_handle.write(
                np.ascontiguousarray(values[piece], dtype=np.float64).tobytes()
            )
            self.filled += take
            offset += take
            if self.filled == self._capacity:
                self._finish_shard()

    def close(self) -> None:
        if self._column_handles is not None:  # pragma: no cover - defensive
            for handle in list(self._column_handles) + [self._values_handle]:
                handle.close()
            for tmp in self._tmp_paths:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise DataFormatError(
                f"mode {self.mode}: merge ended mid-shard "
                f"({self.filled} of {self._capacity} entries)"
            )


class _SegmentationAccumulator:
    """Row segmentation (``row_ids``/``row_starts``/``row_counts``) on the fly.

    Consumes the mode column of each merged block (sorted, possibly
    continuing the previous block's last row) and produces the same arrays
    ``numpy.unique`` yields over the full sorted column.
    """

    def __init__(self) -> None:
        self._ids: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._tail_id: Optional[int] = None
        self._tail_count = 0

    def update(self, column: np.ndarray) -> None:
        if column.size == 0:
            return
        boundaries = np.flatnonzero(column[1:] != column[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ids = column[starts]
        counts = np.diff(np.concatenate((starts, [column.size])))
        if self._tail_id is not None and int(ids[0]) == self._tail_id:
            counts[0] += self._tail_count
        elif self._tail_id is not None:
            self._ids.append(np.asarray([self._tail_id], dtype=np.int64))
            self._counts.append(np.asarray([self._tail_count], dtype=np.int64))
        self._tail_id = int(ids[-1])
        self._tail_count = int(counts[-1])
        if ids.size > 1:
            self._ids.append(ids[:-1].astype(np.int64))
            self._counts.append(counts[:-1].astype(np.int64))

    def finish(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._tail_id is not None:
            self._ids.append(np.asarray([self._tail_id], dtype=np.int64))
            self._counts.append(np.asarray([self._tail_count], dtype=np.int64))
            self._tail_id = None
        if not self._ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        ids = np.concatenate(self._ids)
        counts = np.concatenate(self._counts)
        starts = np.empty_like(counts)
        starts[0] = 0
        np.cumsum(counts[:-1], out=starts[1:])
        return ids, starts, counts


class _IngestState:
    """Everything the spill pass accumulates about the entry stream."""

    def __init__(
        self,
        tmp_dir: str,
        shape: Optional[Sequence[int]],
        chunk_nnz: int = MERGE_BLOCK_NNZ,
    ) -> None:
        self.tmp_dir = tmp_dir
        self.chunk_nnz = int(chunk_nnz)
        self.declared_shape = (
            tuple(int(s) for s in shape) if shape is not None else None
        )
        self.order: Optional[int] = (
            len(self.declared_shape) if self.declared_shape else None
        )
        self.nnz = 0
        self.indices_sum = 0
        self.maxima: Optional[np.ndarray] = None
        self.digest = hashlib.sha256()
        self.run_count = 0
        self.values_spill_path = os.path.join(tmp_dir, "values.f8")
        self.max_spill_workers = 1
        self.pool: Optional[ThreadPoolExecutor] = None
        self._pool_started = False

    def spill_pool(self) -> Optional[ThreadPoolExecutor]:
        """The per-build spill pool, created once the order is known.

        Capped at one thread per mode (one spill task exists per mode);
        ``None`` — the serial path — when a single worker would result.
        """
        if not self._pool_started:
            self._pool_started = True
            n_workers = min(self.max_spill_workers, self.order or 1)
            if n_workers > 1:
                self.pool = ThreadPoolExecutor(
                    max_workers=n_workers, thread_name_prefix="repro-spill"
                )
        return self.pool

    def shape(self) -> Tuple[int, ...]:
        if self.declared_shape is not None:
            return self.declared_shape
        return tuple(int(m) + 1 for m in self.maxima)

    def column_dtypes(self) -> Tuple[np.dtype, ...]:
        """Final per-column dtypes (known once ingest has seen every entry)."""
        return index_dtypes_for_shape(self.shape())


def _spill_chunk(
    state: _IngestState, indices: np.ndarray, values: np.ndarray
) -> None:
    """Sort one chunk per mode and write its runs (plus the value spill).

    The chunk's columns are narrowed first (each to the smallest dtype
    admitting the chunk's own maxima — the store's final shape may not be
    known yet), then each mode's stable argsort, narrow gathers and file
    writes run as one task; with more than one spill worker the per-mode
    tasks overlap on a thread pool.  A stable argsort of a narrow column
    equals the stable argsort of the int64 column value for value, so the
    runs order the entries exactly as an int64 sort would.
    """
    base = state.nnz
    run = state.run_count
    columns = [
        np.ascontiguousarray(
            indices[:, k], dtype=index_dtype_for_max(int(indices[:, k].max()))
        )
        for k in range(state.order)
    ]

    def spill_mode(mode: int) -> None:
        perm = np.argsort(columns[mode], kind="stable")
        mode_tmp = os.path.join(state.tmp_dir, _mode_dir(mode))
        stem = os.path.join(mode_tmp, f"run{run:06d}")
        for k in range(state.order):
            np.save(f"{stem}.col{k}.npy", columns[k][perm])
        np.save(stem + ".values.npy", values[perm])
        np.save(stem + ".positions.npy", base + perm)

    pool = state.spill_pool()
    if pool is not None:
        # One task per mode; modes write disjoint files, so the result is
        # independent of completion order.  list() propagates exceptions.
        list(pool.map(spill_mode, range(state.order)))
    else:
        for mode in range(state.order):
            spill_mode(mode)
    state.run_count += 1


def _ingest(state: _IngestState, source, chunk_nnz: int) -> None:
    """Spill every chunk of ``source`` and accumulate the fingerprint."""
    bound = (
        np.asarray(state.declared_shape, dtype=np.int64)
        if state.declared_shape is not None
        else None
    )
    with open(state.values_spill_path, "wb") as values_spill:
        for indices, values in source.iter_entry_chunks(chunk_nnz):
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            values = np.ascontiguousarray(values, dtype=np.float64)
            if indices.ndim != 2 or values.shape != (indices.shape[0],):
                raise DataFormatError(
                    "entry source yielded inconsistent chunk shapes "
                    f"{indices.shape} / {values.shape}"
                )
            if indices.shape[0] == 0:
                continue
            if state.order is None:
                state.order = indices.shape[1]
            elif indices.shape[1] != state.order:
                raise DataFormatError(
                    f"entry source switched from order {state.order} to "
                    f"{indices.shape[1]} mid-stream"
                )
            if state.maxima is None:
                state.maxima = np.zeros(state.order, dtype=np.int64)
                for mode in range(state.order):
                    os.makedirs(
                        os.path.join(state.tmp_dir, _mode_dir(mode)),
                        exist_ok=True,
                    )
            if int(indices.min()) < 0:
                raise ShapeError("indices must be non-negative")
            if bound is not None and (indices >= bound[None, :]).any():
                raise ShapeError("an index exceeds the tensor shape")
            if not np.isfinite(values).all():
                raise ShapeError("tensor values must be finite")
            state.digest.update(indices.tobytes())
            values_spill.write(values.tobytes())
            state.indices_sum += int(indices.sum())
            np.maximum(state.maxima, indices.max(axis=0), out=state.maxima)
            _spill_chunk(state, indices, values)
            state.nnz += indices.shape[0]


def _iter_merged(runs, mode: int, merge_block: int, dtypes):
    """Merge sorted runs; yield ``(columns, values, positions)`` blocks.

    ``runs`` are ``(columns, values, positions)`` triples (``columns`` a
    tuple of per-mode 1-D maps, possibly in different chunk-local narrow
    dtypes), each sorted by the compound key
    ``(columns[mode], positions)``.  Each round, every live run offers a
    window of at most ``merge_block // live`` entries; the pivot is the
    smallest window-end key, every run emits its window's entries up to
    the pivot, and the pieces are put in key order by one ``lexsort``.
    Keys are unique (positions are), so the output order is that of a
    merge moving one entry at a time; every round empties at least one
    window, and a block never exceeds ``merge_block`` entries.  Yielded
    columns are cast to ``dtypes``.
    """
    cursors = [0] * len(runs)
    lengths = [run[2].shape[0] for run in runs]
    while True:
        live = [r for r in range(len(runs)) if cursors[r] < lengths[r]]
        if not live:
            return
        window = max(1, merge_block // len(live))
        stops = [min(lengths[r], cursors[r] + window) for r in live]
        pivot = min(
            (int(runs[r][0][mode][stop - 1]), int(runs[r][2][stop - 1]))
            for r, stop in zip(live, stops)
        )
        pieces = []  # (run, span) of each run's emission this round
        for r, window_stop in zip(live, stops):
            columns, values, positions = runs[r]
            cursor = cursors[r]
            column = columns[mode][cursor:window_stop]
            # Every entry with key ≤ pivot: all rows below the pivot's row,
            # plus the tied rows whose original position does not follow it.
            below = int(np.searchsorted(column, pivot[0], side="left"))
            tie_stop = int(np.searchsorted(column, pivot[0], side="right"))
            ties = int(
                np.searchsorted(
                    positions[cursor + below : cursor + tie_stop],
                    pivot[1],
                    side="right",
                )
            )
            stop = cursor + below + ties
            if stop > cursor:
                pieces.append((runs[r], slice(cursor, stop)))
            cursors[r] = stop
        block_columns = tuple(
            np.concatenate(
                [run[0][k][span].astype(dtype, copy=False) for run, span in pieces]
            )
            for k, dtype in enumerate(dtypes)
        )
        block_values = np.concatenate([run[1][span] for run, span in pieces])
        block_positions = np.concatenate([run[2][span] for run, span in pieces])
        if len(pieces) > 1:
            order = np.lexsort((block_positions, block_columns[mode]))
            block_columns = tuple(column[order] for column in block_columns)
            block_values = block_values[order]
            block_positions = block_positions[order]
        yield block_columns, block_values, block_positions


def _open_runs(stems, order: int):
    """Memory-map the column/value/position files of each run stem."""
    return [
        (
            tuple(
                np.load(f"{stem}.col{k}.npy", mmap_mode="r")
                for k in range(order)
            ),
            np.load(stem + ".values.npy", mmap_mode="r"),
            np.load(stem + ".positions.npy", mmap_mode="r"),
        )
        for stem in stems
    ]


def _delete_run(stem: str, order: int) -> None:
    suffixes = [f".col{k}.npy" for k in range(order)]
    suffixes += [".values.npy", ".positions.npy"]
    for suffix in suffixes:
        try:
            os.remove(stem + suffix)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def _cascade_runs(
    state: _IngestState,
    mode: int,
    stems: List[str],
    merge_block: int,
    max_open: Optional[int] = None,
) -> List[str]:
    """Merge groups of runs into longer runs until one pass fits ``max_open``.

    Keeps at most ``max_open`` runs (``order + 2`` memory-mapped files
    each) open at a time, so descriptor usage stays bounded no matter how
    many chunks the ingest spilled; each intermediate run is itself sorted
    by the compound key and written in the store's final column dtypes, so
    later passes — and the final shard merge — stay bitwise identical to a
    flat merge.
    """
    if max_open is None:  # read at call time so tests can shrink it
        max_open = MAX_OPEN_RUNS
    final_dtypes = state.column_dtypes()
    pass_number = 0
    while len(stems) > max_open:
        merged_stems: List[str] = []
        for group_number, start in enumerate(range(0, len(stems), max_open)):
            group = stems[start : start + max_open]
            out_stem = os.path.join(
                state.tmp_dir,
                _mode_dir(mode),
                f"cascade{pass_number:02d}_{group_number:06d}",
            )
            runs = _open_runs(group, state.order)
            total = sum(run[1].shape[0] for run in runs)
            column_handles = []
            for k, dtype in enumerate(final_dtypes):
                handle = open(f"{out_stem}.col{k}.npy", "wb")
                _npy_header(handle, (total,), dtype)
                column_handles.append(handle)
            with open(out_stem + ".values.npy", "wb") as values_out, open(
                out_stem + ".positions.npy", "wb"
            ) as pos_out:
                _npy_header(values_out, (total,), np.float64)
                _npy_header(pos_out, (total,), np.int64)
                for columns, values, positions in _iter_merged(
                    runs, mode, merge_block, final_dtypes
                ):
                    for column, handle in zip(columns, column_handles):
                        handle.write(column.tobytes())
                    values_out.write(
                        np.ascontiguousarray(values, dtype=np.float64).tobytes()
                    )
                    pos_out.write(
                        np.ascontiguousarray(positions, dtype=np.int64).tobytes()
                    )
            for handle in column_handles:
                handle.close()
            del runs  # close the mappings before deleting their files
            for stem in group:
                _delete_run(stem, state.order)
            merged_stems.append(out_stem)
        stems = merged_stems
        pass_number += 1
    return stems


def _merge_mode(
    state: _IngestState,
    mode: int,
    directory: str,
    shard_nnz: int,
    merge_block: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K-way merge one mode's runs into its shard files; return segmentation."""
    if merge_block is None:
        # Emissions are the merge's only nnz-independent allocations; keep
        # them within the caller's chunk budget.
        merge_block = max(1_024, min(MERGE_BLOCK_NNZ, state.chunk_nnz))
    stems = [
        os.path.join(state.tmp_dir, _mode_dir(mode), f"run{run:06d}")
        for run in range(state.run_count)
    ]
    stems = _cascade_runs(state, mode, stems, merge_block)
    runs = _open_runs(stems, state.order)
    writer = _ShardSeriesWriter(
        directory, mode, state.nnz, state.column_dtypes(), shard_nnz
    )
    segmentation = _SegmentationAccumulator()
    merged = _iter_merged(runs, mode, merge_block, state.column_dtypes())
    for block_columns, block_values, _ in merged:
        writer.write(block_columns, block_values)
        segmentation.update(np.asarray(block_columns[mode]))
    writer.close()
    return segmentation.finish()


def streaming_build(
    source,
    directory: str,
    shard_nnz: int = DEFAULT_SHARD_NNZ,
    chunk_nnz: Optional[int] = None,
    shape: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Build the shard-store layout from a chunked entry source; return its manifest.

    See the module docstring for the algorithm and
    :meth:`repro.shards.ShardStore.build_streaming` for the public entry
    point.  ``shape`` (or ``source.shape``) is required only when the
    source yields no entries; otherwise it is inferred.
    """
    if shard_nnz < 1:
        raise ShapeError("shard_nnz must be at least 1")
    chunk_nnz = DEFAULT_CHUNK_NNZ if chunk_nnz is None else int(chunk_nnz)
    if chunk_nnz < 1:
        raise ShapeError("chunk_nnz must be at least 1")
    if shape is None:
        shape = getattr(source, "shape", None)
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    tmp_dir = os.path.join(directory, INGEST_TMP_DIR)
    if os.path.isdir(tmp_dir):
        # A scratch directory can only be here if a prior build died (a
        # completed build always removes it); with no manifest alongside,
        # that build never committed at all.  Either way the leftovers are
        # useless to this build — log the detection and clear them.
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            logger.warning(
                "%s: removing stale %s left by an interrupted build "
                "(the existing manifest predates it)",
                directory,
                INGEST_TMP_DIR,
            )
        else:
            logger.warning(
                "%s: detected an interrupted streaming build (stale %s, "
                "no manifest); cleaning it up and rebuilding from scratch",
                directory,
                INGEST_TMP_DIR,
            )
        shutil.rmtree(tmp_dir)
    # Commit-point discipline: retire any old manifest before the first
    # data file is touched, write the new one last — a crash in between
    # leaves a directory ShardStore.open refuses, never one it accepts
    # but validate() rejects.
    _retire_manifest(directory)
    os.makedirs(tmp_dir)
    state = _IngestState(tmp_dir, shape, chunk_nnz)
    state.max_spill_workers = spill_workers()
    try:
        _ingest(state, source, chunk_nnz)
        if state.order is None:
            raise DataFormatError(
                "entry source produced no entries and no shape; an empty "
                "store needs an explicit shape"
            )
        if state.nnz and state.maxima is None:  # pragma: no cover - defensive
            raise DataFormatError("ingest finished in an inconsistent state")

        # Fingerprint: indices were digested during the spill; values are
        # appended now, preserving ShardStore.matches' digest order.  The
        # value sum runs over the spill's memory map, which NumPy reduces
        # with the same pairwise algorithm as an in-RAM array.
        if state.nnz:
            with open(state.values_spill_path, "rb") as spill:
                while True:
                    piece = spill.read(1 << 20)
                    if not piece:
                        break
                    state.digest.update(piece)
            values_map = np.memmap(
                state.values_spill_path, dtype=np.float64, mode="r"
            )
            values_sum = float(np.sum(values_map))
            del values_map
        else:
            values_sum = 0.0
        fingerprint = {
            "values_sum": values_sum,
            "indices_sum": state.indices_sum,
            "entries_sha256": state.digest.hexdigest(),
        }

        modes_json: List[Dict[str, object]] = []
        for mode in range(state.order):
            mode_dir = os.path.join(directory, _mode_dir(mode))
            if os.path.isdir(mode_dir):
                shutil.rmtree(mode_dir)
            os.makedirs(mode_dir)
            row_ids, row_starts, row_counts = _merge_mode(
                state, mode, directory, shard_nnz
            )
            atomic_save_array(os.path.join(mode_dir, "row_ids.npy"), row_ids)
            atomic_save_array(
                os.path.join(mode_dir, "row_starts.npy"), row_starts
            )
            atomic_save_array(
                os.path.join(mode_dir, "row_counts.npy"), row_counts
            )
            modes_json.append(
                {
                    "mode": mode,
                    "shards": _mode_shards_json(
                        mode,
                        state.nnz,
                        shard_nnz,
                        state.order,
                        row_ids,
                        row_starts,
                    ),
                }
            )
            # This mode's runs are merged; free their disk before the next.
            shutil.rmtree(
                os.path.join(tmp_dir, _mode_dir(mode)), ignore_errors=True
            )

        manifest = _manifest_payload(
            state.shape(),
            state.nnz,
            shard_nnz,
            fingerprint,
            modes_json,
        )
        _write_manifest(directory, manifest)
        return manifest
    finally:
        if state.pool is not None:
            state.pool.shutdown()
        shutil.rmtree(tmp_dir, ignore_errors=True)

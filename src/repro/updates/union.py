"""Entry source presenting a shard store plus its pending deltas as one tensor.

:class:`UnionEntrySource` speaks both streaming protocols of this codebase
without materializing the union:

* the **entry-source protocol** (``nnz`` / ``shape`` / ``mode_segmentation``
  / ``read_mode_block``) consumed by ``update_factor_mode(source, ...)`` and
  the targeted re-solver — so the union drives the same kernel backends'
  row solvers as the base store;
* the **chunked entry-reader protocol** (``iter_entry_chunks``) consumed by
  ``ShardStore.build_streaming`` — so compaction folds the union through
  the existing k-way merge.

Ordering contract (this is what makes targeted re-solves **bitwise**-equal
to full sweeps): the union's canonical entry sequence is the base store's
entries in their build order followed by the pending delta entries in
**log-append** order.  Each per-mode view is the stable sort of that
sequence by the mode's index — within one factor row, base entries keep
their relative order and precede delta entries, and delta entries keep
log order.  Because the base store's own per-mode shards are stable sorts
of the same base sequence, ``read_mode_block`` can merge lazily: it maps
a union range ``[start, stop)`` to one contiguous base range plus one
contiguous slice of the (sorted, in-RAM) delta entries, with no search
per entry.

A delta entry at a coordinate the base (or an earlier delta) already
holds is a **second observation**, not a replacement: the union appends
it, so both entries are read, both count in the row's normal equations
and re-solve, and compaction stores both — exactly what a fresh build of
the concatenated entries holds.  Nothing is deduplicated.

The merge arithmetic, per mode: let ``ins[j]`` be the number of base
entries in the mode's order that precede delta entry ``j`` (all base
entries in earlier rows, plus the full row the delta lands in — ties go
base-first).  Then delta ``j`` sits at union position ``u[j] = ins[j] + j``
(strictly increasing), and base entry ``i`` sits at
``i + #{j : u[j] <= i + j}``; a union block ``[start, stop)`` therefore
contains exactly deltas ``searchsorted(u, start) .. searchsorted(u, stop)``
and base entries ``start - j_lo .. stop - j_hi``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..columns import IndexColumns
from ..exceptions import ShapeError
from .deltalog import DeltaLog

#: Default chunk size for ``iter_entry_chunks`` (matches the ingest default).
DEFAULT_CHUNK_NNZ = 1_000_000


class UnionEntrySource:
    """Lazy union of a :class:`~repro.shards.store.ShardStore` and its deltas."""

    def __init__(self, store, log: Optional[DeltaLog] = None) -> None:
        self.store = store
        self.log = log if log is not None else DeltaLog.open(store.directory)
        indices, values = self.log.load_entries(store.order)
        if indices.shape[0]:
            upper = np.asarray(store.shape, dtype=np.int64)
            if (indices < 0).any() or (indices >= upper[None, :]).any():
                raise ShapeError(
                    f"delta entries fall outside the store shape "
                    f"{tuple(store.shape)}"
                )
        self.delta_indices = indices
        self.delta_values = values
        self.shape = tuple(int(s) for s in store.shape)
        self.nnz = int(store.nnz) + int(indices.shape[0])
        self.index_dtypes = tuple(store.index_dtypes)
        self._orders: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._segmentations: Dict[
            int, Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def delta_nnz(self) -> int:
        return int(self.delta_indices.shape[0])

    # -- per-mode merge positions --------------------------------------
    def _mode_order(self, mode: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(perm, u)``: delta permutation into mode order and the union
        positions of the sorted delta entries (strictly increasing)."""
        cached = self._orders.get(mode)
        if cached is not None:
            return cached
        perm = np.argsort(self.delta_indices[:, mode], kind="stable")
        sorted_rows = self.delta_indices[perm, mode]
        row_ids, _, row_counts = self.store.mode_segmentation(mode)
        cumulative = np.concatenate(
            ([0], np.cumsum(row_counts, dtype=np.int64))
        )
        # Base entries preceding each delta: every base entry whose row id
        # is <= the delta's row (ties break base-first).
        insertion = cumulative[
            np.searchsorted(row_ids, sorted_rows, side="right")
        ]
        union_positions = insertion + np.arange(perm.shape[0], dtype=np.int64)
        self._orders[mode] = (perm, union_positions)
        return perm, union_positions

    # -- entry-source protocol -----------------------------------------
    def mode_segmentation(
        self, mode: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged ``(row_ids, row_starts, row_counts)`` of the union.

        Bitwise-equal (values and int64 dtype) to the segmentation arrays
        a fresh build of the union tensor would record.
        """
        cached = self._segmentations.get(mode)
        if cached is not None:
            return cached
        base = self.store.mode_segmentation(mode)
        if self.delta_nnz == 0:
            self._segmentations[mode] = base
            return base
        base_ids, _, base_counts = base
        delta_ids, delta_counts = np.unique(
            self.delta_indices[:, mode], return_counts=True
        )
        row_ids = np.union1d(base_ids, delta_ids).astype(np.int64, copy=False)
        row_counts = np.zeros(row_ids.shape[0], dtype=np.int64)
        row_counts[np.searchsorted(row_ids, base_ids)] += base_counts
        row_counts[np.searchsorted(row_ids, delta_ids)] += delta_counts
        row_starts = np.zeros(row_ids.shape[0], dtype=np.int64)
        np.cumsum(row_counts[:-1], out=row_starts[1:])
        merged = (row_ids, row_starts, row_counts)
        self._segmentations[mode] = merged
        return merged

    def read_mode_block(
        self, mode: int, start: int, stop: int
    ) -> Tuple[IndexColumns, np.ndarray]:
        """Entries ``[start, stop)`` of the union in mode-sorted order.

        Index columns come back in the store's narrow dtypes and values as
        float64, byte-for-byte what a store built from the union tensor
        would return for the same range.
        """
        start = max(0, int(start))
        stop = min(int(stop), self.nnz)
        length = max(0, stop - start)
        order = self.order
        if length == 0:
            empty = [np.empty(0, dtype=d) for d in self.index_dtypes]
            return IndexColumns(empty), np.empty(0, dtype=np.float64)
        perm, union_positions = self._mode_order(mode)
        j_lo = int(np.searchsorted(union_positions, start, side="left"))
        j_hi = int(np.searchsorted(union_positions, stop, side="left"))
        base_lo = start - j_lo
        base_hi = stop - j_hi
        base_columns, base_values = self.store.read_mode_block(
            mode, base_lo, base_hi
        )
        columns = [np.empty(length, dtype=d) for d in self.index_dtypes]
        values = np.empty(length, dtype=np.float64)
        delta_mask = np.zeros(length, dtype=bool)
        if j_hi > j_lo:
            offsets = union_positions[j_lo:j_hi] - start
            delta_mask[offsets] = True
            selected = perm[j_lo:j_hi]
            for k in range(order):
                columns[k][offsets] = self.delta_indices[selected, k].astype(
                    self.index_dtypes[k], copy=False
                )
            values[offsets] = self.delta_values[selected]
        base_positions = np.nonzero(~delta_mask)[0]
        for k in range(order):
            columns[k][base_positions] = base_columns.column(k)
        values[base_positions] = base_values
        return IndexColumns(columns), values

    # -- chunked entry-reader protocol ---------------------------------
    def iter_entry_chunks(
        self, chunk_nnz: int = DEFAULT_CHUNK_NNZ
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The canonical union sequence: base entries in the store's
        canonical (mode-0) order, then deltas in log-append order."""
        chunk_nnz = max(1, int(chunk_nnz))
        base_nnz = int(self.store.nnz)
        for start in range(0, base_nnz, chunk_nnz):
            stop = min(start + chunk_nnz, base_nnz)
            columns, values = self.store.read_mode_block(0, start, stop)
            yield columns.to_matrix(), values
        for start in range(0, self.delta_nnz, chunk_nnz):
            stop = min(start + chunk_nnz, self.delta_nnz)
            yield (
                np.ascontiguousarray(self.delta_indices[start:stop]),
                np.ascontiguousarray(self.delta_values[start:stop]),
            )

    # -- convenience ----------------------------------------------------
    def touched_rows(self, mode: int) -> np.ndarray:
        """Sorted unique factor rows of ``mode`` that pending deltas touch."""
        if self.delta_nnz == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.delta_indices[:, mode]).astype(
            np.int64, copy=False
        )

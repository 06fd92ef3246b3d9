"""Targeted row re-solves: update only the factor rows a delta touched.

The paper's row-independence structure makes incremental updates cheap:
factor row ``i`` of mode ``m`` solves ``(B_i + λI) x = c_i`` where ``B_i``
and ``c_i`` accumulate **only** over entries whose mode-``m`` index is
``i``.  New observations therefore perturb exactly the rows they index —
everything else is untouched.  :func:`solve_touched_rows` re-runs just
those rows' normal-equation solves over the union of old and new entries
and is **bitwise**-equal to the same rows of a full
:func:`~repro.core.row_update.update_factor_mode` sweep over the union,
on every registered kernel backend.

Why bitwise equality holds (and is tested, not assumed):

* accumulation — the union source is read in the same global
  ``block_size`` grid a full sweep uses, each block is handed to the
  backend's normal-equation kernel **whole** (full block, full
  ``local_starts``), and blocks are visited in increasing order; only the
  *keeping* of per-row partials differs, and ``+=`` into disjoint row
  slots is order-free across rows;
* solving — every backend's ``solve_rows`` factorizes each ``(B_i, c_i)``
  pair independently (batched LAPACK loops per matrix, and a singular
  system is retried row by row), so a row's solution does not depend on
  which other rows share the batch.

Rows with zero union entries have singular all-zero normal equations and
are left at their current values, matching the full sweep (which never
lists them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.backends import resolve_backend
from .deltalog import DeltaLog
from .union import UnionEntrySource

DEFAULT_BLOCK_SIZE = 200_000


def solve_touched_rows(
    source,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    mode: int,
    rows: np.ndarray,
    regularization: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    backend: str = "numpy",
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations of ``rows`` of ``mode`` over ``source``.

    ``source`` is any entry-source (a shard store or a
    :class:`~repro.updates.union.UnionEntrySource`).  Returns
    ``(solved_rows, new_rows)``: the subset of ``rows`` that have at least
    one entry in ``source`` (sorted ascending) and their re-solved factor
    rows.  ``factors`` is not modified.
    """
    kernel_backend = resolve_backend(backend)
    rank = int(np.asarray(factors[mode]).shape[1])
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    row_ids, row_starts, row_counts = source.mode_segmentation(mode)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    row_starts = np.asarray(row_starts, dtype=np.int64)
    row_counts = np.asarray(row_counts, dtype=np.int64)
    n_entries = int(source.nnz)
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty((0, rank), dtype=np.float64),
    )
    if rows.shape[0] == 0 or row_ids.shape[0] == 0:
        return empty
    # Positions in the segmentation of the touched rows that exist there;
    # touched rows with no entries anywhere simply drop out.
    present = rows[np.isin(rows, row_ids)]
    if present.shape[0] == 0:
        return empty
    listed = np.searchsorted(row_ids, present)
    n_touched = listed.shape[0]
    b_matrices = np.zeros((n_touched, rank, rank), dtype=np.float64)
    c_vectors = np.zeros((n_touched, rank), dtype=np.float64)
    ne_kernel = kernel_backend.make_normal_equations_kernel(
        factors, core, mode, n_entries
    )
    block_size = max(1, int(block_size))
    # The global blocks (same grid as a full sweep) that intersect any
    # touched row's entry segment.
    segment_lo = row_starts[listed]
    segment_hi = segment_lo + row_counts[listed]
    first_block = segment_lo // block_size
    last_block = (segment_hi - 1) // block_size
    needed: set = set()
    for lo, hi in zip(first_block, last_block):
        needed.update(range(int(lo), int(hi) + 1))
    for block_number in sorted(needed):
        start = block_number * block_size
        stop = min(start + block_size, n_entries)
        first = int(np.searchsorted(row_starts, start, side="right")) - 1
        last = int(np.searchsorted(row_starts, stop, side="left"))
        local_rows = np.arange(first, last)
        local_starts = np.maximum(row_starts[first:last] - start, 0)
        indices_block, values_block = source.read_mode_block(mode, start, stop)
        partial_b, partial_c = ne_kernel(indices_block, values_block, local_starts)
        keep = np.isin(local_rows, listed)
        if not keep.any():
            continue
        destinations = np.searchsorted(listed, local_rows[keep])
        b_matrices[destinations] += partial_b[keep]
        c_vectors[destinations] += partial_c[keep]
    new_rows = kernel_backend.solve_rows(b_matrices, c_vectors, regularization)
    return row_ids[listed], new_rows


def apply_delta(
    store,
    factors: List[np.ndarray],
    core: np.ndarray,
    regularization: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    backend: str = "numpy",
    log: Optional[DeltaLog] = None,
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Fold a store's pending deltas into ``factors`` by targeted re-solves.

    Modes are visited in ascending order and each mode's touched rows are
    re-solved against the union source *with the earlier modes' updates
    already applied* — the same sequential structure as one ALS sweep
    restricted to the touched rows.  ``factors`` is updated in place.

    Returns ``{mode: (rows, new_rows)}`` for every mode that had at least
    one touched row with union entries — the exact row swaps a serving
    process feeds to ``ServingModel.apply_update``.
    """
    log = log if log is not None else DeltaLog.open(store.directory)
    union = UnionEntrySource(store, log)
    updates: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if union.delta_nnz == 0:
        return updates
    for mode in range(union.order):
        touched = union.touched_rows(mode)
        solved_rows, new_rows = solve_touched_rows(
            union,
            factors,
            core,
            mode,
            touched,
            regularization=regularization,
            block_size=block_size,
            backend=backend,
        )
        if solved_rows.shape[0] == 0:
            continue
        factor = np.ascontiguousarray(factors[mode], dtype=np.float64)
        factor[solved_rows] = new_rows
        factors[mode] = factor
        updates[mode] = (solved_rows, new_rows)
    return updates

"""Targeted row re-solves: update only the factor rows a delta touched.

The paper's row-independence structure makes incremental updates cheap:
factor row ``i`` of mode ``m`` minimises a ridge problem over **only**
the entries whose mode-``m`` index is ``i``.  New observations therefore
perturb exactly the rows they index — everything else is untouched.
:func:`solve_touched_rows` re-runs just the blocks holding those rows'
entries over the union of old and new entries and is **bitwise**-equal
to the same rows of a full :func:`~repro.core.row_update.update_factor_mode`
sweep over the union, on every registered kernel backend.

Why bitwise equality holds (and is tested, not assumed): the re-solve
*is* the sweep, restricted to fewer blocks.  It calls the sweep's own
:func:`~repro.core.row_update.row_solving_sweep` with the block numbers
that intersect a touched row's entries, so

* every visited block is read from the same global ``block_size`` grid
  and handed **whole** to the backend's row solver
  (:meth:`~repro.kernels.backends.base.KernelBackend.make_row_solver`)
  with the same solve range ``[lo, hi)`` as in the full sweep; each row
  is solved on its own (in the ``k × k`` dual when it has ``k < J``
  entries, else through its normal equations), so its bytes do not
  depend on which other rows share the block;
* a touched row split across blocks has all of its blocks visited, so its
  ``(B, c)`` partials are summed in the same block order and solved by
  the same batch-independent ``solve_rows`` as in the full sweep.

Rows with zero union entries have nothing to solve and are left at their
current values, matching the full sweep (which never lists them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.row_update import row_solving_sweep
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
    """Re-solve ``rows`` of ``mode`` over ``source``, as a full sweep would.

    ``source`` is any entry-source (a shard store or a
    :class:`~repro.updates.union.UnionEntrySource`).  Returns
    ``(solved_rows, new_rows)``: the subset of ``rows`` that have at least
    one entry in ``source`` (sorted ascending) and their re-solved factor
    rows.  ``factors`` is not modified.
    """
    rank = int(np.asarray(factors[mode]).shape[1])
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    row_ids, row_starts, row_counts = source.mode_segmentation(mode)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    row_starts = np.asarray(row_starts, dtype=np.int64)
    row_counts = np.asarray(row_counts, dtype=np.int64)
    # Positions in the segmentation of the touched rows that exist there;
    # touched rows with no entries anywhere simply drop out.
    listed = np.searchsorted(row_ids, rows[np.isin(rows, row_ids)])
    if listed.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty((0, rank), dtype=np.float64)
    block_size = max(1, int(block_size))
    # The global blocks (same grid as a full sweep) that intersect any
    # touched row's entry segment.
    first_block = row_starts[listed] // block_size
    last_block = (row_starts[listed] + row_counts[listed] - 1) // block_size
    needed: set = set()
    for lo, hi in zip(first_block, last_block):
        needed.update(range(int(lo), int(hi) + 1))
    new_rows = row_solving_sweep(
        source,
        factors,
        core,
        mode,
        regularization,
        block_size,
        row_starts,
        row_counts,
        resolve_backend(backend),
        blocks=sorted(needed),
    )
    return row_ids[listed], new_rows[listed]


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

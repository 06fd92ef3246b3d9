"""P-Tucker-Cache: the time-optimised variant with the Pres cache table.

Algorithm 3 (lines 1-4 and 16-19) of the paper: before any factor update, the
solver precomputes, for every pair of an observed entry α and a core entry β,
the full product ``Pres[α][β] = G_β · Π_{k=1..N} a^(k)_{i_k j_k}``.  While
updating mode n, the δ contribution of a pair (α, β) is then obtained as
``Pres[α][β] / a^(n)_{i_n j_n}`` — O(1) instead of O(N) multiplications.
Since every β of one j_n group shares that divisor, this implementation sums
the group first and divides once per (α, j_n).  After a factor matrix changes, the affected cache cells are rescaled by the
ratio of new to old row entries.

The trade-off is memory: the table is |Ω| x |G| (Theorem 6), which this
implementation accounts for through the shared
:class:`~repro.metrics.memory.MemoryTracker` so the Figure 8 memory
comparison can be reproduced.  When a factor entry is exactly zero the
division fallback of the paper applies: the δ contribution is recomputed
directly from the core and factors for the affected entries.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ShapeError
from ..kernels import contract_delta_block, contraction
from ..metrics.memory import BYTES_PER_FLOAT, MemoryTracker
from ..tensor.coo import SparseTensor
from ..tensor.operations import factor_rows_product
from .config import PTuckerConfig
from .ptucker import PTucker


class PTuckerCache(PTucker):
    """P-Tucker with the Pres memoization table (Algorithm 3, cache branch)."""

    name = "P-Tucker-Cache"

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        super().__init__(config)
        self._pres: Optional[np.ndarray] = None
        self._core_flat: Optional[np.ndarray] = None
        self._previous_factor: Optional[np.ndarray] = None
        self._zero_tolerance = 1e-12

    # ------------------------------------------------------------------
    def _check_supported(self, streaming: bool = False) -> None:
        super()._check_supported(streaming)
        if self.config.checkpoint_dir:
            raise ShapeError(
                "checkpoint_dir does not support P-Tucker-Cache: its "
                "incrementally rescaled Pres table is not part of a "
                "checkpoint, so a resumed fit would not be bitwise-identical "
                "to an uninterrupted one"
            )

    def _prepare(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        memory: Optional[MemoryTracker],
    ) -> None:
        """Precompute Pres for every (observed entry, core entry) pair.

        The table is filled in tiles of ``TILE_BYTES // (8 · |G|)`` entries
        (the contraction kernel's tile budget), so the only full-size
        allocation is the |Ω| × |G| table itself: the transient Kronecker
        weight blocks span about ``TILE_BYTES`` whatever |Ω| is.  The
        tracker charges the table alone (up front, before the fill); the
        true peak is that table plus a few tile-sized temporaries.
        """
        core_flat = np.asarray(core).reshape(-1)
        n_entries = tensor.nnz
        width = core_flat.shape[0]
        if memory is not None:
            memory.allocate(n_entries * width * BYTES_PER_FLOAT, "cache-table")
        pres = np.empty((n_entries, width), dtype=np.float64)
        block = max(1, contraction.TILE_BYTES // (BYTES_PER_FLOAT * width))
        for start in range(0, n_entries, block):
            stop = min(start + block, n_entries)
            # A slice keeps the index gather inside factor_rows_product a view.
            weights = factor_rows_product(
                tensor, factors, skip=-1, entry_rows=slice(start, stop)
            )
            np.multiply(weights, core_flat[None, :], out=pres[start:stop])
        self._pres = pres
        self._core_flat = core_flat.copy()

    # ------------------------------------------------------------------
    def _delta_provider(self, tensor: SparseTensor, factors, core, mode: int):
        """δ from the cache: reduce Pres over each j_n group, then divide.

        Every cell of a j_n group shares the divisor ``a^(n)_{i_n j_n}``, so
        ``Σ_β Pres[α][β] / a^(n)_{i_n j_n}`` over the group is the group sum
        divided once: one reshaped sum of the table per mode update, then
        one division per (entry, j_n) rather than per (entry, core cell).
        The sum rounds differently from the paper's divide-then-reduce
        order, within float64 rounding of the direct δ.  Entries with a
        (numerically) zero divisor are recomputed with the direct product,
        matching the paper's note on lines 12 and 19.  The mode's current
        factor is kept as the divisor and for the rescale that follows the
        update (:meth:`_after_mode_update`).
        """
        if self._pres is None:
            return None
        previous = factors[mode].copy()
        self._previous_factor = previous
        core_arr = np.asarray(core)
        group_sums = self._grouped_pres(core_arr.shape, mode).sum(axis=(1, 3))

        def provider(entry_positions: np.ndarray, mode_inner: int) -> np.ndarray:
            rows = tensor.indices[entry_positions]
            divisors = previous[rows[:, mode_inner]]
            safe = np.abs(divisors) > self._zero_tolerance
            deltas = np.zeros_like(divisors)
            np.divide(group_sums[entry_positions], divisors, out=deltas, where=safe)
            # Fallback: entries touching a zero factor value get the direct O(N) path.
            needs_fallback = np.nonzero(~safe.all(axis=1))[0]
            if needs_fallback.size:
                deltas[needs_fallback] = contract_delta_block(
                    rows[needs_fallback], factors, core_arr, mode_inner
                )
            return deltas

        return provider

    def _grouped_pres(self, core_shape, mode: int) -> np.ndarray:
        """Pres viewed as ``(|Ω|, Π_{k<n} J_k, J_n, Π_{k>n} J_k)``.

        The flattened core is C-ordered, so axis 2 of this view is j_n.
        """
        before = int(np.prod(core_shape[:mode], dtype=np.int64))
        return self._pres.reshape(self._pres.shape[0], before, core_shape[mode], -1)

    # ------------------------------------------------------------------
    def _after_mode_update(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        mode: int,
    ) -> None:
        """Rescale Pres by new/old factor entries (Algorithm 3 lines 16-19)."""
        if self._pres is None:
            return
        core_arr = np.asarray(core)
        mode_rows = tensor.indices[:, mode]
        old = self._previous_factor[mode_rows]
        safe = np.abs(old) > self._zero_tolerance
        ratio = np.ones_like(old)
        np.divide(np.asarray(factors[mode])[mode_rows], old, out=ratio, where=safe)
        grouped = self._grouped_pres(core_arr.shape, mode)
        grouped *= ratio[:, None, :, None]
        # Cells whose old value was zero cannot be rescaled; rebuild them exactly.
        stale_entries = np.nonzero(~safe.all(axis=1))[0]
        if stale_entries.size:
            weights = factor_rows_product(
                tensor, factors, skip=-1, entry_rows=stale_entries
            )
            self._pres[stale_entries] = weights * core_arr.reshape(-1)[None, :]

"""Progressive core contraction against gathered factor rows.

The two entry points share one engine that contracts the non-kept modes of
the core against the factor rows of a block of ``m`` observed entries.  Two
complementary contraction strategies are combined per mode:

* **Precontraction** — when a mode's dimensionality ``I_k`` is no larger
  than the block (``I_k ≤ m``) and the resulting table stays small, the core
  is contracted against the *entire* factor matrix once
  (``T ← T ×_k A^(k)``, an ``I_k · |T|`` tensordot instead of ``m · |T|``
  batched work); the per-entry result is then a single row gather from the
  table.  Observed entries share mode indices, so this reuses every shared
  partial product instead of recomputing it per entry.
* **Batched contraction** — remaining (large-dimension) modes are reduced
  per entry: the first one as a plain GEMM introducing the batch axis with a
  C-contiguous result, each later one as a contiguous batched ``einsum``
  over the (always last) axis of the shrinking intermediate.

Every step removes one mode, so the per-entry intermediate only shrinks —
the ``(m, Π_{k≠n} J_k)`` Kronecker matrix of the seed kernel never exists.
A block is evaluated in consecutive tiles whose widest per-entry
intermediate spans about :data:`TILE_BYTES`, each written into its slice of
one preallocated output, so the largest temporary is about
``2 · TILE_BYTES`` per call whatever the caller's block size.

* **Grouped table rows** — a fit's δ plan whose table has few rows (the
  year and hour modes of a ratings tensor each table only the other short
  mode: 12 or 24 rows of ``J_n · J_a · J_b`` values) does not gather a
  table row per entry.  It stably sorts each tile by table row and, per
  run of equal rows, multiplies the group's gathered rows of the last
  batched mode (``m_g × J_last``) by that table row, stored once as
  ``(J_last × rest)``, in one GEMM; the other batched modes follow as
  usual and the result is scattered back to entry order.  The widest
  per-entry intermediate shrinks ``J_last``-fold, so tiles grow as much.
  The rule is a function of the plan's shape only: group when a tile
  (capped at the sweep's entries) holds at least :data:`MIN_MEAN_GROUP`
  entries per table row on average.  The 288-row tables of a ratings
  tensor's user and movie modes, the value contractor and every
  ``batch_invariant`` plan keep the gather.

Every entry's row is computed on its own, so neither tiling nor grouping
changes a bit of it: a GEMM gives each row of an ``m ≥ 2`` product the
bits it has in any other such product, but numpy hands a one-row product
to gemv, which sums differently, so a group of one entry is evaluated as
a two-row GEMM.

See the package docstring of :mod:`repro.kernels` for the complexity
comparison against the seed Kronecker kernel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..columns import as_index_block

#: Precontracted tables are capped at this many float64 cells (16 MB), so
#: the hybrid never trades the eliminated Kronecker intermediate for an
#: equally large table on wide-dimension modes.
PRECONTRACT_CELL_BUDGET = 1 << 21

#: Entry blocks are contracted in tiles whose widest per-entry intermediate
#: spans about this many bytes (half of a 2 MiB per-core L2), so the
#: contraction temporaries stay cache-resident whatever the block size.
TILE_BYTES = 1 << 20

#: A fit plan evaluates its last batched mode one table row at a time (one
#: GEMM per group of entries sharing the row) when a tile holds at least
#: this many entries per table row on average.  A tile holds the fewer of
#: ``TILE_BYTES // (8 · width)`` and the sweep's expected entries.
MIN_MEAN_GROUP = 64


class _ContractionPlan:
    """Entry-independent state of one contraction sweep.

    Built once per (factors, core, kept mode) and applied to any number of
    entry blocks: the precontracted table and the contraction schedule only
    depend on the model, so block loops (the solvers' ``block_size`` chunks)
    reuse them instead of rebuilding per block.

    ``batch_invariant=True`` swaps the one BLAS GEMM of :meth:`apply` for
    an :func:`numpy.einsum` with the same index structure.  BLAS tiles a
    GEMM differently depending on the batch dimension ``m``, so the same
    entry evaluated alone and inside a big block can differ in the last
    ulp; einsum's accumulation order over the contracted axis is fixed
    per output element regardless of the batch shape.  The serving layer
    (:mod:`repro.serve`) relies on this so that micro-batching never
    changes an answer; the fit path keeps the (faster) BLAS default.

    ``pre`` replaces the greedy precontraction choice with a given mode
    order.  Precontraction order fixes the table's summation order, so a
    plan rebuilt elsewhere from the whole factors of exactly those modes
    (the ``procpool`` workers) produces the same bits as the original;
    the other modes' factors are then never read when :meth:`apply` is
    given their gathered rows.

    ``grouped`` plans (see the module docstring) keep ``flat`` as
    ``(table rows, J_last, rest)``, one GEMM operand per table row, and
    their ``width`` is the GEMM's per-entry output.  Whether a plan groups
    depends only on ``pre``, the ranks, ``expected_entries`` and
    :data:`TILE_BYTES`, so a plan rebuilt from ``pre`` and the same
    ``expected_entries`` groups alike.
    """

    __slots__ = (
        "factors",
        "pre",
        "pre_dims",
        "flat",
        "g",
        "loop_modes",
        "batch_invariant",
        "width",
        "out_width",
        "grouped",
    )

    def __init__(
        self,
        factors: Sequence[np.ndarray],
        core_arr: np.ndarray,
        keep_mode: Optional[int],
        expected_entries: int,
        batch_invariant: bool = False,
        pre: Optional[Sequence[int]] = None,
    ) -> None:
        order = core_arr.ndim
        other = [k for k in range(order) if k != keep_mode]
        self.factors = factors
        self.batch_invariant = bool(batch_invariant)
        self.out_width = core_arr.shape[keep_mode] if keep_mode is not None else 1

        if pre is None:
            # Greedy precontraction set: smallest dimensions first, while
            # the table stays under budget and has no more rows (the
            # product of the precontracted lengths) than the sweep has
            # entries to gather them.
            pre = []
            size = core_arr.size
            table_rows = 1
            for k in sorted(other, key=lambda q: np.asarray(factors[q]).shape[0]):
                dim_k = np.asarray(factors[k]).shape[0]
                new_size = (size // core_arr.shape[k]) * dim_k
                if (
                    table_rows * dim_k <= expected_entries
                    and new_size <= PRECONTRACT_CELL_BUDGET
                ):
                    pre.append(k)
                    size = new_size
                    table_rows *= dim_k
        pre = [int(k) for k in pre]
        batch = [k for k in other if k not in pre]
        kept = [keep_mode] if keep_mode is not None else []
        self.pre = pre

        if pre:
            # Contract the table against whole factor matrices, tracking
            # which mode each table axis belongs to (~k marks mode k's I_k
            # axis).
            table = core_arr
            axes: List[int] = list(range(order))
            for k in pre:
                position = axes.index(k)
                table = np.tensordot(
                    table, np.asarray(factors[k]), axes=([position], [1])
                )
                axes.pop(position)
                axes.append(~k)
            target = [~k for k in pre] + kept + batch
            table = np.transpose(table, [axes.index(a) for a in target])
            self.pre_dims = table.shape[: len(pre)]
            # C-contiguous explicitly: when the transpose happens to be
            # reshapeable as a strided view, ``take`` on the resulting
            # F-ordered array walks the whole table per gather (measured
            # ~8 ms on a 16 MB table for a single row) instead of copying
            # one contiguous row.
            self.flat = np.ascontiguousarray(
                table.reshape(int(np.prod(self.pre_dims, dtype=np.int64)), -1)
            )
            self.g = None
            self.loop_modes = batch
            self.width = self.flat.shape[1]
            # Fit δ plans with a batched mode left group a tile's entries
            # by table row when the mean group is long enough; a tile holds
            # at most the sweep's entries.
            n_rows = self.flat.shape[0]
            grouped_width = self.width // table.shape[-1] if batch else 0
            self.grouped = (
                keep_mode is not None
                and bool(batch)
                and not self.batch_invariant
                and n_rows * MIN_MEAN_GROUP
                <= min(expected_entries, TILE_BYTES // (8 * grouped_width))
            )
            if self.grouped:
                # Each table row as the (J_last, rest) right operand of its
                # group's GEMM; the widest per-entry intermediate is then
                # the GEMM's output, J_last times narrower than a row.
                self.flat = np.ascontiguousarray(
                    self.flat.reshape(n_rows, grouped_width, -1).transpose(0, 2, 1)
                )
                self.width = grouped_width
        else:
            # The first batched step reduces the core's last axis as one GEMM.
            self.g = np.transpose(core_arr, kept + batch)
            self.pre_dims = ()
            self.flat = None
            self.loop_modes = batch
            self.width = self.g.size // self.g.shape[-1]
            self.grouped = False

    def apply(
        self,
        indices_block: np.ndarray,
        rows: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """Contract the planned modes for one ``(m, N)`` entry block.

        ``rows[k]``, when given, holds ``factors[k][indices_block[:, k]]``
        for every batched mode ``k`` and is used in place of that gather.
        Tiles are at least ``TILE_BYTES // (8 · width)`` entries long,
        ``width`` being the widest per-entry intermediate of the plan.
        """
        n_entries = indices_block.shape[0]
        tile = max(1, TILE_BYTES // (8 * self.width))
        pieces = max(1, n_entries // tile)
        if pieces == 1:
            return self._apply_tile(indices_block, None, rows)
        # Near-equal consecutive pieces, none shorter than a tile.
        bounds = np.arange(pieces + 1, dtype=np.int64) * n_entries // pieces
        out = np.empty((n_entries, self.out_width), dtype=np.float64)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            tile_rows = None if rows is None else [
                None if r is None else r[lo:hi] for r in rows
            ]
            self._apply_tile(indices_block[lo:hi], out[lo:hi], tile_rows)
        return out

    def _rows(self, k, indices_block, rows) -> np.ndarray:
        """Mode ``k``'s factor row of every entry: given, else gathered."""
        if rows is not None:
            return rows[k]
        return np.asarray(self.factors[k]).take(indices_block[:, k], axis=0)

    def _apply_tile(self, indices_block, out=None, rows=None) -> np.ndarray:
        """Contract the planned modes for one tile of entries (into ``out``)."""
        n_entries = indices_block.shape[0]
        if self.pre:
            # Row-major composite index of each entry into the gathered axes.
            linear = np.zeros(n_entries, dtype=np.int64)
            for axis, k in enumerate(self.pre):
                linear = linear * self.pre_dims[axis] + indices_block[:, k]
            if self.grouped:
                return self._apply_grouped(indices_block, linear, out, rows)
            if not self.loop_modes:
                # Every mode precontracted: gather straight into the output.
                # ``take`` buffers ``out`` under its default bounds mode, so
                # the bounds are checked here and the gather never wraps.
                n_rows = self.flat.shape[0]
                if n_entries and not 0 <= linear.min() <= linear.max() < n_rows:
                    raise IndexError("entry index outside the factor matrices")
                if out is None:
                    out = np.empty((n_entries, self.out_width), dtype=np.float64)
                return self.flat.take(linear, axis=0, out=out, mode="wrap")
            temp = self.flat.take(linear, axis=0)
            loop_modes = self.loop_modes
        else:
            # First step: the GEMM, batch axis leading.  Under
            # ``batch_invariant`` the same contraction runs as an einsum,
            # whose per-element accumulation order does not depend on the
            # batch dimension (BLAS retiles with m and can differ in the
            # last ulp between a lone entry and the same entry in a block).
            last = self.loop_modes[-1]
            rows_last = self._rows(last, indices_block, rows)
            g2 = self.g.reshape(-1, self.g.shape[-1])
            if self.batch_invariant:
                temp = np.einsum("zj,xj->zx", rows_last, g2)
            else:
                temp = rows_last @ g2.T
            loop_modes = self.loop_modes[:-1]

        temp = self._contract_batched(temp, loop_modes, indices_block, rows)
        if out is None:
            return temp
        out[...] = temp
        return out

    def _apply_grouped(self, indices_block, linear, out, rows) -> np.ndarray:
        """One GEMM per group of the tile's entries that share a table row.

        The entries are stably sorted by table row; each group's gathered
        rows of the last batched mode meet that table row in one BLAS GEMM,
        the other batched modes follow as usual, and the result is
        scattered back to entry order.  numpy hands a one-row product to
        gemv, whose bits differ from a GEMM row's, so a lone entry is
        evaluated as a two-row GEMM: every entry's row then comes out of a
        GEMM with at least two rows, and its bits do not depend on the
        group, tile or block it arrived in.
        """
        n_entries, n_rows = indices_block.shape[0], self.flat.shape[0]
        if not 0 <= linear.min() <= linear.max() < n_rows:
            raise IndexError("entry index outside the factor matrices")
        # Stable, so the order is unique; a 16-bit key sorts by radix.
        key = linear.astype(np.uint16) if n_rows <= 1 << 16 else linear
        order = np.argsort(key, kind="stable")
        linear = linear[order]
        indices_block = indices_block[order]
        if rows is not None:
            rows = [None if r is None else r[order] for r in rows]
        rows_last = self._rows(self.loop_modes[-1], indices_block, rows)
        cuts = np.flatnonzero(linear[1:] != linear[:-1]) + 1
        table_rows = linear[np.concatenate(([0], cuts))].tolist()
        cuts = cuts.tolist()
        temp = np.empty((n_entries, self.width), dtype=np.float64)
        for lo, hi, row in zip([0] + cuts, cuts + [n_entries], table_rows):
            if hi - lo == 1:
                temp[lo] = (rows_last[[lo, lo]] @ self.flat[row])[0]
            else:
                np.matmul(rows_last[lo:hi], self.flat[row], out=temp[lo:hi])
        temp = self._contract_batched(
            temp, self.loop_modes[:-1], indices_block, rows
        )
        if out is None:
            out = np.empty((n_entries, self.out_width), dtype=np.float64)
        out[order] = temp
        return out

    def _contract_batched(self, temp, loop_modes, indices_block, rows) -> np.ndarray:
        """Contract ``loop_modes`` out of ``temp``, one batched einsum each.

        The next mode to contract is always the (contiguous) last axis of
        the shrinking intermediate.
        """
        n_entries = indices_block.shape[0]
        for k in reversed(loop_modes):
            rows_k = self._rows(k, indices_block, rows)
            temp = np.einsum(
                "zxj,zj->zx", temp.reshape(n_entries, -1, rows_k.shape[1]), rows_k
            )
        return temp.reshape(n_entries, -1)


def make_delta_contractor(
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    mode: int,
    expected_entries: int,
    batch_invariant: bool = False,
    pre: Optional[Sequence[int]] = None,
):
    """A reusable ``indices_block -> (m, J_mode)`` δ kernel for one sweep.

    The precontraction tables are built once here; solvers iterating over
    ``block_size`` chunks call the returned function per block without
    redoing the entry-independent work.  ``batch_invariant=True`` makes the
    result of every row independent of the block it arrived in (see
    :class:`_ContractionPlan`); the serving layer's rank-space queries use
    it, fits keep the default.

    ``pre`` fixes the precontraction order (see :class:`_ContractionPlan`)
    and the closure takes an optional ``rows`` argument, the per-mode
    gathered factor rows of the block's entries for every mode outside
    ``pre`` (``None`` elsewhere); with both, only the precontracted modes'
    factors are ever read.  ``precontraction_order`` exposes the plan's
    order so a second plan can be built to match it.

    The returned closure exposes ``precontracted`` — the frozenset of
    modes whose factor *contents* were baked into its tables at build
    time.  A caller that mutates a factor in place must treat any closure
    that precontracted that mode as stale; the serving hot-swap rebuilds
    its contractors over a fresh factor snapshot for exactly this reason.
    """
    core_arr = np.asarray(core, dtype=np.float64)
    if core_arr.ndim == 1 and mode == 0:
        row = core_arr.reshape(1, -1)

        def contract_rank1(indices_block, rows=None) -> np.ndarray:
            return np.tile(row, (indices_block.shape[0], 1))

        contract_rank1.precontracted = frozenset()
        contract_rank1.precontraction_order = ()
        return contract_rank1
    plan = _ContractionPlan(
        factors, core_arr, mode, expected_entries, batch_invariant, pre
    )
    rank = core_arr.shape[mode]

    def contract(indices_block, rows=None) -> np.ndarray:
        indices_block = as_index_block(indices_block)
        if indices_block.shape[0] == 0:
            return np.zeros((0, rank), dtype=np.float64)
        return plan.apply(indices_block, rows)

    contract.precontracted = frozenset(plan.pre)
    contract.precontraction_order = tuple(plan.pre)
    return contract


def make_value_contractor(
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    expected_entries: int,
    batch_invariant: bool = False,
):
    """A reusable ``indices_block -> (m,)`` model-value kernel for one sweep.

    ``batch_invariant=True`` makes each entry's value independent of the
    block it is evaluated in — the serving layer's point predictions use
    it so micro-batch composition can never change an answer.
    """
    core_arr = np.asarray(core, dtype=np.float64)
    plan = _ContractionPlan(
        factors, core_arr, None, expected_entries, batch_invariant
    )

    def contract(indices_block) -> np.ndarray:
        indices_block = as_index_block(indices_block)
        if indices_block.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return plan.apply(indices_block).reshape(-1)

    contract.precontracted = frozenset(plan.pre)
    return contract


def contract_delta_block(
    indices_block: np.ndarray,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    mode: int,
) -> np.ndarray:
    """δ vectors (Eq. 12) for a block of observed entries, by core contraction.

    ``indices_block`` has shape ``(m, N)``; the result has shape
    ``(m, J_mode)`` and is numerically identical (up to floating-point
    associativity) to the seed Kronecker kernel frozen as
    :func:`repro.kernels.microbench.compute_delta_block`, without ever building
    the ``(m, Π_{k≠mode} J_k)`` intermediate.
    """
    indices_block = as_index_block(indices_block)
    contractor = make_delta_contractor(
        factors, core, mode, indices_block.shape[0]
    )
    return contractor(indices_block)


def contract_value_block(
    indices_block: np.ndarray,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
) -> np.ndarray:
    """Model prediction (Eq. 4) at each entry of the block, by full contraction.

    Contracts *every* mode of the core, returning a 1-D array of length
    ``m``.  This replaces the seed path that materialised the full
    ``(m, |G|)`` Kronecker weight matrix before reducing against the
    flattened core.
    """
    indices_block = as_index_block(indices_block)
    contractor = make_value_contractor(factors, core, indices_block.shape[0])
    return contractor(indices_block)

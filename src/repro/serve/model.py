""":class:`ServingModel` — a fitted Tucker model held ready for queries.

Loading happens once (model ``.npz`` via :func:`repro.model_io.load_model`
or a checkpoint directory via :func:`repro.model_io.load_result`, the
latter optionally memory-mapped); every query after that touches only
precomputed state:

* **Point predictions** run through
  :func:`repro.kernels.contraction.make_value_contractor` with
  ``batch_invariant=True`` and a *fixed* ``plan_entries``, so the
  contraction plan — and therefore every answer, bit for bit — is
  independent of how many predictions share a call.
* **Top-K** queries never reconstruct anything dense.  The context rows
  are contracted into rank space (``q = core ×_{k≠m} u_k``, a length
  ``J_m`` vector, via the same batch-invariant δ kernel the solver uses
  with ``keep_mode = m``), and ``q`` is screened against the mode's
  :class:`~repro.serve.topk.ItemProjection` — a float32 rank-major cast
  of ``U_m^T``, ``O(I_m · J_m)`` float32 per query with the read
  amortised across the batch — and the few candidates are rescored from
  the float64 factor rows by the deterministic scorer of
  :mod:`repro.serve.topk`.  The float32 screen is the only item matrix
  kept beside the factor.
* A hot-row :class:`~repro.serve.cache.LRUCache` keeps recent ``q``
  vectors per (mode, context), so repeat queries by the same user skip
  the core contraction entirely; a second cache keeps gathered factor
  rows when the model is memory-mapped.

Attaching the fit's shard store (:meth:`ServingModel.attach_store`)
enables ``exclude_observed``: the store's mode segmentation locates the
query context's observed entries and their item indices are masked out of
the ranking — "recommend something the user hasn't rated".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import DataFormatError, ShapeError
from ..kernels.contraction import make_delta_contractor, make_value_contractor
from ..metrics import Counters
from ..model_io import load_result, validate_model
from .cache import LRUCache
from .topk import ItemProjection, TopKResult, topk_scores

#: Contraction plans are built for this many entries regardless of actual
#: batch sizes — plan geometry must not vary with batching, or batched
#: and unbatched answers could differ.
PLAN_ENTRIES = 4096

#: Default capacity of the per-(mode, context) projected-vector cache.
DEFAULT_QUERY_CACHE = 4096

#: Default capacity of the gathered-factor-row cache (mmap-backed models).
DEFAULT_ROW_CACHE = 65536


class ServingModel:
    """Factors + core loaded once, answering point and top-K queries.

    ``factors`` may be plain arrays or read-only memory maps (checkpoint
    loading with ``mmap=True``); the core is always resident.  All public
    query methods are batch-invariant: a request's answer is bitwise
    identical whether it is evaluated alone, in a batch, or in a batch of
    different composition.
    """

    def __init__(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        algorithm: str = "",
        query_cache: int = DEFAULT_QUERY_CACHE,
        row_cache: int = DEFAULT_ROW_CACHE,
        counters: Optional[Counters] = None,
    ) -> None:
        core = np.asarray(core, dtype=np.float64)
        factors = [f for f in factors]
        validate_model(core, factors, "ServingModel")
        self.factors = factors
        self.core = core
        self.algorithm = algorithm
        self.shape = tuple(int(f.shape[0]) for f in factors)
        self.ranks = tuple(int(j) for j in core.shape)
        self.order = core.ndim
        self.counters = counters if counters is not None else Counters()
        self.query_cache = LRUCache(
            query_cache, name="query_cache", counters=self.counters
        )
        self.row_cache = LRUCache(
            row_cache, name="row_cache", counters=self.counters
        )
        self._store = None
        self.mmap_backed = any(isinstance(f, np.memmap) for f in factors)
        # One immutable ItemProjection (screen, factor, abs-sums, margin)
        # per item mode: a top-K reader grabs it in a single dict read, so
        # a concurrent hot-swap can never pair a new screen with a stale
        # factor or margin (which could mis-prune).
        self._projections: Dict[int, ItemProjection] = {}
        self._delta: Dict[int, object] = {}
        self._value = make_value_contractor(
            self.factors, self.core, PLAN_ENTRIES, batch_invariant=True
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str, mmap: bool = False, **kwargs) -> "ServingModel":
        """Load from a model ``.npz`` or a checkpoint directory.

        ``mmap=True`` (checkpoint directories only) maps the factor
        matrices read-only instead of copying them into RAM; hot rows are
        then staged through the row cache.
        """
        result = load_result(path, mmap=mmap)
        return cls(
            result.factors, result.core, algorithm=result.algorithm, **kwargs
        )

    def attach_store(self, store) -> None:
        """Attach the fit's shard store (object or directory path).

        Required only for ``exclude_observed`` top-K queries; the store's
        shape must match the model's.
        """
        if isinstance(store, str):
            from ..shards import ShardStore

            store = ShardStore.open(store)
        if tuple(store.shape) != self.shape:
            raise ShapeError(
                f"shard store shape {tuple(store.shape)} does not match "
                f"the model's {self.shape}"
            )
        self._store = store

    # ------------------------------------------------------------------
    # Precomputed per-mode state
    # ------------------------------------------------------------------
    def item_projection(self, mode: int) -> ItemProjection:
        """The :class:`~repro.serve.topk.ItemProjection` of item mode ``m``.

        Built once per designated item mode on first use: a float32
        rank-major ``(J_m, I_m)`` screen cast from the factor in row
        chunks (so the screening GEMM streams contiguous item
        coefficients per rank component at half the bytes of float64),
        plus the float64 factor itself, which rescoring reads row by row.
        :meth:`apply_update` patches it instead of rebuilding it — the
        ``model.projection_builds`` counter proves a swap never triggers
        a rebuild.
        """
        self._check_mode(mode)
        projection = self._projections.get(mode)
        if projection is None:
            projection = ItemProjection.build(self.factors[mode])
            self._projections[mode] = projection
            self.counters.add("model.projection_builds")
        return projection

    def _delta_contractor(self, mode: int):
        """The batch-invariant rank-space kernel for item mode ``m``."""
        if mode not in self._delta:
            self._delta[mode] = make_delta_contractor(
                self.factors,
                self.core,
                mode,
                PLAN_ENTRIES,
                batch_invariant=True,
            )
        return self._delta[mode]

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.order:
            raise ShapeError(
                f"mode {mode} out of range for an order-{self.order} model"
            )

    # ------------------------------------------------------------------
    # Point predictions
    # ------------------------------------------------------------------
    def predict(self, indices) -> np.ndarray:
        """Model values at a block of full index tuples, shape ``(m,)``.

        ``indices`` is ``(m, N)`` (or a single length-``N`` tuple).  Each
        value is Eq. (4) of the paper, evaluated through the
        batch-invariant full contraction — identical no matter the batch.
        """
        block = np.asarray(indices, dtype=np.int64)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        self._check_indices(block)
        self._stage_rows(block, range(self.order))
        values = self._value(block)
        self.counters.add("model.predictions", block.shape[0])
        return values

    def _stage_rows(self, block: np.ndarray, modes) -> None:
        """Stage hot factor rows through the row cache (mmap models only).

        Memory-mapped factors gather rows straight off disk inside the
        contraction kernel; for hot rows that read should never fault.
        A cache miss here copies the row into the LRU — faulting its
        pages in ahead of the kernel's own gather — while a hit skips
        the prefetch.  This is staging, not a second math path: the
        kernel always performs the same gather afterwards, so cached and
        uncached queries share one code path bit for bit, and the hit /
        miss counters report how hot the working set actually is.
        """
        if not self.mmap_backed:
            return
        for k in modes:
            factor = self.factors[k]
            if not isinstance(factor, np.memmap):
                continue
            for index in np.unique(block[:, k]):
                key = ("row", k, int(index))
                self.row_cache.get_or_compute(
                    key, lambda f=factor, i=int(index): np.array(f[i])
                )

    def _check_indices(self, block: np.ndarray) -> None:
        if block.ndim != 2 or block.shape[1] != self.order:
            raise ShapeError(
                f"index block must be (m, {self.order}), got {block.shape}"
            )
        for k, dim in enumerate(self.shape):
            column = block[:, k]
            if column.size and (column.min() < 0 or column.max() >= dim):
                raise ShapeError(
                    f"mode-{k} index out of range [0, {dim}) in query block"
                )

    # ------------------------------------------------------------------
    # Top-K
    # ------------------------------------------------------------------
    def _context_block(
        self, contexts: Sequence[Sequence[int]], mode: int
    ) -> np.ndarray:
        """Normalise query contexts to full-width index rows.

        Each context is either a full length-``N`` tuple (the item-mode
        position is ignored and zeroed — the δ kernel never reads the
        kept mode's column) or a length-``N-1`` tuple of the non-item
        modes in ascending mode order.
        """
        block = np.zeros((len(contexts), self.order), dtype=np.int64)
        other = [k for k in range(self.order) if k != mode]
        for row, context in enumerate(contexts):
            context = tuple(int(c) for c in context)
            if len(context) == self.order:
                for k in other:
                    block[row, k] = context[k]
            elif len(context) == self.order - 1:
                for k, value in zip(other, context):
                    block[row, k] = value
            else:
                raise ShapeError(
                    f"top-K context needs {self.order} (full) or "
                    f"{self.order - 1} (item mode omitted) indices, "
                    f"got {len(context)}"
                )
        for k in other:
            column = block[:, k]
            if column.size and (column.min() < 0 or column.max() >= self.shape[k]):
                raise ShapeError(
                    f"mode-{k} index out of range [0, {self.shape[k]}) "
                    "in top-K context"
                )
        return block

    def project(
        self, contexts: Sequence[Sequence[int]], mode: int
    ) -> np.ndarray:
        """Rank-space query vectors ``q``, shape ``(B, J_mode)``, cached.

        Cache hits skip the core contraction; misses are contracted in
        one batch-invariant kernel call and inserted.  Because the kernel
        is batch-invariant, mixing cached and fresh vectors can never
        change a value.
        """
        block = self._context_block(contexts, mode)
        keys = [
            (mode,) + tuple(int(v) for v in row) for row in block
        ]
        q_block = np.empty((block.shape[0], self.ranks[mode]), dtype=np.float64)
        missing: List[int] = []
        for row, key in enumerate(keys):
            cached = self.query_cache.get(key)
            if cached is None:
                missing.append(row)
            else:
                q_block[row] = cached
        if missing:
            self._stage_rows(
                block[missing], [k for k in range(self.order) if k != mode]
            )
            fresh = self._delta_contractor(mode)(block[missing])
            for position, row in enumerate(missing):
                q_block[row] = fresh[position]
                self.query_cache.put(keys[row], np.array(fresh[position]))
        return q_block

    def topk(
        self,
        context: Sequence[int],
        mode: int,
        k: int,
        exclude_observed: bool = False,
    ) -> TopKResult:
        """Top-``k`` items of mode ``m`` for one query context."""
        return self.topk_batch([context], mode, k, exclude_observed)[0]

    def topk_batch(
        self,
        contexts: Sequence[Sequence[int]],
        mode: int,
        k: int,
        exclude_observed: bool = False,
    ) -> List[TopKResult]:
        """Top-``k`` items of mode ``m`` for a batch of query contexts.

        One rank-space projection per context (cached), one pass over the
        precomputed item projection for the whole batch.  With
        ``exclude_observed`` the attached shard store's entries matching
        each context are removed from the ranking.  Results are bitwise
        identical to issuing each query alone.
        """
        self._check_mode(mode)
        if int(k) < 0:
            raise ShapeError(f"k must be >= 0, got {k}")
        if not len(contexts):
            return []
        q_block = self.project(contexts, mode)
        exclude: Optional[List[Optional[np.ndarray]]] = None
        if exclude_observed:
            block = self._context_block(contexts, mode)
            exclude = [self._observed_items(row, mode) for row in block]
        results = topk_scores(q_block, self.item_projection(mode), k, exclude)
        self.counters.add("model.topk_queries", len(results))
        return results

    def _observed_items(self, context_row: np.ndarray, mode: int) -> np.ndarray:
        """Item indices of observed entries matching one query context."""
        if self._store is None:
            raise DataFormatError(
                "exclude_observed requires an attached shard store "
                "(ServingModel.attach_store / --shards)"
            )
        other = [k for k in range(self.order) if k != mode]
        anchor = other[0]
        row_ids, row_starts, row_counts = self._store.mode_segmentation(anchor)
        position = int(np.searchsorted(row_ids, context_row[anchor]))
        if position >= len(row_ids) or row_ids[position] != context_row[anchor]:
            return np.zeros(0, dtype=np.int64)
        start = int(row_starts[position])
        stop = start + int(row_counts[position])
        indices, _ = self._store.read_mode_block(anchor, start, stop)
        keep = np.ones(len(indices), dtype=bool)
        for k in other[1:]:
            keep &= np.asarray(indices[:, k], dtype=np.int64) == context_row[k]
        return np.asarray(indices[:, mode], dtype=np.int64)[keep]

    # ------------------------------------------------------------------
    # Hot-swap updates
    # ------------------------------------------------------------------
    def apply_update(
        self, mode: int, rows: np.ndarray, new_rows: np.ndarray
    ) -> int:
        """Atomically swap factor rows of ``mode`` into the live model.

        ``rows`` are factor row indices and ``new_rows`` their
        replacement values, typically straight from a targeted re-solve
        (:func:`repro.updates.resolve.solve_touched_rows`).  The swap is
        built on the side and published by plain attribute rebinding, so
        a concurrent query observes either the fully-old or the fully-new
        model, never a blend:

        * a fresh factor list and fresh value/δ contractors are
          constructed over it — a contraction plan precontracts factor
          *contents* into its tables at build time, so rebuilding over
          the snapshot is what keeps every closure self-consistent;
        * the item projection of ``mode`` is patched **surgically** —
          a copy of the float32 screen with the swapped columns cast in,
          their abs-sums recomputed, the margin re-maxed — never rebuilt
          (see ``model.projection_builds``) unless the new margin moves
          the screen's power-of-two scale;
        * only the cache entries the swap staled are invalidated: ``q``
          vectors whose context touches a swapped row of ``mode`` and
          staged copies of the swapped rows.  Everything else stays warm,
          and the cache's ``invalidations`` counter reconciles with the
          evicted keys.

        Returns the number of rows swapped.
        """
        self._check_mode(mode)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.ndim == 1:
            new_rows = new_rows.reshape(1, -1)
        if new_rows.shape != (rows.shape[0], self.ranks[mode]):
            raise ShapeError(
                f"apply_update needs ({rows.shape[0]}, {self.ranks[mode]}) "
                f"replacement rows for mode {mode}, got {new_rows.shape}"
            )
        if rows.size and (
            rows.min() < 0 or rows.max() >= self.shape[mode]
        ):
            raise ShapeError(
                f"mode-{mode} row index out of range "
                f"[0, {self.shape[mode]}) in apply_update"
            )
        if rows.size == 0:
            return 0
        if np.unique(rows).shape[0] != rows.shape[0]:
            raise ShapeError("apply_update rows must be unique")
        factor = np.array(
            np.asarray(self.factors[mode]), dtype=np.float64, copy=True
        )
        factor[rows] = new_rows
        new_factors = list(self.factors)
        new_factors[mode] = factor
        new_value = make_value_contractor(
            new_factors, self.core, PLAN_ENTRIES, batch_invariant=True
        )
        new_delta = {
            m: make_delta_contractor(
                new_factors, self.core, m, PLAN_ENTRIES, batch_invariant=True
            )
            for m in self._delta
        }
        new_projections = dict(self._projections)
        if mode in new_projections:
            old = new_projections[mode]
            new = old.with_rows(rows, new_rows, factor)
            new_projections[mode] = new
            if new.exponent != old.exponent:
                self.counters.add("model.projection_builds")
            else:
                self.counters.add(
                    "model.projection_row_updates", rows.shape[0]
                )
        # Publish: each assignment swaps a whole self-consistent object,
        # so any reader sees a coherent snapshot.
        self.factors = new_factors
        self.mmap_backed = any(isinstance(f, np.memmap) for f in new_factors)
        self._value = new_value
        self._delta = new_delta
        self._projections = new_projections
        swapped = {int(r) for r in rows}
        self.query_cache.invalidate_where(
            lambda key: key[0] != mode and int(key[1 + mode]) in swapped
        )
        self.row_cache.invalidate_where(
            lambda key: key[1] == mode and int(key[2]) in swapped
        )
        self.counters.add("model.updates")
        self.counters.add("model.rows_swapped", rows.shape[0])
        return int(rows.shape[0])

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-ready model/query/cache stats for ``/stats``."""
        return {
            "algorithm": self.algorithm,
            "shape": list(self.shape),
            "ranks": list(self.ranks),
            "counters": self.counters.snapshot(),
            "query_cache": self.query_cache.snapshot(),
            "row_cache": self.row_cache.snapshot(),
        }

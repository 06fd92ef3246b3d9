"""Rank-space top-K: float32 screening, deterministic rescoring, canonical ties.

The serving top-K for a query against item mode ``m`` is::

    q = core ×_{k≠m} u_k          # rank-space projection, shape (J_m,)
    scores = Q @ U_m^T            # (B, J_m) · (J_m, I_m) -> (B, I_m)
    topk(scores[b])               # exact K best items per query

The serving layer promises *batched == unbatched == single-query,
bitwise*.  A plain BLAS GEMM cannot deliver that on its own — BLAS
retiles with the batch shape, so ``(Q @ P)[i]`` and ``(Q[i:i+1] @ P)[0]``
can differ in the last ulp — while a fully deterministic elementwise
scorer cannot deliver the throughput (its ``O(B·I·J)`` temporary traffic
never amortises across the batch).  :func:`topk_scores` therefore splits
the work so each half does what it is good at, over one
:class:`ItemProjection` per item mode: a float32 rank-major **screen**
matrix ``P = U_m^T · 2^e`` and the float64 factor ``U_m`` itself.

1. **Screen (fast, approximate).**  One float32 BLAS GEMM scores the
   whole item axis against ``q`` scaled by a power of two.  These scores
   are *only* used to select candidates, never returned, so float32 —
   half the bytes per pass of float64 — loses nothing.
2. **Margin (rigorous).**  The screen score ``ŝ_i`` and the
   deterministic float64 score ``d_i`` of an item differ by at most::

       Δ = 2 · [((J+2)·u₃₂ + J·ε₆₄) · ‖q‖_∞ · max_i Σ_j |U_ij| + abs]

   ``(J+2)·u₃₂`` is the forward error of a float32 dot product of
   length ``J`` in any accumulation order (``J`` roundings) plus the two
   casts of ``q`` and ``U`` to float32; ``J·ε₆₄`` is the float64
   scorer's own error; the factor 2 is slack.  Before the cast ``q`` is
   scaled per row, and ``U`` per projection (only when its abs-sums
   leave ``2^±SCREEN_EXPONENT_WINDOW``), by exact powers of two, so
   float32 cannot overflow; the ``abs`` term covers float32 (and float64)
   underflow, flush-to-zero included (:func:`screen_thresholds`).  With
   τ a value at least ``k`` eligible screen scores reach, every member of
   the exact top-K — and every exact boundary tie — screens at
   ``≥ τ - 2Δ``.  The candidate set ``{i : ŝ_i ≥ τ - 2Δ}`` is therefore a
   provable superset, typically barely larger than ``k``.  Items a query
   excludes are masked to ``-inf`` before τ is chosen.
3. **Rescore (exact, deterministic).**  Candidates are rescored from the
   float64 factor rows by :func:`score_pairs`, whose explicit per-``j``
   elementwise loop fixes each element's accumulation order regardless
   of batch or block shape, and selected by the canonical rule.

The final answer is the canonical top-K of the *deterministic* scores —
a pure function of (q, factor, k, exclusions) — so batch size, row/column
blocking, float32 rounding, and the screening GEMM's non-determinism
cannot change a returned item or score.  A degenerate screen (massive
ties, a zero query, a margin that swamps the scores) falls back to the
deterministic full scan of the factor, which returns the same answer.
**Canonical rule** (:func:`canonical_topk`): threshold = the K-th largest
score; every item strictly above it is in; remaining slots go to
threshold-tied items in ascending item order; final ordering is
``(-score, item)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: Chunk width for the screening pass's per-chunk maxima (used to find τ
#: without a full argpartition per row when ``k`` is small).
DEFAULT_COL_BLOCK = 2048

#: Cap on screening-matrix size: rows per GEMM chunk is chosen so the
#: ``(rows, I_m)`` float32 score block stays near 128 MB however large
#: the batch.
SCREEN_BLOCK_CELLS = 32_000_000

#: Largest rows-per-chunk even for tiny item modes.
MAX_ROW_BLOCK = 1024

#: Factor rows cast per step when a screen is built, so the build never
#: allocates a factor-sized temporary.
SCREEN_BUILD_ROWS = 16_384

#: Item abs-sums within ``2^±SCREEN_EXPONENT_WINDOW`` are cast unscaled
#: (float32 cannot overflow there, and underflow is far below the
#: relative margin); outside it the screen is scaled into ``[0.5, 1)``.
SCREEN_EXPONENT_WINDOW = 64

_U32 = 2.0 ** -24  # float32 unit roundoff
_EPS64 = float(np.finfo(np.float64).eps)
_TINY32 = float(np.finfo(np.float32).tiny)  # smallest normal float32


def screen_exponent(margin: float) -> int:
    """Power of two a factor is scaled by before its float32 cast.

    A pure function of the projection's margin, so a patched screen and a
    freshly built one agree on it whenever their margins do.
    """
    if not math.isfinite(margin) or margin == 0.0:
        return 0
    exponent = math.frexp(margin)[1]
    return 0 if abs(exponent) <= SCREEN_EXPONENT_WINDOW else -exponent


@dataclass(frozen=True, eq=False)
class ItemProjection:
    """The item side of one top-K mode: a float32 screen plus its factor.

    ``screen`` is the rank-major ``(J, I)`` float32 cast of
    ``factor^T · 2^exponent`` — the only matrix the screening GEMM reads;
    ``factor`` is the float64 ``(I, J)`` item factor every returned score
    is computed from.  ``sums[i] = Σ_j |factor[i, j]|`` is kept so a hot
    swap can re-max ``margin`` without a full pass.
    """

    screen: np.ndarray
    factor: np.ndarray
    sums: np.ndarray
    margin: float
    exponent: int

    @classmethod
    def build(cls, factor: np.ndarray) -> "ItemProjection":
        """Cast ``factor`` into a screen, one row chunk at a time."""
        items, rank = factor.shape
        sums = np.empty(items, dtype=np.float64)
        for start in range(0, items, SCREEN_BUILD_ROWS):
            stop = min(start + SCREEN_BUILD_ROWS, items)
            block = np.asarray(factor[start:stop], dtype=np.float64)
            sums[start:stop] = np.abs(block).sum(axis=1)
        margin = float(sums.max()) if items else 0.0
        exponent = screen_exponent(margin)
        screen = np.empty((rank, items), dtype=np.float32)
        for start in range(0, items, SCREEN_BUILD_ROWS):
            stop = min(start + SCREEN_BUILD_ROWS, items)
            screen[:, start:stop] = _scaled(factor[start:stop], exponent).T
        return cls(screen, factor, sums, margin, exponent)

    def with_rows(
        self, rows: np.ndarray, new_rows: np.ndarray, factor: np.ndarray
    ) -> "ItemProjection":
        """The projection of ``factor``, whose ``rows`` now hold ``new_rows``.

        Copy-on-write, so a reader holding ``self`` never sees a blend:
        only the swapped columns are cast and only their abs-sums are
        recomputed.  If the new margin moves the screen's exponent, the
        screen is rebuilt instead — either way the result is byte-equal
        to :meth:`build` on ``factor``.
        """
        sums = np.array(self.sums, copy=True)
        sums[rows] = np.abs(new_rows).sum(axis=1)
        margin = float(sums.max()) if sums.size else 0.0
        if screen_exponent(margin) != self.exponent:
            return ItemProjection.build(factor)
        screen = np.array(self.screen, copy=True)
        screen[:, rows] = _scaled(new_rows, self.exponent).T
        return ItemProjection(screen, factor, sums, margin, self.exponent)


def _scaled(rows: np.ndarray, exponent: int) -> np.ndarray:
    """``rows · 2^exponent`` in float64 (exact barring underflow)."""
    rows = np.asarray(rows, dtype=np.float64)
    return np.ldexp(rows, exponent) if exponent else rows


@dataclass(frozen=True)
class TopKResult:
    """Top-K items for one query, ordered by ``(-score, item)``."""

    items: np.ndarray  # (k,) int64 item indices
    scores: np.ndarray  # (k,) float64 scores


def score_block(q_rows: np.ndarray, projection_block: np.ndarray) -> np.ndarray:
    """``(rows, J) x (J, C) -> (rows, C)`` scores, batch-shape invariant.

    ``projection_block`` is rank-major — ``factor.T`` or a column subset
    of it.  The rank axis is accumulated with an explicit ``j`` loop of
    elementwise multiply-adds into a preallocated output: element
    ``[b, i]`` is always ``(((q[b,0]·p[0,i]) + q[b,1]·p[1,i]) + ...)`` no
    matter the number of rows, which columns were gathered, or the
    surrounding batch.  This is the scorer of record — every returned
    score comes from here or from :func:`score_pairs`, which repeats its
    operation sequence.
    """
    rows = q_rows.shape[0]
    cols = projection_block.shape[1]
    out = np.zeros((rows, cols), dtype=np.float64)
    tmp = np.empty((rows, cols), dtype=np.float64)
    for j in range(q_rows.shape[1]):
        np.multiply(q_rows[:, j : j + 1], projection_block[j], out=tmp)
        out += tmp
    return out


def score_pairs(
    q_block: np.ndarray,
    factor: np.ndarray,
    row_map: np.ndarray,
    col_map: np.ndarray,
) -> np.ndarray:
    """Deterministic scores of ``(row, item)`` pairs, one per map entry.

    Computes ``out[t] = q_block[row_map[t]] · factor[col_map[t]]`` with
    the same explicit per-``j`` sequential accumulation as
    :func:`score_block` — element ``t`` sees the identical IEEE operation
    sequence, so the result is bitwise equal to gathering
    ``score_block(q_block, factor.T)[row_map, col_map]`` while reading
    only the candidate rows of the float64 factor.  This is how the
    batched path rescores every row's candidates in one vectorized pass.
    """
    q_rows = q_block[row_map]
    item_rows = np.asarray(factor[col_map], dtype=np.float64)
    total = row_map.shape[0]
    out = np.zeros(total, dtype=np.float64)
    tmp = np.empty(total, dtype=np.float64)
    for j in range(q_block.shape[1]):
        np.multiply(q_rows[:, j], item_rows[:, j], out=tmp)
        out += tmp
    return out


def screen_thresholds(
    taus: np.ndarray,
    q_scaled_max: np.ndarray,
    row_exponents: np.ndarray,
    projection: ItemProjection,
    rank: int,
) -> np.ndarray:
    """float32 thresholds ``τ - 2Δ`` in each row's scaled screen units.

    Row ``r``'s screen is ``2^s_r`` times its true scores, with
    ``s_r = row_exponents[r] + projection.exponent``, ``‖q_r‖_∞ · 2^s_r =
    q_scaled_max[r]`` and ``‖q_r‖_∞ · margin · 2^s_r`` the relative
    term's scale.  The absolute term is, in screen units: float32
    underflow of the casts (``≤ tiny₃₂`` per element even when a flushed
    input meets a ``margin``-sized partner), of the ``J`` products and of
    the ``J`` additions (flush-to-zero bounds each by ``tiny₃₂``), plus
    the float64 scorer's gradual underflow, ``≤ (J+1)·2^-1074`` in true
    units.  Thresholds are rounded *down* to float32, so comparing the
    float32 screen against them never loses a candidate.
    """
    scaled_margin = math.ldexp(projection.margin, projection.exponent)
    relative = (rank + 2) * _U32 + rank * _EPS64
    absolute = (3 * rank + 1 + scaled_margin) * _TINY32 + np.ldexp(
        float(rank + 1), row_exponents + projection.exponent - 1074
    )
    delta = 2.0 * (relative * q_scaled_max * scaled_margin + absolute)
    exact = taus.astype(np.float64) - 2.0 * delta
    with np.errstate(over="ignore"):  # -inf: the row takes the full scan
        rounded = exact.astype(np.float32)
    return np.where(
        rounded.astype(np.float64) > exact,
        np.nextafter(rounded, np.float32(-np.inf)),
        rounded,
    )


def canonical_topk(
    scores: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
) -> TopKResult:
    """Exact top-K of one score vector under the canonical tie rule.

    ``exclude`` is an optional int array of item indices removed from
    consideration (observed entries).  ``k`` larger than the number of
    eligible items returns them all.  Ordering: descending score, ties by
    ascending item index — a pure function of the values, so every
    scoring/screening strategy must reproduce it exactly.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if exclude is not None and len(exclude):
        eligible = np.ones(scores.shape[0], dtype=bool)
        eligible[np.asarray(exclude, dtype=np.int64)] = False
        candidates = np.nonzero(eligible)[0]
    else:
        candidates = np.arange(scores.shape[0], dtype=np.int64)
    k = min(int(k), candidates.shape[0])
    if k <= 0:
        empty = np.zeros(0, dtype=np.int64)
        return TopKResult(items=empty, scores=np.zeros(0, dtype=np.float64))
    return _select_canonical(scores[candidates], candidates, k)


def _select_canonical(
    values: np.ndarray, items: np.ndarray, k: int
) -> TopKResult:
    """Canonical top-``k`` over candidate ``values`` labelled by ``items``.

    ``items`` must be ascending and ``k`` already clamped to
    ``len(values) >= k >= 1``.
    """
    if k < values.shape[0]:
        # Threshold = k-th largest value; selection is by value comparison
        # only, so argpartition's internal tie behaviour cannot leak.
        threshold = values[np.argpartition(values, -k)[-k]]
        above = items[values > threshold]
        need = k - above.shape[0]
        at = items[values == threshold]
        # Ties at the boundary: smallest item indices win.  ``items`` is
        # ascending, so ``at`` is already sorted.
        chosen = np.concatenate([above, at[:need]])
    else:
        chosen = items
    chosen_scores = values[np.searchsorted(items, chosen)]
    order = np.lexsort((chosen, -chosen_scores))
    return TopKResult(
        items=chosen[order].astype(np.int64, copy=False),
        scores=chosen_scores[order],
    )


def _exact_row(
    q_row: np.ndarray,
    factor: np.ndarray,
    k: int,
    exclude: Optional[np.ndarray],
) -> TopKResult:
    """Deterministic full scan of the factor (degenerate screens only)."""
    scores = score_block(q_row.reshape(1, -1), np.asarray(factor).T)[0]
    return canonical_topk(scores, k, exclude)


def _chunk_maxima(screen: np.ndarray, col_block: int) -> np.ndarray:
    """Per-row maxima of each ``col_block``-wide column chunk of ``screen``.

    A reshaped reduction (remainder chunk apart) — the same values as
    ``maximum.reduceat`` but a contiguous inner loop.
    """
    n_rows, items_total = screen.shape
    main = (items_total // col_block) * col_block
    if not main:
        return screen.max(axis=1, keepdims=True)
    chunk_max = screen[:, :main].reshape(n_rows, -1, col_block).max(axis=2)
    if main < items_total:
        tail = screen[:, main:].max(axis=1, keepdims=True)
        chunk_max = np.concatenate([chunk_max, tail], axis=1)
    return chunk_max


def topk_scores(
    q_block: np.ndarray,
    projection: ItemProjection,
    k: int,
    exclude: Optional[List[Optional[np.ndarray]]] = None,
    col_block: int = DEFAULT_COL_BLOCK,
    row_block: Optional[int] = None,
) -> List[TopKResult]:
    """Top-K per row of ``q_block`` against an item projection.

    ``q_block`` is ``(B, J)`` and ``projection`` the mode's
    :class:`ItemProjection`; returns one :class:`TopKResult` per query.
    ``exclude`` optionally carries one index array (or None) per query;
    those items are masked out of the screen before τ is chosen.

    Implements the screen → margin → rescore pipeline of the module
    docstring: results are bitwise identical to scoring every item with
    :func:`score_block` on ``projection.factor.T`` and calling
    :func:`canonical_topk` row by row — for any batch size and any block
    geometry.
    """
    q_block = np.ascontiguousarray(q_block, dtype=np.float64)
    rank = q_block.shape[1]
    factor = projection.factor
    items_total = factor.shape[0]
    k = min(int(k), items_total)
    if items_total == 0 or k <= 0:
        return [
            TopKResult(
                items=np.zeros(0, dtype=np.int64),
                scores=np.zeros(0, dtype=np.float64),
            )
            for _ in range(q_block.shape[0])
        ]
    if row_block is None:
        row_block = max(
            1, min(MAX_ROW_BLOCK, SCREEN_BLOCK_CELLS // max(items_total, 1))
        )
    n_chunks = max(1, -(-items_total // col_block))
    chunk_starts = np.arange(0, items_total, col_block)
    results: List[Optional[TopKResult]] = [None] * q_block.shape[0]

    for row_start in range(0, q_block.shape[0], row_block):
        row_stop = min(row_start + row_block, q_block.shape[0])
        rows = q_block[row_start:row_stop]
        n_rows = rows.shape[0]
        # Screening pass: each row scaled by a power of two into [0.5, 1)
        # so float32 cannot overflow, then one float32 GEMM for the chunk.
        q_max = np.abs(rows).max(axis=1) if rank else np.zeros(n_rows)
        row_exponents = -np.frexp(q_max)[1]
        scaled = np.ldexp(rows, row_exponents[:, None]).astype(np.float32)
        screen = scaled @ projection.screen
        row_excludes = [
            exclude[row] if exclude is not None else None
            for row in range(row_start, row_stop)
        ]
        for local, row_exclude in enumerate(row_excludes):
            if row_exclude is not None and len(row_exclude):
                screen[local, np.asarray(row_exclude, dtype=np.int64)] = -np.inf
        chunk_max = _chunk_maxima(screen, col_block)
        # τ per row: a value at least k eligible screening scores reach.
        # Each chunk maximum is a real screening score, so the k-th
        # largest chunk maximum qualifies when there are at least k
        # chunks; otherwise fall back to each row's k-th largest score.
        if n_chunks > k:
            taus = np.partition(chunk_max, n_chunks - k, axis=1)[
                :, n_chunks - k
            ]
        else:
            taus = np.partition(screen, items_total - k, axis=1)[
                :, items_total - k
            ]
        thresholds = screen_thresholds(
            taus,
            np.ldexp(q_max, row_exponents),
            row_exponents,
            projection,
            rank,
        )
        # Rows whose float64 scores could overflow (and rows with too few
        # eligible items to fix τ) take the deterministic full scan.
        with np.errstate(over="ignore", invalid="ignore"):
            bounded = np.isfinite(q_max * projection.margin * 4.0)
        screened = bounded & np.isfinite(thresholds)
        # Rows that screen cleanly accumulate their candidates here and
        # are rescored together in one score_pairs pass.
        pending_rows: List[int] = []
        pending_cands: List[np.ndarray] = []
        for local, row in enumerate(range(row_start, row_stop)):
            threshold = thresholds[local]
            candidates = None
            if screened[local]:
                # Only chunks whose maximum clears the threshold can hold
                # a candidate — scan those instead of the whole row (the
                # chunks that establish τ always qualify, so ≥ k
                # candidates survive).
                live = np.nonzero(chunk_max[local] >= threshold)[0]
                if live.shape[0] * col_block >= items_total:
                    candidates = np.nonzero(screen[local] >= threshold)[0]
                else:
                    parts = []
                    for c in live:
                        start = int(chunk_starts[c])
                        stop = min(start + col_block, items_total)
                        hits = np.nonzero(
                            screen[local, start:stop] >= threshold
                        )[0]
                        parts.append(hits + start)
                    candidates = (
                        np.concatenate(parts)
                        if parts
                        else np.zeros(0, dtype=np.int64)
                    )
            if candidates is None or candidates.shape[0] >= items_total // 2:
                # Degenerate screen (massive ties, zero query): the exact
                # scan costs the same as rescoring everything.
                results[row] = _exact_row(
                    q_block[row], factor, k, row_excludes[local]
                )
                continue
            pending_rows.append(row)
            pending_cands.append(candidates)
        if pending_rows:
            counts = [c.shape[0] for c in pending_cands]
            row_map = np.repeat(
                np.asarray(pending_rows, dtype=np.int64), counts
            )
            col_map = np.concatenate(pending_cands)
            exact = score_pairs(q_block, factor, row_map, col_map)
            offset = 0
            for row, candidates in zip(pending_rows, pending_cands):
                count = candidates.shape[0]
                results[row] = _select_canonical(
                    exact[offset : offset + count],
                    candidates,
                    min(k, count),
                )
                offset += count
    return [r for r in results if r is not None]

"""Segment-sorted reductions over mode-ordered entry blocks.

All functions assume the entries of one mode have already been sorted by
their row index (the :class:`~repro.core.row_update.ModeContext` ordering),
so every row's entries form one contiguous segment.  Reductions then run as
``np.add.reduceat`` passes — contiguous, vectorised, and free of the
per-element scalar dispatch that makes ``np.add.at`` the slowest operation
in the seed kernel.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def block_segment_starts(sorted_segment_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offsets and segment ids of the runs in a sorted id array.

    ``sorted_segment_ids`` holds one (already sorted) segment id per entry of
    a block; the return value is ``(starts, ids)`` where ``starts`` are the
    offsets at which a new segment begins (always including 0) and ``ids``
    the segment id of each run.
    """
    ids = np.asarray(sorted_segment_ids)
    if ids.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    return starts, ids[starts]


def segment_sum(array: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``array`` rows via ``np.add.reduceat``.

    ``starts`` are the segment start offsets (first element 0); an empty
    input yields an empty result of matching trailing shape.
    """
    array = np.asarray(array)
    if starts.shape[0] == 0:
        return np.zeros((0,) + array.shape[1:], dtype=np.float64)
    return np.add.reduceat(array, starts, axis=0)


def length_groups(counts: np.ndarray):
    """Yield ``(segments, length)`` for every distinct segment length.

    ``segments`` are the positions (into ``counts``) of all segments of
    that length, in ascending position order; lengths come ascending.
    Equal-length segments are grouped with one argsort instead of one
    scan of ``counts`` per distinct length.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    group_bounds = np.concatenate(
        (
            np.zeros(1, dtype=np.int64),
            np.flatnonzero(np.diff(sorted_counts)) + 1,
            np.asarray([order.size], dtype=np.int64),
        )
    )
    for group in range(group_bounds.size - 1):
        lo, hi = group_bounds[group], group_bounds[group + 1]
        yield order[lo:hi], int(sorted_counts[lo])


def segment_counts(starts: np.ndarray, n_entries: int) -> np.ndarray:
    """Lengths of the back-to-back segments starting at ``starts``."""
    return np.diff(np.append(np.asarray(starts, dtype=np.int64), n_entries))


def equal_length_block(
    deltas: np.ndarray,
    values: np.ndarray,
    segment_starts: np.ndarray,
    length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather segments that all hold ``length`` entries into one stack.

    Returns the ``(n_segments, length, J)`` δ stack and the matching
    ``(n_segments, length)`` values.
    """
    positions = segment_starts[:, None] + np.arange(length)[None, :]
    return deltas[positions], values[positions]


def equal_length_gram(
    block: np.ndarray, block_values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``δᵀδ`` and ``Σ X δ`` of an :func:`equal_length_block` stack.

    The stack is contracted as ``blockᵀ block`` in one batched ``matmul``.
    Each segment's sums are computed on their own, so they do not depend
    on which other segments share the stack.
    """
    gram = np.matmul(block.transpose(0, 2, 1), block)
    return gram, np.matmul(block_values[:, None, :], block)[:, 0, :]


def normal_equations_sorted(
    deltas: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``B`` (Eq. 10) and ``c`` (Eq. 11) over row-sorted entries.

    ``deltas``/``values`` must be ordered so each row's entries are
    contiguous, with segment boundaries at ``starts``.  Returns ``B`` of
    shape ``(n_segments, J, J)`` and ``c`` of shape ``(n_segments, J)``.

    Segments are bucketed by length so all equally-long segments reduce in
    one :func:`equal_length_gram` call.  The ``(m, J, J)`` outer-product
    array of the seed kernel is never materialised, and no scatter-add runs;
    the number of GEMM dispatches is the number of distinct segment lengths.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    rank = deltas.shape[1]
    n_segments = starts.shape[0]
    b_matrices = np.empty((n_segments, rank, rank), dtype=np.float64)
    c_vectors = np.empty((n_segments, rank))
    counts = segment_counts(starts, deltas.shape[0])
    for segments, count in length_groups(counts):
        b_matrices[segments], c_vectors[segments] = equal_length_gram(
            *equal_length_block(deltas, values, starts[segments], count)
        )
    return b_matrices, c_vectors

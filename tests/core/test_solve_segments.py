"""``solve_segments``: the one primitive that turns δ into factor rows.

A complete segment of ``k < J`` entries is solved in its ``k × k`` dual
form, a longer one through its ``J × J`` normal equations; the segments
outside the solve range come back as normal equations.  The answers must
be the ridge minimiser (checked against the paper's brute-force row
update and, at λ = 0, against the minimum-norm least-squares solution),
and a row's bytes must not depend on the rows solved alongside it.
"""

import numpy as np
import pytest

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import brute_force_row_update, build_mode_context
from repro.kernels import (
    make_delta_contractor,
    normal_equations_sorted,
    solve_segments,
)
from repro.kernels.backends import NumpyBackend, ThreadedBackend
from repro.kernels.solve import ZERO_REGULARIZATION_RIDGE, solve_rows
from repro.tensor import SparseTensor

RANKS = (4, 3, 2)


def _rows_of_every_length(max_length, seed=0):
    """A tensor whose mode-0 row ``r`` holds exactly ``r + 1`` entries."""
    rng = np.random.default_rng(seed)
    shape = (max_length, 40, 30)
    indices = []
    for row in range(max_length):
        flat = rng.choice(shape[1] * shape[2], size=row + 1, replace=False)
        for cell in flat:
            indices.append((row, cell // shape[2], cell % shape[2]))
    indices = np.asarray(indices, dtype=np.int64)
    return SparseTensor(indices, rng.normal(size=indices.shape[0]), shape)


def _model(shape, seed=0):
    rng = np.random.default_rng(seed)
    return initialize_factors(shape, RANKS, rng), initialize_core(RANKS, rng)


def _mode_deltas(tensor, factors, core, mode=0):
    """δ, values and segment starts of one whole-mode block."""
    context = build_mode_context(tensor, mode)
    contractor = make_delta_contractor(factors, core, mode, tensor.nnz)
    deltas = contractor(context.sorted_indices)
    return context, deltas, context.sorted_values, context.row_starts


def test_rows_match_brute_force_for_every_length_around_the_rank():
    """k = 1 … J + 1 entries at λ = 0.05: dual rows (k < J) and primal
    rows (k ≥ J) both solve the paper's Eq. 9."""
    rank = RANKS[0]
    tensor = _rows_of_every_length(rank + 1)
    factors, core = _model(tensor.shape)
    context, deltas, values, starts = _mode_deltas(tensor, factors, core)
    assert context.row_counts.tolist() == list(range(1, rank + 2))
    rows, b_out, c_out = solve_segments(
        deltas, values, starts, 0.05, 0, starts.shape[0]
    )
    assert b_out.shape == (0, rank, rank) and c_out.shape == (0, rank)
    for position, row in enumerate(context.row_ids):
        expected = brute_force_row_update(tensor, factors, core, 0, row, 0.05)
        np.testing.assert_allclose(rows[position], expected, rtol=1e-10, atol=1e-12)


def test_zero_regularization_gives_the_minimum_norm_solution():
    """At λ = 0 (ridge 1e-12) a short row is the minimum-norm solution of
    its underdetermined system and a long row its least-squares one.

    The ridge moves a solution by about ``ridge / σ_min²`` relative to
    its norm (σ_min the row's smallest singular value), so each row is
    held to ten times that, or to 1e-9 where that is smaller.
    """
    rank = RANKS[0]
    tensor = _rows_of_every_length(rank + 1, seed=1)
    factors, core = _model(tensor.shape, seed=1)
    context, deltas, values, starts = _mode_deltas(tensor, factors, core)
    rows, _, _ = solve_segments(deltas, values, starts, 0.0, 0, starts.shape[0])
    for position, (start, count) in enumerate(
        zip(context.row_starts, context.row_counts)
    ):
        block = deltas[start : start + count]
        expected = np.linalg.lstsq(block, values[start : start + count], rcond=None)[0]
        sigma_min = np.linalg.svd(block, compute_uv=False).min()
        tolerance = max(10 * ZERO_REGULARIZATION_RIDGE / sigma_min**2, 1e-9)
        error = np.linalg.norm(rows[position] - expected)
        assert error <= tolerance * np.linalg.norm(expected), (count, error)


def test_dual_stays_accurate_where_the_primal_is_ill_conditioned():
    """Short rows with |δ| ≈ 10⁴ at λ = 0.01, as a factor-scale drift
    leaves them: ``DᵀD + λI`` has condition ≈ 10¹¹, so solving the
    ``J × J`` normal equations loses about five digits, while the dual
    matches a stable least-squares solve of ``[D; √λI] a = [x; 0]``.
    """
    regularization, rank = 0.01, 10
    rng = np.random.default_rng(0)
    counts = np.repeat(np.arange(1, rank), 20)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    deltas = rng.normal(size=(int(counts.sum()), rank)) * 1e4
    values = rng.normal(size=int(counts.sum()))
    rows, _, _ = solve_segments(
        deltas, values, starts, regularization, 0, starts.shape[0]
    )
    primal = solve_rows(
        *normal_equations_sorted(deltas, values, starts), regularization
    )
    stable = np.empty_like(rows)
    for position, (start, count) in enumerate(zip(starts, counts)):
        augmented = np.vstack(
            (deltas[start : start + count], np.sqrt(regularization) * np.eye(rank))
        )
        target = np.concatenate((values[start : start + count], np.zeros(rank)))
        stable[position] = np.linalg.lstsq(augmented, target, rcond=None)[0]

    def worst_relative_error(solution):
        errors = np.linalg.norm(solution - stable, axis=1)
        return np.max(errors / np.linalg.norm(stable, axis=1))

    assert worst_relative_error(rows) <= 1e-10
    assert worst_relative_error(primal) >= 1e-8


def test_zero_deltas_give_zero_rows():
    """A row whose δ vanish has K = ridge·I in the dual: its answer is 0."""
    deltas = np.zeros((6, 4))
    values = np.arange(1.0, 7.0)
    starts = np.asarray([0, 1, 3], dtype=np.int64)
    for regularization in (0.0, 0.1):
        rows, _, _ = solve_segments(deltas, values, starts, regularization, 0, 3)
        assert rows.tobytes() == np.zeros((3, 4)).tobytes()


def _mixed_segments(rank, seed):
    """Random δ over 120 segments of random lengths 1 … 2·rank."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 2 * rank + 1, size=120)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    deltas = rng.normal(size=(int(counts.sum()), rank))
    values = rng.normal(size=int(counts.sum()))
    return deltas, values, starts, counts


@pytest.mark.parametrize("regularization", [0.0, 0.05])
@pytest.mark.parametrize("rank", [1, 3, 5, 16])
def test_row_bytes_do_not_depend_on_the_batch(rank, regularization):
    """A row solved alone equals the same row solved inside its length
    bucket, and inside any contiguous sub-block (a thread chunk)."""
    deltas, values, starts, counts = _mixed_segments(rank, seed=rank)
    n_segments = starts.shape[0]
    together, _, _ = solve_segments(
        deltas, values, starts, regularization, 0, n_segments
    )
    for segment in range(n_segments):
        lo, hi = starts[segment], starts[segment] + counts[segment]
        alone, _, _ = solve_segments(
            deltas[lo:hi], values[lo:hi], np.zeros(1, np.int64),
            regularization, 0, 1,
        )
        assert alone.tobytes() == together[segment].tobytes(), segment
    for first, last in [(0, 17), (17, 64), (64, n_segments), (5, 6)]:
        entry_lo = starts[first]
        entry_hi = starts[last] if last < n_segments else deltas.shape[0]
        part, _, _ = solve_segments(
            deltas[entry_lo:entry_hi],
            values[entry_lo:entry_hi],
            starts[first:last] - entry_lo,
            regularization,
            0,
            last - first,
        )
        assert part.tobytes() == together[first:last].tobytes(), (first, last)


@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 119), (0, 120), (1, 120), (40, 40)])
def test_straddling_segments_return_normal_equations_bytes(lo, hi):
    """Segments outside ``[lo, hi)`` come back as ``(B, c)`` byte-equal to
    ``normal_equations_sorted`` over the whole block."""
    deltas, values, starts, _ = _mixed_segments(5, seed=11)
    b_all, c_all = normal_equations_sorted(deltas, values, starts)
    rows, b_out, c_out = solve_segments(deltas, values, starts, 0.1, lo, hi)
    outside = np.r_[0:lo, hi:starts.shape[0]]
    assert rows.shape == (hi - lo, 5)
    assert b_out.tobytes() == b_all[outside].tobytes()
    assert c_out.tobytes() == c_all[outside].tobytes()


@pytest.mark.parametrize("regularization", [0.0, 0.05])
def test_threaded_chunks_match_the_serial_row_solver(regularization):
    """The threaded row solver's chunks land the serial solver's bytes,
    for the solved rows and for the straddling ``(B, c)`` alike."""
    rank = RANKS[0]
    rng = np.random.default_rng(5)
    shape = (300, 40, 30)
    indices = np.stack([rng.integers(0, d, 700) for d in shape], axis=1)
    tensor = SparseTensor(indices, rng.normal(size=700), shape).deduplicate()
    factors, core = _model(shape, seed=5)
    context = build_mode_context(tensor, 0)
    counts = context.row_counts
    assert (counts < rank).any() and (counts >= rank).any()
    args = (context.sorted_indices, context.sorted_values, context.row_starts)
    n_segments = counts.shape[0]
    serial = NumpyBackend().make_row_solver(
        factors, core, 0, regularization, tensor.nnz
    )(*args, 1, n_segments - 1)
    threaded = ThreadedBackend(n_workers=3, min_chunk_entries=4).make_row_solver(
        factors, core, 0, regularization, tensor.nnz
    )(*args, 1, n_segments - 1)
    for ours, theirs in zip(threaded, serial):
        assert ours.tobytes() == theirs.tobytes()

"""The ``threaded`` backend's chunking: segment-aligned chunks on a pool.

Row independence (Section III-B) lets a mode-sorted block be cut at
segment boundaries and its chunks solved concurrently.  These tests pin
the one chunking policy the backend has: every segment lands in exactly
one chunk and is never split, chunks hold roughly equal entry counts, the
solve window ``[lo, hi)`` is shared out exactly, and the chunked rows are
bitwise equal to the serial ones at any worker count.
"""

import numpy as np
import pytest

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import build_mode_context
from repro.kernels.backends import NumpyBackend, ThreadedBackend
from repro.kernels.backends import threaded
from repro.kernels.backends.threaded import (
    CHUNKS_PER_WORKER,
    chunk_boundaries,
    chunk_spans,
    concatenate_chunk_results,
    env_workers,
    shared_pool,
)
from repro.tensor import SparseTensor

RANKS = (4, 3, 2)


def _segments(lengths):
    """Segment starts and entry count of a block with these segment lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    return starts, int(lengths.sum())


def _random_segmentations(count=5):
    """Skewed (geometric) segment lengths, as rows of a real tensor have."""
    rng = np.random.default_rng(7)
    return [
        _segments(rng.geometric(0.05, size=rng.integers(1, 200)))
        for _ in range(count)
    ]


class TestChunkBoundaries:
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 16, 64])
    def test_edges_cover_every_segment_in_order(self, n_chunks):
        for starts, n_entries in _random_segmentations():
            edges = chunk_boundaries(starts, n_entries, n_chunks)
            assert edges[0] == 0 and edges[-1] == starts.shape[0]
            assert (np.diff(edges) > 0).all()
            assert edges.shape[0] - 1 <= min(n_chunks, starts.shape[0])

    @pytest.mark.parametrize("n_chunks", [2, 3, 7, 16])
    def test_chunks_hold_at_most_their_share_plus_one_segment(self, n_chunks):
        for starts, n_entries in _random_segmentations():
            longest = int(np.diff(np.append(starts, n_entries)).max())
            edges = chunk_boundaries(starts, n_entries, n_chunks)
            ends = np.append(starts, n_entries)[edges]
            assert (np.diff(ends) <= n_entries // n_chunks + 1 + longest).all()

    @pytest.mark.parametrize("n_chunks", [2, 4, 5])
    def test_uniform_segments_split_into_equal_chunks(self, n_chunks):
        starts, n_entries = _segments([3] * 40)
        edges = chunk_boundaries(starts, n_entries, n_chunks)
        np.testing.assert_array_equal(edges, np.arange(n_chunks + 1) * (40 // n_chunks))

    def test_one_chunk_or_one_segment_is_the_whole_block(self):
        starts, n_entries = _segments([5, 1, 9])
        np.testing.assert_array_equal(chunk_boundaries(starts, n_entries, 1), [0, 3])
        lone, lone_entries = _segments([500])
        np.testing.assert_array_equal(chunk_boundaries(lone, lone_entries, 8), [0, 1])

    def test_a_giant_segment_is_never_split(self):
        """Edges that fall inside one long segment collapse onto its end."""
        starts, n_entries = _segments([1, 1, 1000, 1, 1])
        edges = chunk_boundaries(starts, n_entries, 4)
        np.testing.assert_array_equal(edges, [0, 3, 5])


class TestChunkSpans:
    LENGTHS = [4, 1, 7, 2, 2, 9, 1, 3, 5, 6, 1, 2, 8]

    def _spans(self, lo, hi, n_chunks=4):
        starts, n_entries = _segments(self.LENGTHS)
        edges = chunk_boundaries(starts, n_entries, n_chunks)
        return starts, n_entries, edges, chunk_spans(starts, n_entries, edges, lo, hi)

    def test_spans_tile_the_block_entries(self):
        _, n_entries, edges, spans = self._spans(0, len(self.LENGTHS))
        assert len(spans) == edges.shape[0] - 1 >= 2
        assert spans[0].entry_lo == 0 and spans[-1].entry_hi == n_entries
        for left, right in zip(spans, spans[1:]):
            assert left.entry_hi == right.entry_lo

    def test_local_starts_are_the_global_ones_shifted(self):
        starts, _, edges, spans = self._spans(0, len(self.LENGTHS))
        for span, seg_lo, seg_hi in zip(spans, edges[:-1], edges[1:]):
            assert span.starts[0] == 0
            np.testing.assert_array_equal(
                span.starts + span.entry_lo, starts[seg_lo:seg_hi]
            )

    @pytest.mark.parametrize(
        "lo, hi", [(0, 13), (0, 0), (13, 13), (3, 11), (1, 12), (7, 8)]
    )
    def test_solve_window_is_shared_out_exactly(self, lo, hi):
        _, _, edges, spans = self._spans(lo, hi)
        solved = []
        for span, seg_lo in zip(spans, edges[:-1]):
            assert 0 <= span.lo <= span.hi <= span.starts.shape[0]
            solved.extend(range(seg_lo + span.lo, seg_lo + span.hi))
        assert solved == list(range(lo, hi))


def test_chunk_results_join_in_chunk_order():
    parts = [
        (np.full((2, 3), k, float), np.full((1, 3, 3), k, float), np.full((1, 3), k, float))
        for k in range(3)
    ]
    rows, b, c = concatenate_chunk_results(parts)
    np.testing.assert_array_equal(rows[:, 0], [0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(b[:, 0, 0], [0, 1, 2])
    np.testing.assert_array_equal(c[:, 0], [0, 1, 2])


@pytest.mark.parametrize(
    "workers, min_chunk, n_entries, n_segments, expected",
    [
        (1, 100, 10**6, 10**4, 1),  # one worker: the serial path
        (2, 100, 10**6, 10**4, 2 * CHUNKS_PER_WORKER),  # capped per worker
        (2, 100, 350, 10**4, 3),  # capped by the minimum chunk size
        (2, 100, 10**6, 5, 5),  # never more chunks than segments
        (4, 100, 50, 10, 1),  # a block below one chunk is still solved
    ],
)
def test_chunk_count(workers, min_chunk, n_entries, n_segments, expected):
    backend = ThreadedBackend(n_workers=workers, min_chunk_entries=min_chunk)
    assert backend._n_chunks(n_entries, n_segments) == expected


class TestWorkerCount:
    VARIABLE = "REPRO_TEST_CHUNK_WORKERS"

    @pytest.fixture(autouse=True)
    def six_cores(self, monkeypatch):
        monkeypatch.setattr(threaded.os, "cpu_count", lambda: 6)

    @pytest.mark.parametrize(
        "value, expected",
        [("3", 3), (" 4 ", 4), ("0", 1), ("-2", 1), ("many", 6), ("", 6)],
    )
    def test_env_workers(self, monkeypatch, value, expected):
        monkeypatch.setenv(self.VARIABLE, value)
        assert env_workers(self.VARIABLE) == expected

    @pytest.mark.parametrize("cores, expected", [(6, 6), (None, 1)])
    def test_unset_variable_falls_back_to_cpu_count(self, monkeypatch, cores, expected):
        monkeypatch.delenv(self.VARIABLE, raising=False)
        monkeypatch.setattr(threaded.os, "cpu_count", lambda: cores)
        assert env_workers(self.VARIABLE) == expected

    def test_n_workers_follows_the_variable_after_construction(self, monkeypatch):
        backend = ThreadedBackend()
        monkeypatch.setenv(threaded.THREADS_VARIABLE, "2")
        assert backend.n_workers == 2
        monkeypatch.setenv(threaded.THREADS_VARIABLE, "5")
        assert backend.n_workers == 5

    def test_explicit_worker_count_wins_and_is_at_least_one(self, monkeypatch):
        monkeypatch.setenv(threaded.THREADS_VARIABLE, "5")
        assert ThreadedBackend(n_workers=3).n_workers == 3
        assert ThreadedBackend(n_workers=0).n_workers == 1

    def test_shared_pool_grows_but_never_shrinks(self):
        pool = shared_pool(1)
        size = threaded._POOL_WORKERS
        assert shared_pool(1) is pool and shared_pool(size) is pool
        grown = shared_pool(size + 1)
        assert grown is not pool and threaded._POOL_WORKERS == size + 1
        assert shared_pool(size) is grown


class TestThreadedRowSolver:
    @pytest.fixture(scope="class")
    def block(self):
        """Mode-0 block of a ragged tensor: rows shorter and longer than J."""
        rng = np.random.default_rng(3)
        shape = (120, 40, 30)
        indices = np.stack([rng.integers(0, d, 900) for d in shape], axis=1)
        tensor = SparseTensor(indices, rng.normal(size=900), shape).deduplicate()
        factors = initialize_factors(shape, RANKS, rng)
        core = initialize_core(RANKS, rng)
        context = build_mode_context(tensor, 0)
        args = (context.sorted_indices, context.sorted_values, context.row_starts)
        return factors, core, tensor.nnz, args

    def _solve(self, backend, block, lo, hi):
        factors, core, nnz, args = block
        return backend.make_row_solver(factors, core, 0, 0.05, nnz)(*args, lo, hi)

    @pytest.fixture
    def chunk_counts(self, monkeypatch):
        counts = []
        boundaries = threaded.chunk_boundaries

        def spy(starts, n_entries, n_chunks):
            edges = boundaries(starts, n_entries, n_chunks)
            counts.append(edges.shape[0] - 1)
            return edges

        monkeypatch.setattr(threaded, "chunk_boundaries", spy)
        return counts

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("window", ["all", "inner", "empty"])
    def test_chunked_rows_are_bitwise_serial(self, block, chunk_counts, workers, window):
        n_segments = block[3][2].shape[0]
        lo, hi = {"all": (0, n_segments), "inner": (1, n_segments - 1), "empty": (5, 5)}[window]
        serial = self._solve(NumpyBackend(), block, lo, hi)
        chunked = self._solve(
            ThreadedBackend(n_workers=workers, min_chunk_entries=16), block, lo, hi
        )
        assert chunk_counts and chunk_counts[0] >= 2, "the block must really chunk"
        for ours, theirs in zip(chunked, serial):
            assert ours.tobytes() == theirs.tobytes()

    def test_one_worker_takes_the_serial_path(self, block, chunk_counts):
        n_segments = block[3][2].shape[0]
        serial = self._solve(NumpyBackend(), block, 0, n_segments)
        single = self._solve(
            ThreadedBackend(n_workers=1, min_chunk_entries=16), block, 0, n_segments
        )
        assert chunk_counts == []
        for ours, theirs in zip(single, serial):
            assert ours.tobytes() == theirs.tobytes()

    def test_a_failing_chunk_raises_in_the_caller(self, block, monkeypatch):
        def fail(*args):
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(threaded, "solve_segments", fail)
        backend = ThreadedBackend(n_workers=2, min_chunk_entries=16)
        with pytest.raises(RuntimeError, match="chunk failed"):
            self._solve(backend, block, 0, block[3][2].shape[0])

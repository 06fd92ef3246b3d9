"""Canonical top-K selection, the deterministic scorer and the float32 screen.

Every ``topk_scores`` answer is compared bitwise against the float64
brute force: ``score_block`` over the whole factor plus ``canonical_topk``.
"""

import numpy as np
import pytest

from repro.serve import topk as topk_module
from repro.serve.topk import (
    ItemProjection,
    TopKResult,
    canonical_topk,
    score_block,
    score_pairs,
    screen_exponent,
    topk_scores,
)


def brute_topk(scores, k, exclude=None):
    """Reference selection straight from the canonical definition."""
    scores = np.asarray(scores, dtype=np.float64)
    items = np.arange(scores.shape[0])
    if exclude is not None and len(exclude):
        keep = np.ones(scores.shape[0], dtype=bool)
        keep[np.asarray(exclude)] = False
        items = items[keep]
    order = sorted(items, key=lambda i: (-scores[i], i))[: min(k, len(items))]
    chosen = np.asarray(order, dtype=np.int64)
    return TopKResult(items=chosen, scores=scores[chosen])


def assert_same(a: TopKResult, b: TopKResult, bitwise):
    bitwise(a.items, b.items, "top-K items")
    bitwise(a.scores, b.scores, "top-K scores")


class TestCanonicalTopk:
    def test_matches_brute_force_on_random_vectors(self, bitwise):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            scores = rng.standard_normal(n)
            k = int(rng.integers(0, n + 3))
            assert_same(canonical_topk(scores, k), brute_topk(scores, k),
                        bitwise)

    def test_ties_at_the_k_boundary_pick_smallest_items(self):
        scores = np.array([1.0, 5.0, 3.0, 3.0, 3.0, 0.0])
        result = canonical_topk(scores, 3)
        # 5.0 first, then the tied 3.0s by ascending index.
        assert list(result.items) == [1, 2, 3]

    def test_all_tied(self):
        result = canonical_topk(np.zeros(10), 4)
        assert list(result.items) == [0, 1, 2, 3]

    def test_k_at_least_dimension_returns_everything(self):
        scores = np.array([2.0, -1.0, 3.0])
        for k in (3, 4, 100):
            result = canonical_topk(scores, k)
            assert list(result.items) == [2, 0, 1]

    def test_k_zero_is_empty(self):
        result = canonical_topk(np.ones(5), 0)
        assert result.items.shape == (0,)
        assert result.scores.shape == (0,)

    def test_exclusion(self, bitwise):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(50)
        exclude = np.array([int(np.argmax(scores)), 7, 7, 12])
        result = canonical_topk(scores, 5, exclude)
        assert_same(result, brute_topk(scores, 5, exclude), bitwise)
        assert not set(exclude) & set(result.items)

    def test_excluding_everything_is_empty(self):
        scores = np.arange(4.0)
        result = canonical_topk(scores, 2, np.arange(4))
        assert result.items.shape == (0,)


def brute_force(q, factor, k, exclude=None):
    """float64 reference answers: score every item, select canonically."""
    return [
        canonical_topk(
            score_block(q[row : row + 1], factor.T)[0],
            k,
            None if exclude is None else exclude[row],
        )
        for row in range(q.shape[0])
    ]


def assert_all_same(results, expected, bitwise):
    assert len(results) == len(expected)
    for a, b in zip(results, expected):
        assert_same(a, b, bitwise)


class TestScoreBlock:
    def test_matches_gemm_values(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((5, 7))
        projection = rng.standard_normal((7, 33))
        np.testing.assert_allclose(
            score_block(q, projection), q @ projection, rtol=1e-12
        )

    def test_batch_shape_invariant_bitwise(self, bitwise):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((64, 16))
        projection = rng.standard_normal((16, 501))
        full = score_block(q, projection)
        one = score_block(q[17:18], projection)
        bitwise(full[17], one[0], "row 17 vs single-row batch")

    def test_score_pairs_bitwise_equal_to_score_block_gather(self, bitwise):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((9, 11))
        factor = rng.standard_normal((200, 11))
        row_map = rng.integers(9, size=57)
        col_map = rng.integers(200, size=57)
        gathered = score_block(q, factor.T)[row_map, col_map]
        bitwise(
            score_pairs(q, factor, row_map, col_map),
            gathered,
            "score_pairs vs gathered block",
        )

    def test_column_blocking_invariant_bitwise(self, bitwise):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 8))
        projection = rng.standard_normal((8, 100))
        full = score_block(q, projection)
        split = np.concatenate(
            [score_block(q, projection[:, s]) for s in
             (slice(0, 37), slice(37, 64), slice(64, 100))],
            axis=1,
        )
        bitwise(full, split, "column-blocked scores")


class TestTopkScores:
    @pytest.mark.parametrize("items_total", [1, 5, 100, 2048, 2049, 5000])
    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_matches_canonical_full_scan(self, items_total, k, bitwise):
        rng = np.random.default_rng(items_total * 31 + k)
        q = rng.standard_normal((4, 6))
        factor = rng.standard_normal((items_total, 6))
        results = topk_scores(q, ItemProjection.build(factor), k)
        assert_all_same(results, brute_force(q, factor, k), bitwise)

    def test_pruning_survives_adversarial_ties(self):
        # Constant scores: every chunk maximum equals every score, so the
        # pruning bound keeps all chunks and ties resolve canonically.
        q = np.ones((2, 3))
        projection = ItemProjection.build(np.ones((5000, 3)))
        for k in (1, 10, 2048, 4999, 5000):
            results = topk_scores(q, projection, k)
            for result in results:
                assert list(result.items) == list(range(min(k, 5000)))

    def test_batched_equals_unbatched_bitwise(self, bitwise):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((50, 12))
        projection = ItemProjection.build(rng.standard_normal((7001, 12)))
        batch = topk_scores(q, projection, 9)
        for row in range(50):
            single = topk_scores(q[row : row + 1], projection, 9)[0]
            assert_same(batch[row], single, bitwise)

    def test_row_and_col_block_geometry_does_not_change_results(self, bitwise):
        rng = np.random.default_rng(10)
        q = rng.standard_normal((7, 5))
        projection = ItemProjection.build(rng.standard_normal((3000, 5)))
        reference = topk_scores(q, projection, 12)
        for col_block, row_block in [(128, 2), (999, 3), (3000, 7), (4096, 1)]:
            results = topk_scores(
                q, projection, 12, col_block=col_block, row_block=row_block
            )
            for a, b in zip(results, reference):
                assert_same(a, b, bitwise)

    def test_per_query_exclusion(self, bitwise):
        rng = np.random.default_rng(11)
        q = rng.standard_normal((3, 4))
        factor = rng.standard_normal((600, 4))
        exclude = [np.array([0, 5, 599]), None, np.arange(300)]
        results = topk_scores(q, ItemProjection.build(factor), 8, exclude)
        assert_all_same(results, brute_force(q, factor, 8, exclude), bitwise)


def near_tie_factor(items=5000, rank=4, stride=97, seed=0):
    """Items whose exact scores under ``q = 1`` differ below float32 resolution.

    Every ``stride``-th item is a random row whose first entry is chosen
    so it scores ``1 + 1e-12 · (position // 2)`` in float64: 52 near-tied
    items spread over every screening chunk, in exactly tied (identical)
    pairs.  Their float32 screen scores scatter over several float32
    ulps, so the screen ranks them in an order unrelated to the exact
    one.  All other items score at most 0.8.
    """
    rng = np.random.default_rng(seed)
    factor = np.zeros((items, rank))
    factor[:, 0] = rng.uniform(-1.0, 0.5, items)
    factor[:, 1:] = rng.uniform(-0.1, 0.1, (items, rank - 1))
    group = np.arange(0, items, stride)
    pairs = rng.uniform(-2.0, 2.0, ((group.shape[0] + 1) // 2, rank))
    rows = np.repeat(pairs, 2, axis=0)[: group.shape[0]]
    target = 1.0 + 1e-12 * (np.arange(group.shape[0]) // 2)
    rows[:, 0] = target - rows[:, 1:].sum(axis=1)
    factor[group] = rows
    return factor, group


def float32_screen_scores(q, projection):
    """The screen exactly as ``topk_scores`` computes it (scaled units)."""
    exponents = -np.frexp(np.abs(q).max(axis=1))[1]
    return np.ldexp(q, exponents[:, None]).astype(np.float32) @ projection.screen


@pytest.fixture()
def full_scans(monkeypatch):
    """Count the rows that fall back to the deterministic full scan."""
    calls = []
    original = topk_module._exact_row

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(topk_module, "_exact_row", spy)
    return calls


class TestFloat32Screen:
    @pytest.mark.parametrize("k", [10, 11, 25])
    def test_near_ties_below_float32_resolution(self, k, bitwise, full_scans):
        factor, group = near_tie_factor()
        projection = ItemProjection.build(factor)
        q = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]])
        screen = float32_screen_scores(q, projection)
        expected = brute_force(q, factor, k)
        for row in range(2):
            top = expected[row].items
            assert set(top) <= set(group)
            # The screen alone would lose an exact top-K member: it
            # screens strictly below the screen's own k-th largest score.
            kth = np.sort(screen[row])[-k]
            assert screen[row, top].min() < kth
        assert np.unique(expected[0].scores).shape[0] < k  # exact ties
        assert_all_same(topk_scores(q, projection, k), expected, bitwise)
        assert not full_scans

    @pytest.mark.parametrize(
        "q_scale,factor_scale",
        [
            (1e-200, 1e200),
            (1e200, 1e-200),
            (1e200, 1.0),
            (1e-200, 1.0),
            (1.0, 1e200),
            (1.0, 1e-200),
            (1e-150, 1e-150),
        ],
    )
    def test_extreme_scales_are_scaled_by_powers_of_two(
        self, q_scale, factor_scale, bitwise, full_scans
    ):
        rng = np.random.default_rng(21)
        factor = rng.standard_normal((6000, 16)) * factor_scale
        q = rng.standard_normal((6, 16)) * q_scale
        projection = ItemProjection.build(factor)
        assert (projection.exponent != 0) == (factor_scale != 1.0)
        assert np.isfinite(projection.screen).all()
        if projection.exponent:
            scaled = np.abs(projection.screen).astype(np.float64).sum(axis=0)
            assert 0.5 <= scaled.max() < 1.0 + 1e-6
        results = topk_scores(q, projection, 10)
        assert_all_same(results, brute_force(q, factor, 10), bitwise)
        # The screen, not the fallback scan, produced every answer.
        assert not full_scans

    def test_float64_underflow_falls_back_to_the_full_scan(
        self, bitwise, full_scans
    ):
        """Scores near 1e-400 underflow to zero in float64: every item
        ties, and the absolute margin term sends the rows to the scan."""
        rng = np.random.default_rng(22)
        factor = rng.standard_normal((3000, 8)) * 1e-200
        q = rng.standard_normal((3, 8)) * 1e-200
        results = topk_scores(q, ItemProjection.build(factor), 7)
        assert_all_same(results, brute_force(q, factor, 7), bitwise)
        assert len(full_scans) == 3

    def test_exclusion_goes_through_the_screen(self, bitwise, full_scans):
        rng = np.random.default_rng(23)
        factor = rng.standard_normal((9000, 12))
        q = rng.standard_normal((8, 12))
        exact = score_block(q, factor.T)
        exclude = []
        for row in range(8):
            best = np.argsort(-exact[row], kind="stable")
            # The row's own best items, a duplicate, and random others.
            exclude.append(
                np.concatenate(
                    [best[: 3 * row], best[:1], rng.integers(0, 9000, 50)]
                )
            )
        exclude[5] = None
        exclude[6] = np.zeros(0, dtype=np.int64)
        projection = ItemProjection.build(factor)
        results = topk_scores(q, projection, 10, exclude)
        assert_all_same(results, brute_force(q, factor, 10, exclude), bitwise)
        assert not full_scans
        for result, row_exclude in zip(results, exclude):
            if row_exclude is not None:
                assert not set(result.items) & set(row_exclude)

    def test_exclusion_leaving_fewer_than_k_items(self, bitwise):
        rng = np.random.default_rng(24)
        factor = rng.standard_normal((5000, 6))
        q = rng.standard_normal((2, 6))
        exclude = [np.arange(4996), np.arange(1, 5000)]
        results = topk_scores(q, ItemProjection.build(factor), 10, exclude)
        assert_all_same(results, brute_force(q, factor, 10, exclude), bitwise)
        assert [len(r.items) for r in results] == [4, 1]

    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_hot_swapped_screen_is_byte_equal_to_a_fresh_build(
        self, scale, bitwise
    ):
        rng = np.random.default_rng(25)
        factor = rng.standard_normal((4000, 19)) * scale
        projection = ItemProjection.build(factor)
        exponents = {projection.exponent}
        for swap in range(3):
            rows = np.sort(rng.choice(4000, size=60, replace=False))
            # The last swap grows the margin past a power of two, which
            # moves a scaled screen's exponent.
            new_rows = rng.standard_normal((60, 19)) * scale * 10.0 ** swap
            updated = projection.factor.copy()
            updated[rows] = new_rows
            projection = projection.with_rows(rows, new_rows, updated)
            fresh = ItemProjection.build(updated)
            bitwise(projection.screen, fresh.screen, f"screen after swap {swap}")
            bitwise(projection.sums, fresh.sums, f"sums after swap {swap}")
            assert projection.margin == fresh.margin
            assert projection.exponent == fresh.exponent
            exponents.add(projection.exponent)
        assert screen_exponent(projection.margin) == projection.exponent
        # Unscaled factors keep exponent 0; the scaled one's moves.
        assert (len(exponents) > 1) == (scale != 1.0)

"""ServingModel: brute-force equivalence, batch invariance, caches, exclusion."""

import numpy as np
import pytest

from repro.exceptions import DataFormatError, ShapeError
from repro.serve import ServingModel
from repro.serve.topk import ItemProjection, canonical_topk, score_block


def make_model(shape, ranks, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((i, j)) for i, j in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    return ServingModel(factors, core, algorithm="ptucker", **kwargs), factors, core


def dense_mode_scores(factors, core, context, mode):
    """Brute force: reconstruct the whole fibre along ``mode`` densely."""
    q = core
    axis_modes = list(range(core.ndim))
    for k in range(core.ndim):
        if k == mode:
            continue
        pos = axis_modes.index(k)
        q = np.tensordot(q, np.asarray(factors[k][context[k]]), axes=([pos], [0]))
        axis_modes.pop(pos)
    # q now has mode's rank axis only.
    return np.asarray(factors[mode]) @ q.reshape(-1)


class TestTopkAgainstDenseReconstruction:
    @pytest.mark.parametrize(
        "shape,ranks",
        [
            ((9, 40, 6), (2, 3, 2)),  # order 3
            ((7, 55, 5, 4), (2, 4, 2, 2)),  # order 4, ragged ranks
            ((5, 30, 4, 3, 3), (1, 3, 2, 2, 1)),  # order 5
        ],
    )
    def test_topk_equals_dense_brute_force(self, shape, ranks):
        model, factors, core = make_model(shape, ranks, seed=len(shape))
        rng = np.random.default_rng(99)
        mode = 1
        for trial in range(8):
            context = tuple(int(rng.integers(d)) for d in shape)
            k = int(rng.integers(1, shape[mode] + 2))
            result = model.topk(context, mode, k)
            dense = dense_mode_scores(factors, core, context, mode)
            expected = canonical_topk(dense, k)
            np.testing.assert_array_equal(result.items, expected.items)
            np.testing.assert_allclose(
                result.scores, dense[result.items], rtol=1e-10
            )

    def test_every_mode_can_be_the_item_mode(self):
        model, factors, core = make_model((8, 12, 10), (2, 3, 4), seed=5)
        context = (3, 7, 9)
        for mode in range(3):
            result = model.topk(context, mode, 4)
            dense = dense_mode_scores(factors, core, context, mode)
            expected = canonical_topk(dense, 4)
            np.testing.assert_array_equal(result.items, expected.items)


class TestBatchInvariance:
    def test_batched_unbatched_single_identical_bitwise(self, bitwise):
        model, _, _ = make_model((20, 3000, 9), (3, 5, 2), seed=2)
        rng = np.random.default_rng(3)
        contexts = [
            tuple(int(rng.integers(d)) for d in (20, 3000, 9)) for _ in range(40)
        ]
        batch = model.topk_batch(contexts, 1, 7)
        # Fresh model: no cache interaction between the two paths.
        model2, _, _ = make_model((20, 3000, 9), (3, 5, 2), seed=2)
        singles = [model2.topk(c, 1, 7) for c in contexts]
        for n, (b, s) in enumerate(zip(batch, singles)):
            bitwise(b.items, s.items, f"items for context {contexts[n]}")
            bitwise(b.scores, s.scores, f"scores for context {contexts[n]}")

    @pytest.mark.parametrize("mode,k", [(1, 3), (1, 9), (0, 4), (2, 5)])
    def test_batched_equals_single_in_every_item_mode(self, mode, k, bitwise):
        """Every mode can be the item mode of a batch; k=9 spans the whole
        mode-1 axis, so ties down to the last item are included."""
        contexts = [[2, 4], [0, 0], [5, 3], [1, 2], [3, 1]]
        model, _, _ = make_model((6, 9, 5), (2, 3, 2), seed=24)
        batch = model.topk_batch(contexts, mode, k)
        fresh, _, _ = make_model((6, 9, 5), (2, 3, 2), seed=24)
        for context, ours in zip(contexts, batch):
            single = fresh.topk(context, mode, k)
            bitwise(ours.items, single.items, f"items for {context}")
            bitwise(ours.scores, single.scores, f"scores for {context}")

    def test_cache_hits_do_not_change_answers(self, bitwise):
        model, _, _ = make_model((10, 500, 4), (2, 3, 2), seed=4)
        context = (7, 0, 2)
        first = model.topk(context, 1, 5)
        again = model.topk(context, 1, 5)  # q comes from the cache now
        bitwise(first.items, again.items, "cached items")
        bitwise(first.scores, again.scores, "cached scores")
        assert model.counters.get("query_cache.hit") >= 1

    def test_predict_batch_invariant_bitwise(self, bitwise):
        model, _, _ = make_model((15, 80, 7), (3, 4, 2), seed=6)
        rng = np.random.default_rng(7)
        block = np.column_stack(
            [rng.integers(d, size=64) for d in (15, 80, 7)]
        )
        batched = model.predict(block)
        singles = np.array([model.predict(row)[0] for row in block])
        bitwise(batched, singles, "batched vs per-row predictions")


class TestEdgeCases:
    def test_k_larger_than_mode_dimension(self):
        model, factors, core = make_model((6, 9, 5), (2, 2, 2), seed=8)
        result = model.topk((2, 0, 1), 1, 50)
        assert len(result.items) == 9

    def test_k_zero(self):
        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=8)
        result = model.topk((2, 0, 1), 1, 0)
        assert result.items.shape == (0,)

    def test_empty_user_row_scores_zero_everywhere(self):
        model, factors, core = make_model((6, 9, 5), (2, 2, 2), seed=9)
        factors[0][3] = 0.0  # an all-zero (cold / empty) user row
        model = ServingModel(factors, core)
        result = model.topk((3, 0, 2), 1, 9)
        np.testing.assert_array_equal(result.scores, np.zeros(9))
        # Ties broken canonically: ascending item order.
        np.testing.assert_array_equal(result.items, np.arange(9))

    def test_short_context_form(self, bitwise):
        model, factors, core = make_model((6, 9, 5), (2, 2, 2), seed=10)
        full = model.topk((4, 0, 3), 1, 4)
        short = model.topk((4, 3), 1, 4)  # item-mode position omitted
        bitwise(full.items, short.items, "short-context items")
        bitwise(full.scores, short.scores, "short-context scores")

    def test_bad_context_raises_shape_error(self):
        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=11)
        with pytest.raises(ShapeError):
            model.topk((4,), 1, 3)
        with pytest.raises(ShapeError):
            model.topk((6, 0, 0), 1, 3)  # mode-0 index out of range
        with pytest.raises(ShapeError):
            model.topk((0, 0, 0), 7, 3)
        with pytest.raises(ShapeError):
            model.predict((0, 0))

    def test_empty_batch(self):
        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=12)
        assert model.topk_batch([], 1, 3) == []

    def test_inconsistent_model_rejected(self):
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((5, 3))]
        with pytest.raises(DataFormatError):
            ServingModel(factors, np.zeros((2, 2)))


class TestExcludeObserved:
    def test_requires_a_store(self):
        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=13)
        with pytest.raises(DataFormatError):
            model.topk((0, 0, 0), 1, 3, exclude_observed=True)

    def test_observed_items_are_masked(self, tmp_path):
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        model, factors, core = make_model((6, 9, 5), (2, 2, 2), seed=14)
        indices = np.array(
            [[2, 1, 3], [2, 4, 3], [2, 7, 3], [2, 4, 0], [5, 4, 3]]
        )
        tensor = SparseTensor(
            indices=indices, values=np.ones(5), shape=(6, 9, 5)
        )
        store = ShardStore.build(tensor, str(tmp_path / "shards"))
        model.attach_store(store)
        result = model.topk((2, 0, 3), 1, 9, exclude_observed=True)
        # Only the entries matching the full context (2, *, 3) are excluded.
        assert set(result.items) == set(range(9)) - {1, 4, 7}
        # And the kept scores agree with the unmasked ranking.
        unmasked = model.topk((2, 0, 3), 1, 9)
        kept = {int(i): float(s) for i, s in zip(unmasked.items, unmasked.scores)}
        for item, score in zip(result.items, result.scores):
            assert kept[int(item)] == score

    def test_context_with_no_observations_excludes_nothing(
        self, tmp_path, bitwise
    ):
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=15)
        tensor = SparseTensor(
            indices=np.array([[0, 0, 0]]), values=np.ones(1), shape=(6, 9, 5)
        )
        model.attach_store(ShardStore.build(tensor, str(tmp_path / "shards")))
        plain = model.topk((3, 0, 2), 1, 4)
        masked = model.topk((3, 0, 2), 1, 4, exclude_observed=True)
        bitwise(plain.items, masked.items, "masked items with no observations")

    def test_store_shape_mismatch_rejected(self, tmp_path):
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        model, _, _ = make_model((6, 9, 5), (2, 2, 2), seed=16)
        tensor = SparseTensor(
            indices=np.array([[0, 0]]), values=np.ones(1), shape=(3, 3)
        )
        store = ShardStore.build(tensor, str(tmp_path / "shards"))
        with pytest.raises(ShapeError):
            model.attach_store(store)


class TestItemProjection:
    def test_one_float32_screen_beside_the_float64_factor(self, bitwise):
        model, factors, _ = make_model((8, 3000, 5), (2, 6, 3), seed=18)
        projection = model.item_projection(1)
        assert projection.screen.dtype == np.float32
        assert projection.screen.shape == (6, 3000)
        assert projection.screen.flags.c_contiguous
        assert projection.factor is model.factors[1]
        assert projection.exponent == 0
        bitwise(projection.screen, factors[1].T.astype(np.float32), "screen")
        assert model.item_projection(1) is projection
        assert model.counters.get("model.projection_builds") == 1

    def test_exclude_observed_goes_through_the_screen(self, tmp_path, bitwise):
        """Exclusion on a long item axis matches the float64 brute force."""
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        shape = (5, 4000, 3)
        model, factors, _ = make_model(shape, (2, 4, 2), seed=19)
        rng = np.random.default_rng(20)
        contexts = [(u, 0, c) for u in range(5) for c in range(3)]
        q = model.project(contexts, 1)
        exact = score_block(q, factors[1].T)
        # Each context has observed its own 40 best items and 60 others.
        entries = []
        for row, (u, _, c) in enumerate(contexts):
            seen = np.concatenate(
                [np.argsort(-exact[row])[:40], rng.integers(0, 4000, 60)]
            )
            entries.extend((u, int(i), c) for i in np.unique(seen))
        indices = np.array(entries)
        tensor = SparseTensor(
            indices=indices, values=np.ones(len(indices)), shape=shape
        )
        model.attach_store(ShardStore.build(tensor, str(tmp_path / "shards")))
        results = model.topk_batch(contexts, 1, 10, exclude_observed=True)
        for row, (u, _, c) in enumerate(contexts):
            mine = indices[(indices[:, 0] == u) & (indices[:, 2] == c), 1]
            expected = canonical_topk(exact[row], 10, mine)
            bitwise(results[row].items, expected.items, f"items {contexts[row]}")
            bitwise(results[row].scores, expected.scores, f"scores {contexts[row]}")

    @pytest.mark.parametrize("exclude_observed", [False, True])
    @pytest.mark.parametrize("k", [3, 6, 7])
    def test_near_ties_match_the_float64_brute_force(
        self, tmp_path, k, exclude_observed, bitwise
    ):
        """Rows tied to 1e-12 (below float32 resolution) and an exactly
        tied pair, spread over a 6000-item axis, rank exactly as in the
        float64 full scan, with and without the store's exclusions."""
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        shape, ranks = (3, 6000, 2), (1, 4, 1)
        rng = np.random.default_rng(31)
        items = rng.uniform(-0.2, 0.2, (6000, 4))
        near = np.array([2990, 2995, 3000, 3004, 3010, 4000, 10, 5990])
        rows = rng.uniform(-2.0, 2.0, (near.shape[0], 4))
        target = 1.0 + 1e-12 * np.arange(near.shape[0])
        rows[:, 0] = target - rows[:, 1:].sum(axis=1)
        rows[-1] = rows[-2]
        items[near] = rows
        factors = [np.array([[1.0], [2.0], [-1.0]]), items, np.ones((2, 1))]
        model = ServingModel(factors, np.ones(ranks), algorithm="ptucker")
        observed = np.array([[0, 3010, 1], [0, 17, 1], [1, 2995, 0]])
        model.attach_store(
            ShardStore.build(
                SparseTensor(
                    indices=observed, values=np.ones(3), shape=shape
                ),
                str(tmp_path / "shards"),
            )
        )
        contexts = [[0, 1], [1, 0], [2, 1]]
        answers = model.topk_batch(
            contexts, 1, k, exclude_observed=exclude_observed
        )
        q = model.project(contexts, 1)
        for row, (user, other) in enumerate(contexts):
            seen = observed[
                (observed[:, 0] == user) & (observed[:, 2] == other), 1
            ]
            expected = canonical_topk(
                score_block(q[row : row + 1], items.T)[0],
                k,
                seen if exclude_observed else None,
            )
            bitwise(answers[row].items, expected.items, f"items {row}")
            bitwise(answers[row].scores, expected.scores, f"scores {row}")

    def test_hot_swapped_screen_equals_a_fresh_build(self, bitwise):
        model, factors, core = make_model((6, 2500, 4), (2, 5, 2), seed=21)
        model.topk((1, 0, 2), 1, 5)
        rng = np.random.default_rng(22)
        rows = np.sort(rng.choice(2500, size=40, replace=False))
        new_rows = rng.standard_normal((40, 5))
        model.apply_update(1, rows, new_rows)
        updated = [f.copy() for f in factors]
        updated[1][rows] = new_rows
        fresh = ServingModel(updated, core).item_projection(1)
        swapped = model.item_projection(1)
        bitwise(swapped.screen, fresh.screen, "hot-swapped screen")
        bitwise(swapped.factor, fresh.factor, "hot-swapped factor")
        bitwise(swapped.sums, fresh.sums, "hot-swapped abs-sums")
        assert swapped.margin == fresh.margin
        assert model.counters.get("model.projection_builds") == 1

    def test_memory_mapped_factor_answers_like_an_in_memory_one(
        self, tmp_path, bitwise
    ):
        """Rescoring reads candidate rows straight off the mapped factor."""
        from repro.core.trace import ConvergenceTrace
        from repro.resilience import CheckpointManager

        model, factors, core = make_model((7, 3000, 4), (2, 5, 2), seed=23)
        manager = CheckpointManager(str(tmp_path / "ckpt"))
        manager.save(1, factors, core, ConvergenceTrace(), "digest")
        mapped = ServingModel.load(str(tmp_path / "ckpt"), mmap=True)
        assert isinstance(mapped.item_projection(1).factor, np.memmap)
        contexts = [(u, 0, c) for u in range(7) for c in range(4)]
        for ours, theirs in zip(
            mapped.topk_batch(contexts, 1, 12), model.topk_batch(contexts, 1, 12)
        ):
            bitwise(ours.items, theirs.items, "mapped items")
            bitwise(ours.scores, theirs.scores, "mapped scores")


class TestStats:
    def test_stats_payload_shape(self):
        model, _, _ = make_model((6, 9, 5), (2, 3, 2), seed=17)
        model.topk((0, 0, 0), 1, 3)
        model.predict((1, 2, 3))
        stats = model.stats()
        assert stats["shape"] == [6, 9, 5]
        assert stats["ranks"] == [2, 3, 2]
        assert stats["counters"]["model.topk_queries"] == 1
        assert stats["counters"]["model.predictions"] == 1
        assert stats["query_cache"]["misses"] == 1

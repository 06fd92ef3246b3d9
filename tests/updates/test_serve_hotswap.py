"""Serving hot-swap: atomic row swaps under live queries.

``apply_update`` must (1) answer exactly like a model freshly built over
the updated factors, (2) never expose a blended state to a concurrent
reader, (3) patch the item projection surgically instead of rebuilding it
(proven by the ``model.projection_builds`` counter, on a 200k-item mode),
and (4) invalidate only the cache entries the swap staled, with the
cache's invalidation counters reconciling exactly.
"""

import threading

import numpy as np

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.serve import ServingModel


def _model(shape, ranks, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    factors = initialize_factors(shape, ranks, rng)
    core = initialize_core(ranks, rng)
    return ServingModel(factors, core, **kwargs), factors, core


def _swap(rng, shape, ranks, mode, n_rows):
    rows = rng.choice(shape[mode], size=n_rows, replace=False).astype(np.int64)
    rows.sort()
    new_rows = rng.normal(size=(n_rows, ranks[mode]))
    return rows, new_rows


class TestBitwiseEquivalence:
    def test_swapped_model_answers_like_a_fresh_one(self, bitwise):
        shape, ranks = (25, 120, 6), (3, 4, 2)
        model, factors, core = _model(shape, ranks, seed=1)
        rng = np.random.default_rng(2)
        rows, new_rows = _swap(rng, shape, ranks, 1, 15)
        # Warm the model (projection + caches) before the swap.
        model.topk([3, 0, 2], 1, 5)
        assert model.apply_update(1, rows, new_rows) == 15

        updated = [f.copy() for f in factors]
        updated[1][rows] = new_rows
        fresh = ServingModel(updated, core)
        contexts = [[3, 0, 2], [10, 0, 5], [24, 0, 0]]
        for context in contexts:
            mine = model.topk(context, 1, 12)
            theirs = fresh.topk(context, 1, 12)
            bitwise(mine.items, theirs.items, f"items for {context}")
            bitwise(mine.scores, theirs.scores, f"scores for {context}")
        block = np.stack(
            [rng.integers(0, s, 40) for s in shape], axis=1
        ).astype(np.int64)
        bitwise(model.predict(block), fresh.predict(block), "predictions")

    def test_zero_rows_is_a_no_op(self):
        model, _, _ = _model((10, 20, 5), (2, 2, 2))
        before = model.counters.snapshot()
        assert model.apply_update(1, np.empty(0, dtype=np.int64),
                                  np.empty((0, 2))) == 0
        assert model.counters.snapshot() == before


class TestSurgicalProjection:
    def test_200k_item_swap_never_rebuilds_the_projection(self, bitwise):
        """On a 200k-item mode the projection is patched column-wise; the
        build counter stays at one across the swap."""
        shape, ranks = (40, 200_000, 6), (2, 3, 2)
        model, factors, core = _model(shape, ranks, seed=3)
        model.topk([7, 0, 1], 1, 10)
        assert model.counters.get("model.projection_builds") == 1

        rng = np.random.default_rng(4)
        rows, new_rows = _swap(rng, shape, ranks, 1, 50)
        assert model.apply_update(1, rows, new_rows) == 50
        assert model.counters.get("model.projection_builds") == 1
        assert model.counters.get("model.projection_row_updates") == 50

        updated = [f.copy() for f in factors]
        updated[1][rows] = new_rows
        fresh = ServingModel(updated, core)
        for context in ([7, 0, 1], [0, 0, 5], [39, 0, 3]):
            mine = model.topk(context, 1, 20)
            theirs = fresh.topk(context, 1, 20)
            bitwise(mine.items, theirs.items, f"items for {context}")
            bitwise(mine.scores, theirs.scores, f"scores for {context}")
        # The patched screen and margin are exactly the rebuilt ones, so
        # pruning behaves identically.
        patched, rebuilt = model.item_projection(1), fresh.item_projection(1)
        assert patched.margin == rebuilt.margin
        bitwise(patched.screen, rebuilt.screen, "patched screen")


class TestSurgicalInvalidation:
    def test_only_contexts_touching_swapped_rows_are_evicted(self):
        shape, ranks = (30, 80, 6), (2, 3, 2)
        model, _, _ = _model(shape, ranks, seed=5)
        # Prime q vectors for contexts over users 0..9 (item mode 1).
        contexts = [[u, 0, u % 6] for u in range(10)]
        model.topk_batch(contexts, 1, 5)
        primed = [(1, u, 0, u % 6) for u in range(10)]
        assert all(key in model.query_cache for key in primed)

        rng = np.random.default_rng(6)
        # Swap user rows 2 and 7 (mode 0): exactly those contexts stale.
        rows = np.array([2, 7], dtype=np.int64)
        new_rows = rng.normal(size=(2, ranks[0]))
        before = model.query_cache.snapshot()["invalidations"]
        model.apply_update(0, rows, new_rows)
        after = model.query_cache.snapshot()["invalidations"]
        assert after - before == 2
        for key in primed:
            if key[1] in (2, 7):
                assert key not in model.query_cache
            else:
                assert key in model.query_cache

    def test_item_mode_swap_leaves_q_vectors_warm(self):
        """Swapping item rows stales no q vector (q is contracted over the
        context modes only) — zero invalidations, all keys still hot."""
        shape, ranks = (30, 80, 6), (2, 3, 2)
        model, _, _ = _model(shape, ranks, seed=7)
        contexts = [[u, 0, 0] for u in range(8)]
        model.topk_batch(contexts, 1, 5)
        rng = np.random.default_rng(8)
        rows, new_rows = _swap(rng, shape, ranks, 1, 10)
        before = model.query_cache.snapshot()["invalidations"]
        model.apply_update(1, rows, new_rows)
        assert model.query_cache.snapshot()["invalidations"] == before
        assert all((1, u, 0, 0) in model.query_cache for u in range(8))

    def test_staged_row_copies_of_swapped_rows_are_evicted(self):
        """Row-cache entries (mmap staging) for swapped rows go; others
        stay; the counter reconciles with the evicted keys."""
        shape, ranks = (30, 80, 6), (2, 3, 2)
        model, factors, _ = _model(shape, ranks, seed=9)
        for idx in range(5):
            model.row_cache.put(("row", 1, idx), np.array(factors[1][idx]))
            model.row_cache.put(("row", 0, idx), np.array(factors[0][idx]))
        rng = np.random.default_rng(10)
        rows = np.array([1, 3], dtype=np.int64)
        model.apply_update(1, rows, rng.normal(size=(2, ranks[1])))
        assert model.row_cache.snapshot()["invalidations"] == 2
        for idx in range(5):
            assert (("row", 1, idx) in model.row_cache) == (idx not in (1, 3))
            assert ("row", 0, idx) in model.row_cache


class TestConcurrentReaders:
    def test_reader_sees_old_or_new_never_a_blend(self, bitwise):
        """A reader hammering top-K during repeated swaps between two row
        states only ever observes one of the two exact answer sets."""
        shape, ranks = (20, 150, 4), (2, 3, 2)
        model, factors, core = _model(shape, ranks, seed=11)
        rng = np.random.default_rng(12)
        rows, alt_rows = _swap(rng, shape, ranks, 1, 12)
        original_rows = np.array(factors[1][rows])

        def reference(state_rows):
            updated = [f.copy() for f in factors]
            updated[1][rows] = state_rows
            return ServingModel(updated, core).topk([4, 0, 2], 1, 10)

        answers = [reference(original_rows), reference(alt_rows)]
        expected = {
            (a.items.tobytes(), a.scores.tobytes()) for a in answers
        }
        stop = threading.Event()
        blends = []
        seen = set()

        def reader():
            while not stop.is_set():
                result = model.topk([4, 0, 2], 1, 10)
                observed = (result.items.tobytes(), result.scores.tobytes())
                seen.add(observed)
                if observed not in expected:
                    blends.append(observed)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        swaps = 0
        try:
            for n in range(60):
                state = alt_rows if n % 2 == 0 else original_rows
                model.apply_update(1, rows, state)
                swaps += 1
        finally:
            stop.set()
            thread.join()
        assert not blends, "reader observed a blended model state"
        assert seen <= expected
        # Counters reconcile: every swap accounted, at full row count.
        assert model.counters.get("model.updates") == swaps
        assert model.counters.get("model.rows_swapped") == swaps * len(rows)
        assert model.counters.get("model.projection_builds") == 1

"""Multi-worker serving: item-sharded queries, degradation, hot-swap.

The engine's contract is that worker processes are *invisible* in the
answers: every top-K/predict reply is bitwise identical to the in-loop
``ServingModel``, whatever the worker count, and whether or not workers
died along the way.  The violent variant (SIGKILL mid-stream) is under
the ``chaos`` marker; everything else runs in tier-1.
"""

import os

import numpy as np
import pytest

from repro.core import TuckerResult
from repro.fabric import FabricError
from repro.model_io import save_model
from repro.serve import ServingModel, ServingWorkerEngine
from repro.serve.server import ModelServer
from repro.serve.topk import TopKResult
from repro.serve.workers import _merge_topk

SHAPE = (6, 9, 5)
RANKS = (2, 3, 2)
CONTEXTS = [[2, 4], [0, 0], [5, 3], [1, 2], [3, 1]]


def build_parts(seed=0):
    rng = np.random.default_rng(seed)
    factors = [
        rng.standard_normal((dim, rank)) for dim, rank in zip(SHAPE, RANKS)
    ]
    core = rng.standard_normal(RANKS)
    return factors, core


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    factors, core = build_parts()
    return save_model(
        TuckerResult(core=core, factors=factors, algorithm="ptucker"),
        str(tmp_path_factory.mktemp("model") / "model"),
    )


@pytest.fixture(scope="module")
def engine(model_path):
    factors, core = build_parts()
    local = ServingModel(factors, core, algorithm="ptucker")
    eng = ServingWorkerEngine(model_path, local_model=local, n_workers=3)
    assert eng.wait_ready(60.0)
    yield eng
    eng.shutdown()


@pytest.fixture()
def reference():
    factors, core = build_parts()
    return ServingModel(factors, core, algorithm="ptucker")


def assert_topk_bitwise(results, expected):
    for ours, theirs in zip(results, expected):
        np.testing.assert_array_equal(ours.items, theirs.items)
        assert ours.scores.tobytes() == theirs.scores.tobytes()


class TestBitwise:
    @pytest.mark.parametrize("mode,k", [(1, 3), (1, 9), (0, 4), (2, 5)])
    def test_topk_matches_inloop(self, engine, reference, mode, k):
        """Item sharding across 3 workers is invisible: same items, same
        score bytes, ties included (k=9 covers the whole mode-1 axis)."""
        assert_topk_bitwise(
            engine.topk_batch(CONTEXTS, mode, k),
            reference.topk_batch(CONTEXTS, mode, k),
        )

    def test_predict_matches_inloop(self, engine, reference):
        indices = [[1, 2, 3], [0, 0, 0], [5, 8, 4], [3, 3, 3]]
        ours = np.asarray(engine.predict(indices))
        assert ours.tobytes() == reference.predict(indices).tobytes()

    def test_more_workers_than_items_still_exact(self, model_path, reference):
        """Empty item shards (workers > items) are skipped, not queried."""
        factors, core = build_parts()
        local = ServingModel(factors, core, algorithm="ptucker")
        engine = ServingWorkerEngine(
            model_path, local_model=local, n_workers=2
        )
        try:
            assert engine.wait_ready(60.0)
            assert_topk_bitwise(
                engine.topk_batch(CONTEXTS[:2], 2, 5),
                reference.topk_batch(CONTEXTS[:2], 2, 5),
            )
        finally:
            engine.shutdown()


class TestMergeTopk:
    def test_boundary_ties_resolve_by_ascending_item(self):
        parts = [
            (np.array([3, 0]), np.array([2.0, 1.0])),
            (np.array([5, 7]), np.array([2.0, 1.0])),
        ]
        merged = _merge_topk(parts, k=3)
        # Tie at 2.0 → items 3 then 5; tie at 1.0 → item 0 beats 7.
        np.testing.assert_array_equal(merged.items, [3, 5, 0])
        np.testing.assert_array_equal(merged.scores, [2.0, 2.0, 1.0])

    def test_k_larger_than_union(self):
        merged = _merge_topk([(np.array([1]), np.array([0.5]))], k=10)
        np.testing.assert_array_equal(merged.items, [1])


class TestHotSwap:
    def test_apply_update_fans_out_bitwise(self, model_path):
        factors, core = build_parts()
        local = ServingModel(factors, core, algorithm="ptucker")
        mirror = ServingModel(
            [f.copy() for f in factors], core.copy(), algorithm="ptucker"
        )
        engine = ServingWorkerEngine(
            model_path, local_model=local, n_workers=2
        )
        try:
            assert engine.wait_ready(60.0)
            rng = np.random.default_rng(42)
            rows = np.array([0, 3, 7])
            new_rows = rng.standard_normal((3, RANKS[1]))
            assert engine.apply_update(1, rows, new_rows) == 3
            mirror.apply_update(1, rows, new_rows)
            assert_topk_bitwise(
                engine.topk_batch(CONTEXTS, 1, 4),
                mirror.topk_batch(CONTEXTS, 1, 4),
            )
        finally:
            engine.shutdown()


class TestExcludeObserved:
    def test_sharded_exclusion_matches_inloop(self, tmp_path):
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        factors, core = build_parts()
        indices = np.array(
            [[2, 1, 3], [2, 4, 3], [2, 7, 3], [2, 4, 0], [5, 4, 3]]
        )
        tensor = SparseTensor(
            indices=indices, values=np.ones(5), shape=SHAPE
        )
        store_path = str(tmp_path / "shards")
        ShardStore.build(tensor, store_path)

        path = save_model(
            TuckerResult(core=core, factors=factors, algorithm="ptucker"),
            str(tmp_path / "model"),
        )
        local = ServingModel(factors, core, algorithm="ptucker")
        local.attach_store(store_path)
        reference = ServingModel(factors, core, algorithm="ptucker")
        reference.attach_store(store_path)

        engine = ServingWorkerEngine(
            path, local_model=local, n_workers=3, store_path=store_path
        )
        try:
            assert engine.wait_ready(60.0)
            # The observed items of context (2, *, 3) span several item
            # shards; each worker masks only its own global-id range.
            assert_topk_bitwise(
                engine.topk_batch(
                    [[2, 3]], 1, 9, exclude_observed=True
                ),
                reference.topk_batch(
                    [[2, 3]], 1, 9, exclude_observed=True
                ),
            )
        finally:
            engine.shutdown()


class TestTwoWorkerScreen:
    def test_two_workers_match_inloop_and_brute_force(self, tmp_path):
        """Two item shards, each a column view of the float32 screen plus
        a row slice of the factor, answer byte-identically to the in-loop
        model and to the float64 brute force — with exact ties and near
        ties straddling the shard edge, and with exclusions."""
        from repro.serve.topk import canonical_topk, score_block
        from repro.shards import ShardStore
        from repro.tensor import SparseTensor

        shape, ranks = (3, 6000, 2), (1, 4, 1)
        rng = np.random.default_rng(31)
        items = rng.uniform(-0.2, 0.2, (6000, 4))
        # Near-tied rows (1e-12 apart, below float32 resolution) on both
        # sides of the 3000-item shard edge, and an exactly tied pair.
        near = np.array([2990, 2995, 3000, 3004, 3010, 4000, 10, 5990])
        rows = rng.uniform(-2.0, 2.0, (near.shape[0], 4))
        target = 1.0 + 1e-12 * np.arange(near.shape[0])
        rows[:, 0] = target - rows[:, 1:].sum(axis=1)
        rows[-1] = rows[-2]
        items[near] = rows
        factors = [np.array([[1.0], [2.0], [-1.0]]), items, np.ones((2, 1))]
        core = np.ones(ranks)
        path = save_model(
            TuckerResult(core=core, factors=factors, algorithm="ptucker"),
            str(tmp_path / "model"),
        )
        observed = np.array([[0, 3010, 1], [0, 17, 1], [1, 2995, 0]])
        store_path = str(tmp_path / "shards")
        ShardStore.build(
            SparseTensor(indices=observed, values=np.ones(3), shape=shape),
            store_path,
        )
        local = ServingModel(factors, core, algorithm="ptucker")
        local.attach_store(store_path)
        reference = ServingModel(factors, core, algorithm="ptucker")
        reference.attach_store(store_path)
        engine = ServingWorkerEngine(
            path, local_model=local, n_workers=2, store_path=store_path
        )
        contexts = [[0, 1], [1, 0], [2, 1]]
        try:
            assert engine.wait_ready(60.0)
            for k in (3, 6, 7):
                for exclude_observed in (False, True):
                    answers = engine.topk_batch(
                        contexts, 1, k, exclude_observed=exclude_observed
                    )
                    assert_topk_bitwise(
                        answers,
                        reference.topk_batch(
                            contexts, 1, k, exclude_observed=exclude_observed
                        ),
                    )
                    q = reference.project(contexts, 1)
                    for row, (user, other) in enumerate(contexts):
                        seen = observed[
                            (observed[:, 0] == user) & (observed[:, 2] == other),
                            1,
                        ]
                        expected = canonical_topk(
                            score_block(q[row : row + 1], items.T)[0],
                            k,
                            seen if exclude_observed else None,
                        )
                        assert_topk_bitwise([answers[row]], [expected])
        finally:
            engine.shutdown()


class TestDegradation:
    def test_fabric_error_falls_back_to_local_model(
        self, engine, reference, monkeypatch
    ):
        """A broken pool degrades to in-loop execution: answers stay
        bitwise-correct and the fallback is counted."""

        def broken(tasks, **kwargs):
            raise FabricError("pool is gone")

        monkeypatch.setattr(engine.supervisor, "run_tasks", broken)
        before = engine.counters.get("serve.fallbacks")
        assert_topk_bitwise(
            engine.topk_batch(CONTEXTS, 1, 4),
            reference.topk_batch(CONTEXTS, 1, 4),
        )
        ours = np.asarray(engine.predict([[1, 2, 3]]))
        assert ours.tobytes() == reference.predict([[1, 2, 3]]).tobytes()
        assert engine.counters.get("serve.fallbacks") == before + 2


class TestServerIntegration:
    def test_health_reports_ready_and_worker_liveness(self, engine):
        import asyncio

        server = ModelServer(engine.local_model, engine=engine)

        async def scenario():
            try:
                return await server.handle_request("health", {})
            finally:
                await server.batcher.close()

        reply = asyncio.run(scenario())
        assert reply["ready"] is True
        assert reply["status"] == "ok"
        assert len(reply["workers"]) == 3
        assert all(w["alive"] for w in reply["workers"])

    def test_stats_carries_degraded_flag(self, engine):
        server = ModelServer(engine.local_model, engine=engine)
        stats = server.op_stats()
        assert stats["degraded"] is False
        assert stats["serving"]["n_workers"] == 3

    def test_inloop_server_is_ready_immediately(self):
        factors, core = build_parts()
        server = ModelServer(ServingModel(factors, core))
        assert server.ready()
        assert server.op_health() == {"status": "ok", "ready": True}


@pytest.mark.chaos
class TestChaosServing:
    def test_worker_sigkill_mid_stream_answers_stay_bitwise(self, model_path):
        """Kill a serving worker between queries: the next wave re-dispatches
        its shard, answers stay byte-identical, the pool heals."""
        factors, core = build_parts()
        local = ServingModel(factors, core, algorithm="ptucker")
        reference = ServingModel(factors, core, algorithm="ptucker")
        engine = ServingWorkerEngine(
            model_path, local_model=local, n_workers=3
        )
        try:
            assert engine.wait_ready(60.0)
            expected = reference.topk_batch(CONTEXTS, 1, 4)
            assert_topk_bitwise(engine.topk_batch(CONTEXTS, 1, 4), expected)

            victim = engine.liveness()[0]["pid"]
            os.kill(victim, 9)
            # Immediately after the kill: answers are still bitwise-exact
            # (the dead worker's shard is re-dispatched to a survivor).
            assert_topk_bitwise(engine.topk_batch(CONTEXTS, 1, 4), expected)
            # And the slot heals: eventually all three are back and ready.
            assert engine.wait_ready(60.0)
            assert_topk_bitwise(engine.topk_batch(CONTEXTS, 1, 4), expected)
        finally:
            engine.shutdown()

"""Multi-worker serving: item-sharded queries over the execution fabric.

:class:`ServingWorkerEngine` puts a :class:`~repro.fabric.TaskSupervisor`
pool of worker processes behind the server's query path.  Every worker
loads the **full model** (a ``SETUP`` broadcast replayed to respawned
workers, so a replacement always rejoins with identical state); top-K
queries are then sharded along the **item axis** — worker task ``i``
screens items ``[lo_i, hi_i)`` through a column view of the float32
screen and rescores them from a row slice of the float64 factor — and
the shard results are merged by the canonical ``(-score, item)`` rule.
The merge is exact, ties included: the deterministic scorer of
:mod:`repro.serve.topk` fixes each ``(q, item)`` score's accumulation
order over the full rank axis regardless of which item range it is
computed in, so a shard's scores are bitwise equal to the unsharded
scorer's, and any global top-K member necessarily ranks in its own
shard's top-K.  Sharded answers are therefore bitwise identical
to single-process answers — the multi-worker chaos tests assert this
under worker SIGKILL.

Because any worker holds the whole model, the engine keeps serving
through failures: a dead worker's shard task is re-dispatched to a
surviving worker by the fabric, and if the pool is entirely broken the
engine **degrades gracefully** to the in-loop local model (the
``serve.fallbacks`` counter counts these, ``/stats`` reports
``degraded``) instead of failing requests.  ``/health`` exposes per-slot
liveness and turns ready only when every worker has acknowledged the
full setup log.

Hot-swaps (:meth:`ServingWorkerEngine.apply_update`) are fanned out as
ordered setup broadcasts and applied to the local fallback model under
the same lock that serializes query waves, so every query wave sees the
fully-old or fully-new model on every worker — never a blend.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fabric import FabricError, Task, TaskSupervisor
from ..metrics import Counters
from .model import ServingModel
from .topk import TopKResult, topk_scores

#: Per-query-wave deadline: a healthy shard task answers in milliseconds,
#: so only a wedged worker ever hits this.
TASK_DEADLINE_S = 30.0


# ----------------------------------------------------------------------
# Worker-side callables (referenced by dotted path in fabric frames)
# ----------------------------------------------------------------------

def _setup_model(context, payload):
    """Load the full serving model (and optional shard store) in-worker."""
    model_path, mmap, store_path = payload
    model = ServingModel.load(model_path, mmap=mmap)
    if store_path:
        model.attach_store(store_path)
    return model


def _apply_update(context, payload):
    """Apply one hot-swap to this worker's model (ordered, replay-logged)."""
    mode, rows, new_rows = payload
    return context.setups["model"].apply_update(mode, rows, new_rows)


def _worker_predict(context, payload):
    """Point predictions for one batch (full model, no sharding needed)."""
    model: ServingModel = context.setups["model"]
    return model.predict(payload)


def _worker_topk(context, payload):
    """Top-K of one item shard ``[lo, hi)`` for a batch of contexts.

    The shard is :meth:`~repro.serve.topk.ItemProjection.columns` — a
    column view of the float32 screen and a row slice of the factor — so
    each ``(q, item)`` score sees the identical accumulation the unsharded
    scorer performs; returned item indices are shifted back to global ids.
    """
    lo, hi, contexts, mode, k, exclude_observed = payload
    model: ServingModel = context.setups["model"]
    model._check_mode(mode)
    q_block = model.project(contexts, mode)
    shard = model.item_projection(mode).columns(lo, hi)
    exclude: Optional[List[Optional[np.ndarray]]] = None
    if exclude_observed:
        block = model._context_block(contexts, mode)
        exclude = []
        for row in block:
            observed = model._observed_items(row, mode)
            local = observed[(observed >= lo) & (observed < hi)] - lo
            exclude.append(local)
    results = topk_scores(q_block, shard, k, exclude)
    return [
        ((r.items + lo).astype(np.int64), np.asarray(r.scores))
        for r in results
    ]


# ----------------------------------------------------------------------

class ServingWorkerEngine:
    """Item-sharded query execution across supervised serving workers.

    ``local_model`` is the in-process model the server loaded anyway; it
    is the graceful-degradation fallback (and the hot-swap mirror, so the
    fallback never serves stale answers).  All supervisor interaction is
    serialized by one lock — the micro-batcher executes handlers on a
    thread pool, and the lock is also what makes an ``apply_update``
    atomic with respect to query waves (the no-blend guarantee).
    """

    def __init__(
        self,
        model_path: str,
        local_model: ServingModel,
        n_workers: int = 2,
        mmap: bool = False,
        store_path: Optional[str] = None,
        counters: Optional[Counters] = None,
        supervisor: Optional[TaskSupervisor] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.model_path = model_path
        self.local_model = local_model
        self.n_workers = int(n_workers)
        self.counters = (
            counters if counters is not None else local_model.counters
        )
        self._lock = threading.Lock()
        self._own_supervisor = supervisor is None
        self.supervisor = (
            supervisor
            if supervisor is not None
            else TaskSupervisor(
                self.n_workers,
                task_deadline=TASK_DEADLINE_S,
                counters=self.counters,
                name="serve",
            )
        )
        self.supervisor.broadcast_setup(
            "model",
            "repro.serve.workers:_setup_model",
            (model_path, bool(mmap), store_path),
        )
        self._update_seq = 0

    # ------------------------------------------------------------------
    # Liveness / readiness
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Every worker is live and has applied the full setup log."""
        with self._lock:
            return self.supervisor.ready()

    def degraded(self) -> bool:
        """Some worker slot is dead or behind on setups right now."""
        with self._lock:
            self.supervisor.poll()
            return not self.supervisor.pool.all_acked()

    def liveness(self) -> List[Dict[str, Any]]:
        with self._lock:
            return self.supervisor.liveness()

    def poll(self) -> None:
        """Drive respawns/heartbeat checks between requests."""
        with self._lock:
            self.supervisor.poll()

    def wait_ready(self, timeout: float) -> bool:
        with self._lock:
            return self.supervisor.wait_ready(timeout)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict(self, indices) -> np.ndarray:
        """Point predictions on one worker (no item axis to shard)."""
        payload = [tuple(int(v) for v in row) for row in np.asarray(indices)]
        with self._lock:
            try:
                return self.supervisor.run_tasks(
                    [
                        Task(
                            key="predict",
                            fn="repro.serve.workers:_worker_predict",
                            payload=payload,
                        )
                    ]
                )[0]
            except FabricError:
                self.counters.add("serve.fallbacks")
        return self.local_model.predict(indices)

    def topk_batch(
        self,
        contexts: Sequence[Sequence[int]],
        mode: int,
        k: int,
        exclude_observed: bool = False,
    ) -> List[TopKResult]:
        """Item-sharded top-K across the pool, canonical-merged.

        Bitwise identical to ``local_model.topk_batch`` — sharding, the
        worker count, and mid-wave worker deaths are all invisible in the
        answer.
        """
        contexts = [tuple(int(v) for v in c) for c in contexts]
        if not contexts:
            return []
        self.local_model._check_mode(mode)
        items_total = self.local_model.shape[mode]
        edges = np.linspace(
            0, items_total, self.n_workers + 1, dtype=np.int64
        )
        tasks = []
        for shard, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if lo == hi:
                continue
            tasks.append(
                Task(
                    key=("topk", shard),
                    fn="repro.serve.workers:_worker_topk",
                    payload=(
                        int(lo), int(hi), contexts, int(mode), int(k),
                        bool(exclude_observed),
                    ),
                )
            )
        if not tasks:
            return self.local_model.topk_batch(
                contexts, mode, k, exclude_observed
            )
        with self._lock:
            try:
                shard_results = self.supervisor.run_tasks(tasks)
            except FabricError:
                self.counters.add("serve.fallbacks")
                return self.local_model.topk_batch(
                    contexts, mode, k, exclude_observed
                )
        return [
            _merge_topk([shard[query] for shard in shard_results], k)
            for query in range(len(contexts))
        ]

    # ------------------------------------------------------------------
    # Hot-swap
    # ------------------------------------------------------------------
    def apply_update(
        self, mode: int, rows: np.ndarray, new_rows: np.ndarray
    ) -> int:
        """Fan a hot-swap out to every worker and the local fallback.

        The broadcast is an ordered, replay-logged setup: live workers
        apply it before any query task sent after it (pipe ordering), a
        respawned worker replays it before taking work, and the engine
        lock keeps it atomic against query waves — no query wave can
        observe half-updated workers.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        new_rows = np.asarray(new_rows, dtype=np.float64)
        with self._lock:
            self._update_seq += 1
            self.supervisor.broadcast_setup(
                f"update:{self._update_seq}",
                "repro.serve.workers:_apply_update",
                (int(mode), rows, new_rows),
            )
            return self.local_model.apply_update(mode, rows, new_rows)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-ready serving-pool stats for ``/stats``."""
        with self._lock:
            self.supervisor.poll()
            return {
                "workers": self.supervisor.pool.liveness(),
                "degraded": not self.supervisor.pool.all_acked(),
                "n_workers": self.n_workers,
            }

    def shutdown(self) -> None:
        with self._lock:
            if self._own_supervisor:
                self.supervisor.shutdown()


def _merge_topk(parts: List[Tuple[np.ndarray, np.ndarray]], k: int) -> TopKResult:
    """Canonical top-K of the union of per-shard top-K lists.

    Every global top-K member ranks in its own shard's top-K (scores are
    shard-invariant), so the union is a superset of the answer; sorting
    it by ``(-score, item)`` and truncating reproduces the canonical rule
    exactly, boundary ties included.
    """
    items = np.concatenate([np.asarray(p[0], dtype=np.int64) for p in parts])
    scores = np.concatenate([np.asarray(p[1], dtype=np.float64) for p in parts])
    order = np.lexsort((items, -scores))[: int(k)]
    return TopKResult(items=items[order], scores=scores[order])

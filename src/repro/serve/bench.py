"""Serving-layer benchmark: top-K/predict latency and throughput grids.

Times the serving hot paths on synthetic models at serving-scale item
counts:

* **Batched vs. unbatched top-K** — for each ``(items, rank)`` cell the
  same ``k=10`` workload runs through :meth:`ServingModel.topk` one query
  at a time (the unbatched per-query loop) and through
  :meth:`ServingModel.topk_batch` at each batch size.  Every row records
  request-level ``p50_ms``/``p99_ms``, per-query milliseconds and ``qps``;
  batched rows also record ``speedup_vs_unbatched`` and assert the batched
  results are **bitwise identical** to the unbatched ones
  (``matches_unbatched``) — the screening design of
  :mod:`repro.serve.topk` makes the speedup free of any result drift.
* **Naive per-entry loop** — the pre-serving way to rank a fibre: call
  :meth:`ServingModel.predict` once per item.  Measured over a slice of
  the item axis and extrapolated (``naive_extrapolated``), because at
  200k items a single query would take tens of seconds.
* **Cold vs. warm projection cache** — per-query rank-space projection
  latency on first sight of a context (cold, all misses) against the
  second pass over the same contexts (warm, all hits), with the measured
  hit rate.
* **Batched predict** — point predictions at batch 4096 against the
  per-entry loop.

Cores: the float32 screening GEMM is the one serving stage that scales
with cores while the unbatched GEMV stays memory-bound, so the
batched/unbatched ratios depend on the host's core count (recorded in
``environment``; ``single_cpu_caveat`` flags a one-CPU record).

``benchmarks/bench_serving.py`` wraps :func:`run_serving_bench` as a
script (writing ``BENCH_serving.json``) and as a ``slow``-marked pytest
benchmark; see ``docs/BENCHMARKS.md`` for the column glossary.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.environment import bench_environment
from ..metrics.timing import percentile
from .model import ServingModel

#: Full default grid.  In the (items=200k, rank=256) cell batched top-K
#: at batch 1024 against the unbatched per-query loop is FLOP-bound GEMM
#: vs. memory-bound GEMV, which is where batching pays most (about 9-12x
#: per query on two cores).
DEFAULT_GRID: Tuple[Dict[str, int], ...] = (
    {"items": 2_000, "rank": 16},
    {"items": 50_000, "rank": 64},
    {"items": 200_000, "rank": 64},
    {"items": 200_000, "rank": 256},
)

#: Reduced grid for smoke runs (pytest benchmark, ``--small`` flag).
SMALL_GRID: Tuple[Dict[str, int], ...] = (
    {"items": 2_000, "rank": 8},
    {"items": 10_000, "rank": 16},
)

#: Batch sizes timed per cell; 1 is the unbatched per-query loop and the
#: baseline every ``speedup_vs_unbatched`` column divides against.
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 64, 1024)

TOP_K = 10
ITEM_MODE = 1


def _build_model(
    items: int, rank: int, seed: int, users: int = 4096
) -> ServingModel:
    """A synthetic serving model with ``items`` rows on the item mode.

    The query cache is disabled so throughput rows time real projections
    on every pass (the cache has its own cold/warm measurement).
    """
    rng = np.random.default_rng(seed)
    shape = (users, items, 8)
    ranks = (8, rank, 4)
    factors = [rng.standard_normal((d, r)) for d, r in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    return ServingModel(factors, core, algorithm="ptucker", query_cache=0)


def _workload(model: ServingModel, n: int, seed: int) -> List[Tuple[int, ...]]:
    """``n`` random full-context queries for ``model``."""
    rng = np.random.default_rng(seed)
    return [
        tuple(int(rng.integers(d)) for d in model.shape) for _ in range(n)
    ]


def _latency_columns(samples: List[float], queries_per_sample: int) -> Dict[str, float]:
    """Request-level p50/p99 plus per-query mean and QPS for one pass."""
    window = sorted(samples)
    total = sum(samples)
    queries = len(samples) * queries_per_sample
    return {
        "n_requests": len(samples),
        "p50_ms": percentile(window, 0.50) * 1e3,
        "p99_ms": percentile(window, 0.99) * 1e3,
        "ms_per_query": total / queries * 1e3,
        "qps": queries / total if total > 0 else float("nan"),
    }


def _bench_topk_cell(
    model: ServingModel,
    contexts: Sequence[Tuple[int, ...]],
    batch_sizes: Sequence[int],
    unbatched_queries: int,
    repeats: int,
) -> List[Dict[str, object]]:
    """One (items, rank) cell: the unbatched loop and every batch size.

    The unbatched loop runs over a prefix of the workload (large item
    modes make per-query GEMVs expensive; the prefix keeps full-grid runs
    in minutes) and batched passes cover the whole workload.  Batched
    results for that prefix are compared bitwise against the unbatched
    ones.
    """
    items = model.shape[ITEM_MODE]
    rank = model.ranks[ITEM_MODE]
    prefix = list(contexts[:unbatched_queries])

    model.topk_batch(prefix[:8], ITEM_MODE, TOP_K)  # warm projections

    rows: List[Dict[str, object]] = []
    unbatched: List[object] = []
    unbatched_ms_per_query = None
    for batch in batch_sizes:
        samples: List[float] = []
        outputs: List[object] = []
        for _ in range(max(1, repeats)):
            outputs = []
            if batch == 1:
                for context in prefix:
                    start = perf_counter()
                    outputs.append(model.topk(context, ITEM_MODE, TOP_K))
                    samples.append(perf_counter() - start)
            else:
                for start_idx in range(0, len(contexts), batch):
                    chunk = list(contexts[start_idx : start_idx + batch])
                    start = perf_counter()
                    outputs.extend(model.topk_batch(chunk, ITEM_MODE, TOP_K))
                    samples.append(perf_counter() - start)
        row: Dict[str, object] = {
            "path": "topk",
            "items": int(items),
            "rank": int(rank),
            "k": TOP_K,
            "batch": int(batch),
        }
        if batch == 1:
            unbatched = outputs
            columns = _latency_columns(samples, queries_per_sample=1)
            unbatched_ms_per_query = columns["ms_per_query"]
            row.update(columns)
            row["speedup_vs_unbatched"] = 1.0
        else:
            # Request latency is per *batch*; ms_per_query/qps divide it out.
            window = sorted(samples)
            total = sum(samples)
            queries = len(contexts) * max(1, repeats)
            row.update(
                {
                    "n_requests": len(samples),
                    "p50_ms": percentile(window, 0.50) * 1e3,
                    "p99_ms": percentile(window, 0.99) * 1e3,
                    "ms_per_query": total / queries * 1e3,
                    "qps": queries / total if total > 0 else float("nan"),
                }
            )
            row["speedup_vs_unbatched"] = (
                unbatched_ms_per_query / row["ms_per_query"]
                if unbatched_ms_per_query
                else float("nan")
            )
            row["matches_unbatched"] = all(
                np.array_equal(b.items, s.items)
                and np.array_equal(b.scores, s.scores)
                for b, s in zip(outputs[: len(unbatched)], unbatched)
            )
        rows.append(row)
    return rows


def _bench_naive_loop(
    model: ServingModel, context: Tuple[int, ...], probe_items: int = 256
) -> Dict[str, object]:
    """The naive per-entry loop: one ``predict`` call per candidate item.

    Extrapolates a full-fibre scan from ``probe_items`` entries — at
    serving item counts the full loop takes tens of seconds per query,
    which is exactly why the serving layer exists.
    """
    items = model.shape[ITEM_MODE]
    probe = min(probe_items, items)
    entry = list(context)
    start = perf_counter()
    for item in range(probe):
        entry[ITEM_MODE] = item
        model.predict(tuple(entry))
    elapsed = perf_counter() - start
    per_query = elapsed / probe * items
    return {
        "naive_ms_per_query": per_query * 1e3,
        "naive_probe_items": int(probe),
        "naive_extrapolated": bool(probe < items),
    }


def _bench_projection_cache(
    items: int, rank: int, seed: int, n_contexts: int = 256
) -> Dict[str, object]:
    """Cold vs. warm per-query projection latency with the cache enabled."""
    rng = np.random.default_rng(seed)
    shape = (4096, items, 8)
    ranks = (8, rank, 4)
    factors = [rng.standard_normal((d, r)) for d, r in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    model = ServingModel(
        factors, core, algorithm="ptucker", query_cache=4 * n_contexts
    )
    contexts = _workload(model, n_contexts, seed + 1)
    model.project([contexts[0]], ITEM_MODE)  # warm the contraction plan

    def one_pass() -> List[float]:
        samples = []
        for context in contexts:
            start = perf_counter()
            model.project([context], ITEM_MODE)
            samples.append(perf_counter() - start)
        return sorted(samples)

    cold = one_pass()
    warm = one_pass()
    hits = model.counters.get("query_cache.hit")
    lookups = hits + model.counters.get("query_cache.miss")
    return {
        "items": int(items),
        "rank": int(rank),
        "project_cold_p50_ms": percentile(cold, 0.50) * 1e3,
        "project_cold_p99_ms": percentile(cold, 0.99) * 1e3,
        "project_warm_p50_ms": percentile(warm, 0.50) * 1e3,
        "project_warm_p99_ms": percentile(warm, 0.99) * 1e3,
        "warm_speedup": percentile(cold, 0.50) / max(percentile(warm, 0.50), 1e-12),
        "cache_hit_rate": hits / lookups if lookups else 0.0,
    }


def _bench_predict(
    model: ServingModel, seed: int, batch: int = 4096
) -> Dict[str, object]:
    """Batched point predictions against the per-entry loop."""
    rng = np.random.default_rng(seed)
    block = np.column_stack(
        [rng.integers(d, size=batch) for d in model.shape]
    )
    model.predict(block[:16])
    start = perf_counter()
    batched = model.predict(block)
    batched_seconds = perf_counter() - start

    probe = 256
    start = perf_counter()
    singles = [model.predict(block[i]) for i in range(probe)]
    loop_seconds = (perf_counter() - start) / probe * batch

    matches = all(
        batched[i] == singles[i][0] for i in range(probe)
    )
    return {
        "path": "predict",
        "items": int(model.shape[ITEM_MODE]),
        "rank": int(model.ranks[ITEM_MODE]),
        "batch": int(batch),
        "ms_per_query": batched_seconds / batch * 1e3,
        "qps": batch / batched_seconds,
        "naive_ms_per_query": loop_seconds / batch * 1e3,
        "speedup_vs_naive": loop_seconds / max(batched_seconds, 1e-12),
        "matches_unbatched": bool(matches),
        "naive_extrapolated": True,
    }


def run_serving_bench(
    grid: Optional[Sequence[Dict[str, int]]] = None,
    batch_sizes: Optional[Sequence[int]] = None,
    workload_queries: int = 1024,
    unbatched_queries: int = 64,
    repeats: int = 2,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the serving grid and return a JSON-serialisable payload.

    ``workload_queries`` contexts flow through every batched pass;
    ``unbatched_queries`` of them also go through the per-query loop
    (its prefix results are the bitwise reference for the batched rows).
    """
    grid = tuple(DEFAULT_GRID if grid is None else grid)
    batch_sizes = tuple(DEFAULT_BATCH_SIZES if batch_sizes is None else batch_sizes)
    rows: List[Dict[str, object]] = []
    cache_rows: List[Dict[str, object]] = []
    for cell_seed, cell in enumerate(grid):
        items, rank = int(cell["items"]), int(cell["rank"])
        model = _build_model(items, rank, seed + cell_seed)
        contexts = _workload(model, workload_queries, seed + cell_seed + 100)
        cell_rows = _bench_topk_cell(
            model, contexts, batch_sizes, unbatched_queries, repeats
        )
        naive = _bench_naive_loop(model, contexts[0])
        for row in cell_rows:
            row.update(naive)
            row["speedup_vs_naive"] = (
                naive["naive_ms_per_query"] / row["ms_per_query"]
            )
        rows.extend(cell_rows)
        rows.append(_bench_predict(model, seed + cell_seed + 200))
        cache_rows.append(
            _bench_projection_cache(items, rank, seed + cell_seed + 300)
        )
    return {
        "benchmark": "serving",
        "k": TOP_K,
        "item_mode": ITEM_MODE,
        "workload_queries": int(workload_queries),
        "unbatched_queries": int(unbatched_queries),
        "repeats": int(repeats),
        "batch_sizes": [int(b) for b in batch_sizes],
        "rows": rows,
        "projection_cache": cache_rows,
        "environment": bench_environment(),
    }


def write_payload(payload: Dict[str, object], path: str) -> str:
    """Serialise a serving-bench payload to ``path`` and return the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

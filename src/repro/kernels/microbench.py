"""Kernel and backend microbenchmarks across (nnz, rank, order) grids.

Times one full :func:`~repro.core.row_update.update_factor_mode` sweep of
mode 0 under every registered execution backend (``numpy``, ``threaded``,
``procpool`` — see :mod:`repro.kernels.backends`) against the
seed Kronecker kernel, which is frozen here (:func:`kron_update_factor_mode`)
as the fixed baseline of the ``speedup`` column, and verifies the library
result against :func:`~repro.core.row_update.brute_force_row_update` on a
handful of rows.

Each row records per-backend wall times (``seconds_<backend>``), the
measured-fastest backend (``backend_selected`` — by construction never a
backend that measured slower), and the machine facts that make timings
comparable across refreshes: CPU count and the BLAS thread count.

Each cell also compares the **out-of-core sharded sweep**
(:mod:`repro.shards`) against the in-core path at a matched block size:
``seconds_sharded`` is the streamed wall time, ``sharded_equals_incore``
asserts the bitwise contract, and the ``peak_*`` columns record the peak
memory the sweep adds on top of what is already resident — once as the
RSS growth over the sweep of a *cold* subprocess, polled from its
``/proc/self/statm`` (``peak_rss_mb_*``; a warm process would mask the
difference behind allocator arena reuse, and ``ru_maxrss`` cannot be
used because numpy's import transient sets that watermark), and once as
the deterministic Python-side allocation peak from ``tracemalloc``
(``peak_traced_mb_*``, which numpy reports its buffers to).  The in-core
number includes the nnz-sized sorted index/value copies
a :class:`~repro.core.row_update.ModeContext` keeps; the sharded number
only ever holds one streamed block, which is the memory win the shard
store exists for (see ``docs/BENCHMARKS.md``).

Each cell also benchmarks the **streaming ingest** path: the vectorized
text parser against the frozen seed per-line loop
(``seconds_parse_text`` / ``seconds_parse_text_loop`` /
``parse_speedup_vs_loop``) and the external-memory shard build against the
in-RAM one (``seconds_build_*``, ``peak_traced_mb_build_*``,
``peak_rss_mb_build_*``, ``streaming_build_equals_incore``) — see
:func:`_bench_ingest` — and the **narrow columnar index format** (shard
store v2): on-disk index bytes per entry and total store size of the
narrow store against an int64 copy of it, the layout of the retired wide
index policy frozen here (``index_bytes_per_nnz_*``,
``store_disk_bytes_*``, ``index_bytes_ratio_wide_over_narrow``), the
streamed sweep seconds over each (``seconds_sweep_narrow`` /
``seconds_sweep_wide``) and their bitwise equality
(``narrow_equals_wide``) — see :func:`_bench_index_dtype`.

The resulting rows are what ``benchmarks/run_benchmarks.py`` and
``python -m repro.experiments bench-kernels`` serialise into
``BENCH_kernels.json`` — the repository's recorded perf trajectory.

This module deliberately lives outside :mod:`repro.kernels`'s package
exports: it imports the tensor and solver layers, which themselves import
the kernel functions.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import tempfile
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.environment import bench_environment
from ..metrics.environment import blas_thread_count as _blas_thread_count
from ..metrics.memory import run_with_traced_peak

from ..core.row_update import (
    InMemorySource,
    brute_force_row_update,
    build_mode_context,
    update_factor_mode,
)
from ..exceptions import DataFormatError
from ..resilience.atomic import atomic_write_json
from ..tensor.coo import SparseTensor
from ..tensor.io import TextEntryReader, load_text, save_npz, save_text
from .backends import available_backends
from .solve import solve_rows

#: Full default grid: small enough for minutes-scale runs, but it includes
#: the (nnz=100k, rank=10, order=3) cell the perf acceptance gate reads.
DEFAULT_GRID: Tuple[Dict[str, int], ...] = (
    {"nnz": 10_000, "rank": 4, "order": 3},
    {"nnz": 10_000, "rank": 10, "order": 3},
    {"nnz": 100_000, "rank": 10, "order": 3},
    {"nnz": 200_000, "rank": 10, "order": 3},
    {"nnz": 10_000, "rank": 4, "order": 4},
    {"nnz": 10_000, "rank": 6, "order": 4},
    {"nnz": 5_000, "rank": 3, "order": 5},
)

#: Reduced grid for smoke runs (the pytest benchmark and the
#: ``bench_kernel_microbench.py --small`` flag).
SMALL_GRID: Tuple[Dict[str, int], ...] = (
    {"nnz": 2_000, "rank": 4, "order": 3},
    {"nnz": 5_000, "rank": 6, "order": 3},
    {"nnz": 2_000, "rank": 3, "order": 4},
)


#: Re-exported from :mod:`repro.metrics.environment`, the shared home of
#: benchmark-environment introspection (kept importable from here for the
#: scripts and tests that predate that module).
blas_thread_count = _blas_thread_count


def _random_problem(
    nnz: int, rank: int, order: int, seed: int
) -> Tuple[SparseTensor, List[np.ndarray], np.ndarray]:
    """A random sparse tensor with random factors and core for timing."""
    rng = np.random.default_rng(seed)
    dim = max(16, int(round((4.0 * nnz) ** (1.0 / order))))
    shape = (dim,) * order
    # Sample distinct cells so the recorded nnz is exactly the requested one.
    n_cells = dim**order
    flat = rng.choice(n_cells, size=min(nnz, n_cells), replace=False)
    indices = np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)
    values = rng.standard_normal(indices.shape[0])
    tensor = SparseTensor(indices, values, shape)
    factors = [rng.uniform(-0.5, 0.5, size=(dim, rank)) for _ in range(order)]
    core = rng.uniform(-0.5, 0.5, size=(rank,) * order)
    return tensor, factors, core


# ----------------------------------------------------------------------
# The seed kernel, frozen as the timing baseline
# ----------------------------------------------------------------------

def core_unfolding(core: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of the core in C order over the other modes.

    Row ``j`` holds the core entries with ``j_mode = j``; columns run over the
    remaining modes with the *last* mode varying fastest, matching the
    ordering produced by :func:`compute_delta_block`'s running Kronecker
    product.
    """
    core = np.asarray(core)
    other = [k for k in range(core.ndim) if k != mode]
    return np.transpose(core, [mode] + other).reshape(core.shape[mode], -1)


def compute_delta_block(
    indices_block: np.ndarray,
    factors: Sequence[np.ndarray],
    core_unfolded: np.ndarray,
    mode: int,
) -> np.ndarray:
    """δ vectors (Eq. 12) for a block of observed entries (seed kernel).

    ``indices_block`` has shape ``(m, N)``; the result has shape
    ``(m, J_mode)``.  The running element-wise product over modes ``k ≠ mode``
    builds, per entry, the Kronecker product of the other factor rows and
    materialises it as an ``(m, Π_{k≠mode} J_k)`` intermediate; a single
    matrix product against the unfolded core then yields δ.
    """
    n_entries = indices_block.shape[0]
    order = indices_block.shape[1]
    weights = np.ones((n_entries, 1), dtype=np.float64)
    for k in range(order):
        if k == mode:
            continue
        rows = np.asarray(factors[k])[indices_block[:, k]]
        weights = (weights[:, :, None] * rows[:, None, :]).reshape(n_entries, -1)
    return weights @ core_unfolded.T


def accumulate_normal_equations(
    deltas: np.ndarray,
    values: np.ndarray,
    segment_of_entry: np.ndarray,
    n_segments: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row B (Eq. 10) and c (Eq. 11) from per-entry δ vectors (seed kernel).

    ``segment_of_entry[e]`` maps entry ``e`` to its row's position in the
    mode's ``row_ids``; ``B`` comes back as ``(n_segments, J, J)`` and ``c``
    as ``(n_segments, J)``, reduced from the ``(m, J, J)`` outer-product
    array by ``np.add.at`` scatter-adds.
    """
    rank = deltas.shape[1]
    outer = deltas[:, :, None] * deltas[:, None, :]
    b_matrices = np.zeros((n_segments, rank, rank), dtype=np.float64)
    np.add.at(b_matrices, segment_of_entry, outer)
    c_vectors = np.zeros((n_segments, rank), dtype=np.float64)
    np.add.at(c_vectors, segment_of_entry, values[:, None] * deltas)
    return b_matrices, c_vectors


def kron_update_factor_mode(
    source,
    factors: List[np.ndarray],
    core: np.ndarray,
    mode: int,
    regularization: float,
    block_size: int = 200_000,
) -> np.ndarray:
    """The seed sweep: Kronecker δ, scatter-add reduction, one final solve.

    Reads the same entry sources as
    :func:`~repro.core.row_update.update_factor_mode` (a plain
    :class:`~repro.tensor.coo.SparseTensor` is sorted for this one mode)
    and keeps whole-mode ``(n_rows, J, J)`` accumulators, as the seed
    kernel did.  Updates ``factors[mode]`` in place and returns it.
    """
    if isinstance(source, SparseTensor):
        source = _int64_source(source, mode)
    row_ids, _, row_counts = source.mode_segmentation(mode)
    n_rows = row_ids.shape[0]
    rank = factors[mode].shape[1]
    core_unfolded = core_unfolding(core, mode)
    segment_of_entry = np.repeat(np.arange(n_rows), row_counts)
    b_matrices = np.zeros((n_rows, rank, rank), dtype=np.float64)
    c_vectors = np.zeros((n_rows, rank), dtype=np.float64)
    n_entries = int(source.nnz)
    for start in range(0, n_entries, block_size):
        stop = min(start + block_size, n_entries)
        indices_block, values_block = source.read_mode_block(mode, start, stop)
        deltas = compute_delta_block(indices_block, factors, core_unfolded, mode)
        partial_b, partial_c = accumulate_normal_equations(
            deltas, values_block, segment_of_entry[start:stop], n_rows
        )
        b_matrices += partial_b
        c_vectors += partial_c
    if n_rows:
        factors[mode][row_ids] = solve_rows(b_matrices, c_vectors, regularization)
    return factors[mode]


def _int64_source(tensor: SparseTensor, mode: int) -> InMemorySource:
    """``tensor`` sorted for ``mode`` over the int64 index matrix the seed read.

    The library's mode contexts hold narrow index columns; the frozen seed
    kernel is timed on the ``(nnz, N)`` int64 matrix it was written for.
    """
    context = build_mode_context(tensor, mode)
    context.sorted_indices = tensor.indices[context.perm]
    return InMemorySource(tensor, [context])


def _time_update(
    update: Callable[..., np.ndarray],
    source: InMemorySource,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    repeats: int,
    regularization: float = 0.01,
) -> float:
    """Best-of-``repeats`` wall time of one mode-0 factor update.

    ``update`` has :func:`~repro.core.row_update.update_factor_mode`'s
    leading signature (the library sweep or the frozen seed one).
    """
    best = float("inf")
    for _ in range(repeats):
        fresh = [np.array(f, copy=True) for f in factors]
        start = perf_counter()
        update(source, fresh, core, 0, regularization)
        best = min(best, perf_counter() - start)
    return best


#: Prelude of every cold-subprocess RSS probe.  A *cold* process is
#: essential: inside a warm benchmark process the allocator satisfies the
#: measured arrays from previously freed arenas, so resident memory never
#: moves and every path measures as "free".  A probe script appends its
#: own imports and input preparation (its resident state by definition),
#: then calls ``report_peak_growth(run)``, which snapshots the resident
#: set, runs ``run()`` while a thread polls ``/proc/self/statm``, and
#: prints the peak growth as JSON.  (``ru_maxrss`` cannot be used:
#: numpy's import transient sets the watermark above anything measured.)
_RSS_PROBE_PRELUDE = """
import json, os, sys, threading

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes():
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * PAGE


def report_peak_growth(run):
    baseline = rss_bytes()
    peak = [baseline]
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            peak[0] = max(peak[0], rss_bytes())
            stop.wait(0.0005)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    run()
    peak[0] = max(peak[0], rss_bytes())
    stop.set()
    sampler.join()
    print(json.dumps({"delta_kb": max(0, peak[0] - baseline) / 1024.0}))
"""

#: RSS probe of one mode-0 sweep: reads the already-built shard store; the
#: in-core variant materialises the tensor before the snapshot.
_SWEEP_RSS_PROBE = _RSS_PROBE_PRELUDE + """
import numpy as np

from repro.core.row_update import InMemorySource, update_factor_mode
from repro.shards import ShardStore, ShardedSweepExecutor

kind, shard_dir, block_size, rank = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
)
store = ShardStore.open(shard_dir)
rng = np.random.default_rng(0)
factors = [rng.uniform(-0.5, 0.5, size=(dim, rank)) for dim in store.shape]
core = rng.uniform(-0.5, 0.5, size=(rank,) * store.order)
tensor = store.to_tensor() if kind == "incore" else None


def run():
    if kind == "incore":
        source = InMemorySource.build(tensor, modes=(0,))
        update_factor_mode(source, factors, core, 0, 0.01, block_size=block_size)
    else:
        ShardedSweepExecutor(store, block_size=block_size).update_factor_mode(
            factors, core, 0, 0.01
        )


report_peak_growth(run)
"""

#: RSS probe of one shard-store *build*.  The in-RAM variant loads the
#: tensor from ``.npz`` — its resident input state, acquired without the
#: parser's transient allocations, which would otherwise leave warm
#: allocator arenas that mask the build's growth — before the snapshot;
#: the streaming variant's growth covers the whole text parse + spill +
#: merge pipeline, which is exactly the bounded-memory claim.
_BUILD_RSS_PROBE = _RSS_PROBE_PRELUDE + """
from repro.shards import ShardStore
from repro.tensor.io import TextEntryReader, load_npz

kind, input_path, out_dir, shard_nnz, chunk_nnz = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
)
if kind == "build_incore":
    tensor = load_npz(input_path)
else:
    reader = TextEntryReader(input_path)


def run():
    if kind == "build_incore":
        ShardStore.build(tensor, out_dir, shard_nnz=shard_nnz)
    else:
        ShardStore.build_streaming(
            reader, out_dir, shard_nnz=shard_nnz, chunk_nnz=chunk_nnz
        )


report_peak_growth(run)
"""


def _cold_peak_rss_mb(probe: str, *args: object) -> Optional[float]:
    """Peak-RSS growth an RSS probe reports from a cold subprocess (MiB).

    Returns ``None`` when the child cannot run (no interpreter, import
    failure) so the benchmark degrades to the tracemalloc columns instead
    of failing.
    """
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    try:
        completed = subprocess.run(
            [sys.executable, "-c", probe, *(str(arg) for arg in args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        if completed.returncode != 0:
            return None
        delta_kb = json.loads(completed.stdout.strip())["delta_kb"]
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired):
        return None
    return float(delta_kb) / 1024.0


def _bench_sharded_vs_incore(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    repeats: int,
    regularization: float = 0.01,
) -> Dict[str, object]:
    """Out-of-core vs. in-core mode-0 sweep: wall time and peak memory.

    Builds a shard store for the cell in a temporary directory (the build
    is outside every measurement), then runs both paths at the *same*
    block size (an eighth of nnz, so the streaming structure is exercised)
    and measures each with the RSS sampler and tracemalloc.  The in-core
    measurement includes its ``InMemorySource.build`` — the nnz-sized sorted
    copies are precisely the resident state the shard store replaces.
    """
    from ..shards import ShardStore, ShardedSweepExecutor

    block_size = max(2_048, tensor.nnz // 8)
    row: Dict[str, object] = {"shard_nnz": int(block_size)}
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as shard_dir:
        ShardStore.build(tensor, shard_dir, shard_nnz=block_size)

        def incore_run() -> Tuple[float, np.ndarray]:
            # Drop the cached sort permutation so every in-core run pays
            # (and its memory delta includes) the same context build a
            # fresh fit would.
            tensor._mode_sorted_cache.clear()
            fresh = [np.array(f, copy=True) for f in factors]
            start = perf_counter()
            source = InMemorySource.build(tensor, modes=(0,))
            update_factor_mode(
                source, fresh, core, 0, regularization, block_size=block_size
            )
            return perf_counter() - start, fresh[0]

        def sharded_run() -> Tuple[float, np.ndarray]:
            store = ShardStore.open(shard_dir)
            executor = ShardedSweepExecutor(store, block_size=block_size)
            fresh = [np.array(f, copy=True) for f in factors]
            start = perf_counter()
            executor.update_factor_mode(fresh, core, 0, regularization)
            return perf_counter() - start, fresh[0]

        best_incore = best_sharded = float("inf")
        incore_factor = sharded_factor = None
        for _ in range(max(1, repeats)):
            seconds, incore_factor = incore_run()
            best_incore = min(best_incore, seconds)
            seconds, sharded_factor = sharded_run()
            best_sharded = min(best_sharded, seconds)
        (_, _), traced_incore = run_with_traced_peak(incore_run)
        (_, _), traced_sharded = run_with_traced_peak(sharded_run)
        rank = int(np.asarray(core).shape[0])
        rss_incore = _cold_peak_rss_mb(
            _SWEEP_RSS_PROBE, "incore", shard_dir, block_size, rank
        )
        rss_sharded = _cold_peak_rss_mb(
            _SWEEP_RSS_PROBE, "sharded", shard_dir, block_size, rank
        )

    mib = 1024.0 * 1024.0
    row["seconds_incore_blocked"] = best_incore
    row["seconds_sharded"] = best_sharded
    row["sharded_equals_incore"] = bool(
        np.array_equal(incore_factor, sharded_factor)
    )
    row["peak_traced_mb_incore"] = traced_incore / mib
    row["peak_traced_mb_sharded"] = traced_sharded / mib
    if rss_incore is not None:
        row["peak_rss_mb_incore"] = rss_incore
    if rss_sharded is not None:
        row["peak_rss_mb_sharded"] = rss_sharded
    return row


def _directory_bytes(directory: str, suffix: Optional[str] = None) -> int:
    """Total file bytes under ``directory`` (optionally filtered by suffix)."""
    total = 0
    for dirpath, _, names in os.walk(directory):
        for name in names:
            if suffix is not None and not name.endswith(suffix):
                continue
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _write_wide_copy(store, directory: str) -> None:
    """Write ``store`` to ``directory`` with every index column as int64.

    This is the store the retired wide index policy wrote, frozen here as
    the baseline of the ``*_wide`` columns: the same shard, segment and
    value files, each ``.col<k>.npy`` widened to int64, and a manifest
    recording ``int64`` columns under the ``"wide"`` policy, which
    :meth:`~repro.shards.ShardStore.open` still reads.
    """
    from ..shards.store import MANIFEST_NAME

    shutil.copytree(store.directory, directory)
    for mode in range(store.order):
        for shard in store.mode_shards(mode):
            for relative in shard.column_paths:
                path = os.path.join(directory, relative)
                np.save(path, np.load(path).astype(np.int64))
    with open(store.manifest_path(), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["dtypes"]["index_columns"] = ["int64"] * store.order
    manifest["dtypes"]["index_dtype"] = "wide"
    atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)


def _bench_index_dtype(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    repeats: int,
    regularization: float = 0.01,
) -> Dict[str, object]:
    """Narrow vs. wide index columns: store size and streamed sweep time.

    Builds the cell's (narrow) shard store and an int64 copy of it
    (:func:`_write_wide_copy`), and records the on-disk index bytes per
    entry and total store size of each, plus the wall time of one
    streamed mode-0 sweep over each store at a matched block size and the
    bitwise equality of the two updated factors.  Index dtype never
    touches a float64, so ``narrow_equals_wide`` asserts the whole point
    of format v2: 3-8x fewer index bytes for free.
    """
    from ..shards import ShardStore, ShardedSweepExecutor

    block_size = max(2_048, tensor.nnz // 8)
    row: Dict[str, object] = {}
    results: Dict[str, np.ndarray] = {}
    executors: Dict[str, ShardedSweepExecutor] = {}
    best: Dict[str, float] = {"narrow": float("inf"), "wide": float("inf")}
    with tempfile.TemporaryDirectory(prefix="repro-dtype-bench-") as work:
        narrow = ShardStore.build(
            tensor, os.path.join(work, "narrow"), shard_nnz=block_size
        )
        _write_wide_copy(narrow, os.path.join(work, "wide"))
        for tag in ("narrow", "wide"):
            store_dir = os.path.join(work, tag)
            store = ShardStore.open(store_dir)
            index_bytes = sum(
                _directory_bytes(store_dir, suffix=f".col{k}.npy")
                for k in range(tensor.order)
            )
            row[f"index_bytes_per_nnz_{tag}"] = (
                index_bytes / tensor.nnz if tensor.nnz else 0.0
            )
            row[f"store_disk_bytes_{tag}"] = _directory_bytes(store_dir)
            executors[tag] = ShardedSweepExecutor(store, block_size=block_size)

        def one_sweep(tag: str) -> float:
            fresh = [np.array(f, copy=True) for f in factors]
            start = perf_counter()
            executors[tag].update_factor_mode(fresh, core, 0, regularization)
            seconds = perf_counter() - start
            results[tag] = fresh[0]
            return seconds

        # One untimed warm-up each (page cache, lazy imports), then
        # interleaved best-of timing so drift hits both paths alike.
        one_sweep("narrow")
        one_sweep("wide")
        for _ in range(max(1, repeats)):
            for tag in ("narrow", "wide"):
                best[tag] = min(best[tag], one_sweep(tag))
    row["seconds_sweep_narrow"] = best["narrow"]
    row["seconds_sweep_wide"] = best["wide"]
    row["index_bytes_ratio_wide_over_narrow"] = (
        row["index_bytes_per_nnz_wide"]
        / max(row["index_bytes_per_nnz_narrow"], 1e-12)
    )
    row["narrow_equals_wide"] = bool(
        np.array_equal(results["narrow"], results["wide"])
    )
    return row


def _parse_text_per_line(path: str) -> SparseTensor:
    """The seed per-line text parser, kept verbatim as the timing baseline.

    This is the ``load_text`` implementation the repository shipped before
    ingest was vectorized; the ``parse_speedup_vs_loop`` column measures
    the current reader against it on the same file, so the recorded
    speedup stays meaningful across refreshes.
    """
    indices = []
    values = []
    order = None
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) < 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected at least one index and a value"
                )
            if order is None:
                order = len(parts) - 1
            elif len(parts) - 1 != order:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {order} indices, "
                    f"got {len(parts) - 1}"
                )
            try:
                idx = [int(p) for p in parts[:-1]]
                val = float(parts[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            idx = [i - 1 for i in idx]
            if any(i < 0 for i in idx):
                raise DataFormatError(
                    f"{path}:{lineno}: negative index after applying base offset"
                )
            indices.append(idx)
            values.append(val)
    index_array = np.asarray(indices, dtype=np.int64)
    value_array = np.asarray(values, dtype=np.float64)
    shape = tuple(int(m) + 1 for m in index_array.max(axis=0))
    return SparseTensor(index_array, value_array, shape)


def _counts_like(tensor: SparseTensor) -> SparseTensor:
    """The cell's tensor with values quantized to small positive counts.

    Real text tensors (NELL triple counts, network-traffic counts,
    integer ratings) carry short value tokens; full-precision ``%.17g``
    output of random doubles is the pathological widest case and times the
    C ``strtod`` more than the parser.  The ingest cells therefore
    benchmark the short-token regime, which both parsers agree on bit for
    bit.
    """
    counts = np.floor(np.abs(tensor.values) * 4.0) + 1.0
    return tensor.with_values(np.minimum(counts, 99.0))


def _directories_identical(left: str, right: str) -> bool:
    """True when both trees hold the same files with identical bytes."""
    left_files = sorted(
        os.path.relpath(os.path.join(dirpath, name), left)
        for dirpath, _, names in os.walk(left)
        for name in names
    )
    right_files = sorted(
        os.path.relpath(os.path.join(dirpath, name), right)
        for dirpath, _, names in os.walk(right)
        for name in names
    )
    if left_files != right_files:
        return False
    for relative in left_files:
        with open(os.path.join(left, relative), "rb") as handle:
            left_bytes = handle.read()
        with open(os.path.join(right, relative), "rb") as handle:
            right_bytes = handle.read()
        if left_bytes != right_bytes:
            return False
    return True


def _bench_ingest(
    tensor: SparseTensor, repeats: int
) -> Dict[str, object]:
    """Streaming-ingest columns: text parse and out-of-core build.

    Writes the cell's tensor (values quantized to small counts — the
    short-token regime of real text data) as a text file, then measures: the
    vectorized parser against the frozen seed per-line loop
    (``seconds_parse_text`` / ``seconds_parse_text_loop``), the store
    build from the already-parsed tensor (``ShardStore.build``, which
    streams it through the one external-memory builder at its default
    chunk size) against the text-sourced build at an 8192-entry chunk
    size shared across the large cells (``seconds_build_*``), whether the
    tensor-sourced and text-sourced stores are byte-identical, and each
    build's peak memory — deterministic tracemalloc
    (``peak_traced_mb_build_*``) plus cold-subprocess RSS
    (``peak_rss_mb_build_*``).  The ``*_incore`` column names are kept
    from when ``ShardStore.build`` was a separate in-RAM sort; the
    text-sourced numbers cover the whole text → store pipeline, whose
    peak is bounded by the 8192-entry chunk, and the tensor-sourced ones
    by the default chunk (so they grow with nnz up to 500 000 entries).
    """
    from ..shards import ShardStore

    counts = _counts_like(tensor)
    # 8192-entry chunks for every cell large enough to sustain them (the
    # text-sourced build's peak should stay flat as nnz grows); only
    # cells under 32k entries shrink to nnz/4 so chunking is still
    # exercised.
    chunk_nnz = max(1_024, min(8_192, tensor.nnz // 4))
    row: Dict[str, object] = {"ingest_chunk_nnz": int(chunk_nnz)}
    with tempfile.TemporaryDirectory(prefix="repro-ingest-bench-") as work:
        text_path = os.path.join(work, "cell.tns")
        save_text(counts, text_path)

        best_vectorized = best_loop = float("inf")
        parsed = None
        parse_repeats = max(3, repeats)  # cheap and noise-sensitive
        gc.collect()
        for _ in range(parse_repeats):
            start = perf_counter()
            parsed = load_text(text_path)
            best_vectorized = min(best_vectorized, perf_counter() - start)
        gc.collect()
        for _ in range(parse_repeats):
            start = perf_counter()
            loop_tensor = _parse_text_per_line(text_path)
            best_loop = min(best_loop, perf_counter() - start)
        row["seconds_parse_text"] = best_vectorized
        row["seconds_parse_text_loop"] = best_loop
        row["parse_speedup_vs_loop"] = best_loop / max(best_vectorized, 1e-12)
        row["parse_equals_loop"] = bool(
            np.array_equal(parsed.indices, loop_tensor.indices)
            and np.array_equal(parsed.values, loop_tensor.values)
        )

        incore_dir = os.path.join(work, "incore")
        stream_dir = os.path.join(work, "stream")

        def incore_build():
            start = perf_counter()
            ShardStore.build(parsed, incore_dir, shard_nnz=chunk_nnz)
            return perf_counter() - start

        def streaming_build_run():
            reader = TextEntryReader(text_path)
            start = perf_counter()
            ShardStore.build_streaming(
                reader, stream_dir, shard_nnz=chunk_nnz, chunk_nnz=chunk_nnz
            )
            return perf_counter() - start

        best_incore = best_stream = float("inf")
        for _ in range(max(1, repeats)):
            best_incore = min(best_incore, incore_build())
            best_stream = min(best_stream, streaming_build_run())
        row["seconds_build_incore"] = best_incore
        row["seconds_build_streaming"] = best_stream
        row["streaming_build_equals_incore"] = _directories_identical(
            incore_dir, stream_dir
        )

        _, traced_incore = run_with_traced_peak(incore_build)
        _, traced_stream = run_with_traced_peak(streaming_build_run)
        mib = 1024.0 * 1024.0
        row["peak_traced_mb_build_incore"] = traced_incore / mib
        row["peak_traced_mb_build_streaming"] = traced_stream / mib

        npz_path = os.path.join(work, "cell.npz")
        save_npz(counts, npz_path)
        rss_incore = _cold_peak_rss_mb(
            _BUILD_RSS_PROBE, "build_incore", npz_path, incore_dir,
            chunk_nnz, chunk_nnz,
        )
        rss_stream = _cold_peak_rss_mb(
            _BUILD_RSS_PROBE, "build_streaming", text_path, stream_dir,
            chunk_nnz, chunk_nnz,
        )
        if rss_incore is not None:
            row["peak_rss_mb_build_incore"] = rss_incore
        if rss_stream is not None:
            row["peak_rss_mb_build_streaming"] = rss_stream
    return row


def _brute_force_error(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    core: np.ndarray,
    regularization: float = 0.01,
    n_rows: int = 3,
) -> float:
    """Max abs deviation of the contracted kernel from the per-row brute force.

    The brute-force reference walks core cells in pure Python, so it is only
    evaluated on a few rows, each restricted to its own entries via
    ``mode_slice`` (the reference only ever reads the row's Ω anyway).
    """
    source = InMemorySource.build(tensor, modes=(0,))
    updated = [np.array(f, copy=True) for f in factors]
    update_factor_mode(source, updated, core, 0, regularization)
    worst = 0.0
    for row in source.mode_segmentation(0)[0][:n_rows]:
        row_tensor = tensor.mode_slice(0, int(row))
        expected = brute_force_row_update(
            row_tensor, list(factors), core, 0, int(row), regularization
        )
        worst = max(worst, float(np.max(np.abs(updated[0][int(row)] - expected))))
    return worst


def run_microbench(
    grid: Optional[Sequence[Dict[str, int]]] = None,
    repeats: int = 3,
    seed: int = 0,
    check_rows: int = 3,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the kernel/backend grid and return a JSON-serialisable payload.

    ``backends`` restricts the timed execution backends (default: every
    registered one).  ``seconds_contracted`` remains the serial ``numpy``
    backend, so the kron-vs-contracted speedup column stays comparable
    across the repository's history; the extra per-backend columns and
    ``backend_selected`` (argmin of the measured per-backend times) sit
    alongside.
    """
    repeats = max(1, int(repeats))
    grid = tuple(DEFAULT_GRID if grid is None else grid)
    backend_names = list(backends) if backends is not None else available_backends()
    if "numpy" not in backend_names:
        backend_names.insert(0, "numpy")
    rows: List[Dict[str, object]] = []
    for cell_seed, cell in enumerate(grid):
        nnz, rank, order = cell["nnz"], cell["rank"], cell["order"]
        tensor, factors, core = _random_problem(nnz, rank, order, seed + cell_seed)
        seconds_kron = _time_update(
            kron_update_factor_mode, _int64_source(tensor, 0), factors, core,
            repeats,
        )
        source = InMemorySource.build(tensor, modes=(0,))
        backend_seconds = {
            name: _time_update(
                partial(update_factor_mode, backend=name),
                source, factors, core, repeats,
            )
            for name in backend_names
        }
        seconds_contracted = backend_seconds["numpy"]
        selected = min(backend_seconds, key=backend_seconds.get)
        error = _brute_force_error(tensor, factors, core, n_rows=check_rows)
        row: Dict[str, object] = {
            "nnz": int(tensor.nnz),
            "rank": int(rank),
            "order": int(order),
            "seconds_kron": seconds_kron,
            "seconds_contracted": seconds_contracted,
            "speedup": seconds_kron / max(seconds_contracted, 1e-12),
            "backend_selected": selected,
            "max_abs_error_vs_brute_force": error,
        }
        for name, seconds in backend_seconds.items():
            if name == "numpy":
                continue
            row[f"seconds_{name}"] = seconds
            row[f"speedup_{name}_vs_numpy"] = seconds_contracted / max(
                seconds, 1e-12
            )
        row.update(
            _bench_sharded_vs_incore(tensor, factors, core, repeats)
        )
        row.update(_bench_index_dtype(tensor, factors, core, repeats))
        row.update(_bench_ingest(tensor, repeats))
        rows.append(row)
    return {
        "benchmark": "kernel_microbench",
        "kernels": {"baseline": "kron", "candidate": "contracted"},
        "backends": backend_names,
        "repeats": int(repeats),
        "rows": rows,
        "max_abs_error_vs_brute_force": max(
            (row["max_abs_error_vs_brute_force"] for row in rows), default=0.0
        ),
        "environment": bench_environment(),
    }


def write_payload(payload: Dict[str, object], path: str) -> str:
    """Serialise a microbench payload to ``path`` and return the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

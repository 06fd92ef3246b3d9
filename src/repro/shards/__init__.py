"""Out-of-core sharded sweeps: mmap COO shard store + streaming executor.

P-Tucker's row-wise update only ever reads a row's own entry slice
Omega_in (Section III-B of the paper), so a sweep does not need the tensor
in RAM: mode-sorted entries can stream from disk while updates land on
disjoint row ranges.  This package provides the two pieces:

* :class:`~repro.shards.store.ShardStore` — the per-mode, mode-sorted,
  memory-mapped COO shards of a :class:`~repro.tensor.coo.SparseTensor`
  on disk (format v2: one narrow ``.npy`` file
  per index column — ``uint8``/``uint16``/``uint32``/``int64`` by mode
  dimension — plus float64 values and a JSON manifest recording column
  dtypes, per-shard entry ranges, row ranges and segment offsets; the
  layout is documented in the :mod:`~repro.shards.store` docstring and in
  ``docs/ARCHITECTURE.md``).  Blocks read back as zero-copy narrow
  :class:`~repro.columns.IndexColumns` that every kernel backend consumes
  without widening.  Retired v1 directories are refused with the
  ``ingest <input> --out <dir>`` rebuild recipe.
* :class:`~repro.shards.executor.ShardedSweepExecutor` — streams the
  shards one block at a time, runs each block through any registered
  kernel backend (``numpy`` / ``threaded`` / ``procpool``), and
  merges the per-row results — bitwise-equal to the in-core sweep, with a
  resident working set bounded by ``block_size`` instead of nnz.  Its
  :meth:`~repro.shards.executor.ShardedSweepExecutor.fit` runs the one
  P-Tucker driver (:func:`~repro.core.ptucker.run_als`) out of core.
* :mod:`~repro.shards.merge` — the one store builder, behind both
  :meth:`~repro.shards.store.ShardStore.build` (an in-RAM tensor, read
  through :class:`~repro.tensor.io.TensorEntryReader`) and
  :meth:`~repro.shards.store.ShardStore.build_streaming` (any entry
  reader of :mod:`repro.tensor.io`): chunks are spilled as per-mode
  sorted runs and k-way merged into the shard layout, with peak memory
  bounded by the chunk size and output independent of it.  A raw text
  file therefore becomes a store — and a fitted model — without the
  tensor ever existing in RAM.

Entry points elsewhere in the library: ``update_factor_mode(store, ...)``
streams a single mode update, ``PTuckerConfig(shard_dir=..., shard_nnz=...,
ingest_chunk_nnz=...)`` routes a whole
:meth:`~repro.core.ptucker.PTucker.fit` through a store,
:meth:`~repro.core.ptucker.PTucker.fit_streaming` fits straight from a
chunked reader, ``repro.tensor.io.save_shards`` / ``load_shards`` import
and export stores (``save_shards(source=...)`` builds out of core),
and the CLI exposes ``--shards DIR`` plus the streaming ``ingest``
command and ``fit --from-text``.
"""

from .store import (
    DEFAULT_SHARD_NNZ,
    FORMAT_NAME,
    FORMAT_VERSION,
    LEGACY_FORMAT_VERSION,
    MANIFEST_NAME,
    ShardInfo,
    ShardStore,
)
from .executor import ShardedSweepExecutor
from .merge import streaming_build

__all__ = [
    "DEFAULT_SHARD_NNZ",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "LEGACY_FORMAT_VERSION",
    "MANIFEST_NAME",
    "ShardInfo",
    "ShardStore",
    "ShardedSweepExecutor",
    "streaming_build",
]

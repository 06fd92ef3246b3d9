"""Rows are solved where they are reduced: fit-level bitwise equality.

The driver solves every row whose entries one block holds completely in
that block (inside the worker that reduced it, under ``procpool``) and
finishes only the rows a block boundary splits.  Fitted models must not
depend on where that happens: the backends, entry sources and the cache
variant all yield the same bytes at block sizes that split rows and at
one that does not — on rows far longer than the rank (normal equations)
and on rows mostly shorter than it (the ``k × k`` dual form).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import PTucker, PTuckerCache, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import InMemorySource, update_factor_mode
from repro.data import planted_tucker_tensor
from repro.kernels.backends import ProcpoolBackend, ThreadedBackend
from repro.kernels.backends import base as backend_base
from repro.tensor.io import TensorEntryReader

BACKENDS = ("numpy", "threaded", "procpool")


@pytest.fixture
def chunking_backends(monkeypatch):
    """Register threaded/procpool instances that really split every block.

    Fits name their backend by string, so the registered instances are
    swapped for ones with two workers and an 8-entry chunk floor: even
    the small test tensor's blocks cross threads and the process pipe.
    """
    monkeypatch.setitem(
        backend_base._REGISTRY,
        "threaded",
        ThreadedBackend(n_workers=2, min_chunk_entries=8),
    )
    monkeypatch.setitem(
        backend_base._REGISTRY,
        "procpool",
        ProcpoolBackend(n_workers=2, min_chunk_entries=8),
    )


def _model_bytes(result):
    return [np.asarray(result.core).tobytes()] + [
        np.asarray(f).tobytes() for f in result.factors
    ]


@pytest.mark.parametrize("planted", ["planted_small", "planted_short_rows"])
@pytest.mark.parametrize("regularization", [0.0, 0.1])
@pytest.mark.parametrize("block_size", [7, 97, 10**6])
def test_fits_are_bitwise_equal_across_backends_and_sources(
    request, planted, chunking_backends, tmp_path, block_size, regularization
):
    planted = request.getfixturevalue(planted)
    tensor = planted.tensor

    def config(backend, **extra):
        return PTuckerConfig(
            ranks=planted.core.shape,
            max_iterations=2,
            tolerance=0.0,
            seed=0,
            regularization=regularization,
            block_size=block_size,
            backend=backend,
            **extra,
        )

    reference = _model_bytes(PTucker(config("numpy")).fit(tensor))
    for backend in BACKENDS:
        fits = {
            "in-core": PTucker(config(backend)).fit(tensor),
            "sharded": PTucker(
                config(backend, shard_dir=str(tmp_path / f"shards-{backend}"))
            ).fit(tensor),
            "streamed": PTucker(config(backend)).fit_streaming(
                TensorEntryReader(tensor)
            ),
        }
        for source, result in fits.items():
            assert _model_bytes(result) == reference, (backend, source)

    cache_reference = _model_bytes(PTuckerCache(config("numpy")).fit(tensor))
    for backend in BACKENDS[1:]:
        cached = PTuckerCache(config(backend)).fit(tensor)
        assert _model_bytes(cached) == cache_reference, backend


def test_mode_update_holds_no_whole_mode_normal_equations():
    """Peak traced memory stays below one ``(n_rows, J, J)`` float64 array.

    Mode 0 has ~10⁴ non-empty rows at J = 16, so a whole-mode ``B`` stack
    alone would take ``n_rows·J²·8`` bytes.  With blocks of 4096 entries
    each block's stacks cover under 1 500 rows, and only the rows a block
    boundary splits outlive their block.
    """
    rank = 16
    tensor = planted_tucker_tensor(
        shape=(10_000, 40, 30), ranks=(rank,) * 3, nnz=30_000, seed=5
    ).tensor
    source = InMemorySource.build(tensor, modes=(0,))
    factors = initialize_factors(tensor.shape, (rank,) * 3, np.random.default_rng(0))
    core = initialize_core((rank,) * 3, np.random.default_rng(1))
    n_rows = source.mode_segmentation(0)[0].shape[0]
    assert n_rows > 9_000

    tracemalloc.start()
    try:
        update_factor_mode(source, factors, core, 0, 0.1, block_size=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_rows * rank * rank * 8, (peak, n_rows)

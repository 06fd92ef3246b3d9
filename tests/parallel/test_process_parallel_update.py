"""Process-parallel row updates: ``update_factor_mode`` on ``procpool``.

Row independence (Section III-B) is what lets Algorithm 3 run its rows in
parallel: every row of the updated factor depends only on its own
entries.  Worker processes therefore change nothing numerically — the
factor rows they solve are bitwise equal to the serial update's, whatever
the entry source, the worker count or the chunking, and also when a
worker dies mid-update and its chunk is re-dispatched.
"""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import InMemorySource, update_factor_mode
from repro.fabric import TaskSupervisor
from repro.fabric.worker import INJECT_KILL_ENV
from repro.kernels.backends import ProcpoolBackend
from repro.kernels.backends import base as backend_base
from repro.metrics import Counters
from repro.resilience import BackoffPolicy
from repro.shards import ShardStore

FAST_BACKOFF = BackoffPolicy(base=0.01, cap=0.1, jitter="none")


def _start(tensor, rank):
    ranks = (rank,) * tensor.order
    factors = initialize_factors(tensor.shape, ranks, np.random.default_rng(0))
    core = initialize_core(ranks, np.random.default_rng(1))
    return factors, core


def _serial(tensor, factors, core, mode):
    reference = [f.copy() for f in factors]
    update_factor_mode(tensor, reference, core, mode, regularization=0.01)
    return reference[mode]


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_parallel_update_matches_serial(planted_4way, mode):
    """Every mode of an order-4 tensor: worker-solved rows equal serial."""
    tensor = planted_4way.tensor
    factors, core = _start(tensor, 2)
    reference = _serial(tensor, factors, core, mode)
    procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)
    update_factor_mode(
        tensor, factors, core, mode, regularization=0.01, backend=procpool
    )
    assert factors[mode].tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "n_workers, min_chunk_entries", [(2, 1), (3, 8), (2, 400)]
)
def test_parallel_update_is_independent_of_chunking(
    planted_small, n_workers, min_chunk_entries
):
    """One chunk per row or a few large ones: the same bytes either way."""
    tensor = planted_small.tensor
    factors, core = _start(tensor, 3)
    reference = _serial(tensor, factors, core, 1)
    procpool = ProcpoolBackend(
        n_workers=n_workers, min_chunk_entries=min_chunk_entries
    )
    update_factor_mode(
        tensor, factors, core, 1, regularization=0.01, backend=procpool
    )
    assert factors[1].tobytes() == reference.tobytes()


def test_parallel_update_reuses_prebuilt_context(planted_small):
    """A caller-owned sorted source is used as-is across repeated sweeps."""
    tensor = planted_small.tensor
    factors, core = _start(tensor, 3)
    reference = _serial(tensor, factors, core, 1)
    source = InMemorySource.build(tensor, modes=(1,))
    procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)
    # Two sweeps through the same prebuilt source (as an iterating driver
    # would issue) both produce the serial result.
    for _ in range(2):
        sweep = [f.copy() for f in factors]
        update_factor_mode(
            source, sweep, core, 1, regularization=0.01, backend=procpool
        )
        assert sweep[1].tobytes() == reference.tobytes()


def test_parallel_update_streams_from_store(planted_small, tmp_path):
    """Workers solve the rows of blocks streamed straight from a shard store."""
    tensor = planted_small.tensor
    factors, core = _start(tensor, 3)
    reference = _serial(tensor, factors, core, 0)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=90)
    procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)
    update_factor_mode(
        store, factors, core, 0, regularization=0.01, backend=procpool
    )
    assert factors[0].tobytes() == reference.tobytes()


def test_worker_death_on_first_call_recovers(
    planted_small, tmp_path, monkeypatch
):
    """A worker dying abruptly on its first task is replaced, its chunk is
    re-dispatched, and the recovered update equals the serial one."""
    tensor = planted_small.tensor
    factors, core = _start(tensor, 3)
    reference = _serial(tensor, factors, core, 0)

    sentinel = tmp_path / "died-once"
    monkeypatch.setenv(INJECT_KILL_ENV, str(sentinel))
    counters = Counters()
    supervisor = TaskSupervisor(
        2, backoff=FAST_BACKOFF, counters=counters, name="death"
    )
    procpool = ProcpoolBackend(
        n_workers=2, min_chunk_entries=8, supervisor=supervisor
    )
    try:
        update_factor_mode(
            tensor, factors, core, 0, regularization=0.01, backend=procpool
        )
    finally:
        supervisor.shutdown()
    assert sentinel.exists(), "the injected worker death never fired"
    assert counters.get("fabric.workers_died") >= 1
    assert factors[0].tobytes() == reference.tobytes()


def test_fit_survives_worker_death_bitwise(
    planted_small, tmp_path, monkeypatch
):
    """A whole ``backend="procpool"`` fit with a worker SIGKILLed mid-sweep
    writes the same model bytes as the serial numpy fit."""
    tensor = planted_small.tensor

    def fit(backend):
        config = PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, tolerance=0.0, seed=0,
            block_size=97, backend=backend,
        )
        return PTucker(config).fit(tensor)

    reference = fit("numpy")
    sentinel = tmp_path / "kill"
    monkeypatch.setenv(INJECT_KILL_ENV, str(sentinel))
    supervisor = TaskSupervisor(2, backoff=FAST_BACKOFF, name="fit-death")
    monkeypatch.setitem(
        backend_base._REGISTRY,
        "procpool",
        ProcpoolBackend(n_workers=2, min_chunk_entries=8, supervisor=supervisor),
    )
    try:
        result = fit("procpool")
    finally:
        supervisor.shutdown()
    assert sentinel.exists(), "the injected worker death never fired"
    assert result.core.tobytes() == reference.core.tobytes()
    for ours, theirs in zip(result.factors, reference.factors):
        assert ours.tobytes() == theirs.tobytes()

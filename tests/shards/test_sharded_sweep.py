"""Equivalence suite: streamed sharded sweeps vs. the in-core solver.

The shard store's contract is *bitwise* equality: every streamed block
carries the same data at the same boundaries as the in-core block loop, so
the updated factors must be ``np.array_equal`` to the in-core ones — across
orders 3–5, ragged ranks, every mode, multiple backends, and shard sizes
smaller than a single row segment.
"""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import update_factor_mode
from repro.data import random_sparse_tensor
from repro.exceptions import ShapeError
from repro.shards import ShardedSweepExecutor, ShardStore

#: (shape, ranks) cells covering orders 3-5 with ragged ranks.
CASES = [
    ((19, 14, 11), (3, 4, 2)),
    ((11, 9, 8, 7), (2, 3, 2, 2)),
    ((7, 6, 5, 5, 4), (2, 2, 3, 2, 2)),
]


def _problem(shape, ranks, nnz, seed=0):
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=seed)
    rng = np.random.default_rng(seed + 1)
    factors = initialize_factors(shape, ranks, rng)
    core = initialize_core(ranks, np.random.default_rng(seed + 2))
    return tensor, factors, core


@pytest.mark.parametrize("shape,ranks", CASES)
def test_streamed_update_bitwise_equal_per_mode(shape, ranks, tmp_path):
    tensor, factors, core = _problem(shape, ranks, nnz=700)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=64)
    streamed = [f.copy() for f in factors]
    for mode in range(tensor.order):
        update_factor_mode(tensor, factors, core, mode, 0.01)
        update_factor_mode(store, streamed, core, mode, 0.01)
        np.testing.assert_array_equal(streamed[mode], factors[mode])


@pytest.mark.parametrize("backend", ["numpy", "threaded"])
def test_streamed_update_bitwise_equal_across_backends(backend, tmp_path):
    tensor, factors, core = _problem((21, 13, 9), (3, 3, 3), nnz=900)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=128)
    streamed = [f.copy() for f in factors]
    update_factor_mode(tensor, factors, core, 0, 0.01, backend=backend)
    update_factor_mode(store, streamed, core, 0, 0.01, backend=backend)
    np.testing.assert_array_equal(streamed[0], factors[0])


def test_shard_smaller_than_one_segment(tmp_path):
    """A row whose segment exceeds shard_nnz spans shards; results agree."""
    rng = np.random.default_rng(3)
    # Row 0 of mode 0 owns 300 of 400 entries; shards hold only 48.
    heavy = np.column_stack(
        (
            np.zeros(300, dtype=np.int64),
            rng.integers(0, 15, size=300),
            rng.integers(0, 13, size=300),
        )
    )
    light = np.column_stack(
        (
            rng.integers(1, 12, size=100),
            rng.integers(0, 15, size=100),
            rng.integers(0, 13, size=100),
        )
    )
    from repro.tensor import SparseTensor

    tensor = SparseTensor(
        np.vstack((heavy, light)), rng.uniform(0, 1, size=400), (12, 15, 13)
    )
    factors = initialize_factors(tensor.shape, (3, 3, 3), np.random.default_rng(4))
    core = initialize_core((3, 3, 3), np.random.default_rng(5))
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=48)
    assert any(s.continues_segment for s in store.mode_shards(0))

    streamed = [f.copy() for f in factors]
    for mode in range(3):
        update_factor_mode(tensor, factors, core, mode, 0.01)
        update_factor_mode(store, streamed, core, mode, 0.01)
        np.testing.assert_array_equal(streamed[mode], factors[mode])


@pytest.mark.parametrize("shape,ranks", CASES)
def test_full_fit_bitwise_equal_on_canonical_order(shape, ranks, tmp_path):
    """Sharded fit == in-core fit, including the error trace, when the
    tensor's entry order is the store's canonical (mode-0 sorted) one."""
    tensor, _, _ = _problem(shape, ranks, nnz=600, seed=7)
    canonical = ShardStore.build(tensor, tmp_path / "a", shard_nnz=97).to_tensor()
    store = ShardStore.build(canonical, tmp_path / "b", shard_nnz=97)
    config = PTuckerConfig(ranks=ranks, max_iterations=3, seed=0)

    incore = PTucker(config).fit(canonical)
    streamed = ShardedSweepExecutor(store).fit(config)

    np.testing.assert_array_equal(streamed.core, incore.core)
    for mine, reference in zip(streamed.factors, incore.factors):
        np.testing.assert_array_equal(mine, reference)
    assert streamed.trace.errors == incore.trace.errors


def test_full_fit_bitwise_equal_on_unsorted_tensor(tmp_path):
    """With convergence disabled, factor updates match bit for bit even when
    the tensor's entry order differs from the store's canonical order (only
    the error reduction order differs, and it decides nothing)."""
    tensor, _, _ = _problem((16, 12, 10, 8), (2, 2, 3, 2), nnz=800, seed=11)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=111)
    config = PTuckerConfig(
        ranks=(2, 2, 3, 2), max_iterations=3, seed=0, tolerance=0.0
    )
    incore = PTucker(config).fit(tensor)
    streamed = ShardedSweepExecutor(store).fit(config)
    np.testing.assert_array_equal(streamed.core, incore.core)
    for mine, reference in zip(streamed.factors, incore.factors):
        np.testing.assert_array_equal(mine, reference)


def test_small_block_size_still_bitwise_equal_to_itself(tmp_path):
    """Streaming at a different block size changes summation order, so it is
    compared against the in-core loop at that same block size."""
    tensor, factors, core = _problem((18, 14, 10), (3, 3, 3), nnz=650, seed=2)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=80)
    streamed = [f.copy() for f in factors]
    update_factor_mode(tensor, factors, core, 0, 0.01, block_size=50)
    update_factor_mode(store, streamed, core, 0, 0.01, block_size=50)
    np.testing.assert_array_equal(streamed[0], factors[0])


def test_config_shard_dir_routes_fit_through_store(tmp_path):
    tensor, _, _ = _problem((15, 13, 11), (3, 3, 3), nnz=500, seed=9)
    shard_dir = str(tmp_path / "store")
    config = PTuckerConfig(
        ranks=(3, 3, 3),
        max_iterations=3,
        seed=0,
        tolerance=0.0,
        shard_dir=shard_dir,
        shard_nnz=70,
    )
    via_config = PTucker(config).fit(tensor)
    incore = PTucker(config.with_updates(shard_dir=None)).fit(tensor)
    np.testing.assert_array_equal(via_config.core, incore.core)
    for mine, reference in zip(via_config.factors, incore.factors):
        np.testing.assert_array_equal(mine, reference)
    # The store persisted and is reused on a second fit.
    store = ShardStore.open(shard_dir)
    assert store.nnz == tensor.nnz
    again = PTucker(config).fit(tensor)
    np.testing.assert_array_equal(again.core, via_config.core)


@pytest.mark.parametrize("solver", [PTuckerCache, PTuckerApprox])
def test_shard_dir_rejected_for_solver_variants(tmp_path, solver):
    config = PTuckerConfig(
        ranks=(2, 2, 2), max_iterations=1, shard_dir=str(tmp_path / "s")
    )
    tensor, _, _ = _problem((8, 7, 6), (2, 2, 2), nnz=100)
    with pytest.raises(
        ShapeError,
        match="shard_dir streaming supports the base P-Tucker solver only",
    ):
        solver(config).fit(tensor)
    # Refused before the shard build: no store is left behind.
    assert not (tmp_path / "s").exists()


def test_source_conflicts_are_rejected(tmp_path):
    tensor, factors, core = _problem((8, 7, 6), (2, 2, 2), nnz=100)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=30)
    with pytest.raises(ValueError):
        update_factor_mode(
            store,
            factors,
            core,
            0,
            0.01,
            delta_provider=lambda positions, mode: None,
        )
    with pytest.raises(ValueError):
        update_factor_mode(None, factors, core, 0, 0.01)


def test_executor_sweep_updates_every_mode(tmp_path):
    tensor, factors, core = _problem((14, 12, 9), (3, 3, 3), nnz=400, seed=8)
    store = ShardStore.build(tensor, tmp_path / "s", shard_nnz=55)
    reference = [f.copy() for f in factors]
    for mode in range(3):
        update_factor_mode(tensor, reference, core, mode, 0.01)
    ShardedSweepExecutor(store).sweep(factors, core, 0.01)
    for mode in range(3):
        np.testing.assert_array_equal(factors[mode], reference[mode])

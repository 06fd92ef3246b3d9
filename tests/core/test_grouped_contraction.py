"""The grouped δ path: one GEMM per precontracted table row.

A fit plan whose precontracted table has few rows (the year and hour
modes of a ratings shape, each tabling the other short mode) sorts every
tile by table row and meets each group's rows of the last batched mode
with that table row in one GEMM.  Each entry's δ must still depend on
that entry alone, so these tests compare bitwise across groupings,
tiles, threaded chunks, in-core and sharded sweeps and full fits, and
against the paper-literal row update within a stated tolerance.
"""

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig
from repro.core.row_update import (
    brute_force_row_update,
    build_mode_context,
    update_factor_mode,
)
from repro.kernels import contraction as contraction_module
from repro.kernels.backends import NumpyBackend, ThreadedBackend
from repro.kernels.backends.threaded import chunk_boundaries
from repro.shards import ShardStore
from repro.tensor import SparseTensor

#: (users, movies, years, hours): modes 2 and 3 table the other short mode.
SHAPE, RANKS = (3_000, 2_000, 12, 24), (10, 10, 5, 5)
GROUPED_MODES = (2, 3)
NNZ = 9_000


def ratings_like(nnz=NNZ, seed=0, shape=SHAPE, ranks=RANKS):
    rng = np.random.default_rng(seed)
    indices = np.stack([rng.integers(0, d, nnz) for d in shape], axis=1)
    tensor = SparseTensor(indices, rng.uniform(0.5, 5.0, nnz), shape)
    factors = [rng.uniform(-1.0, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    return tensor, factors, core


def table_row(plan, indices):
    """Each entry's row in the plan's precontracted table."""
    linear = np.zeros(indices.shape[0], dtype=np.int64)
    for axis, k in enumerate(plan.pre):
        linear = linear * plan.pre_dims[axis] + indices[:, k]
    return linear


class TestSelection:
    @pytest.mark.parametrize("mode", range(4))
    def test_short_tables_group_and_288_row_tables_gather(self, mode):
        _, factors, core = ratings_like()
        plan = contraction_module._ContractionPlan(factors, core, mode, NNZ)
        assert plan.grouped == (mode in GROUPED_MODES)
        table_rows = plan.flat.shape[0]
        tile = contraction_module.TILE_BYTES // (8 * plan.width)
        if plan.grouped:
            # One 24- or 12-row table; a row is (J_last, rest) and the
            # widest per-entry intermediate is 50 values, not 500.
            assert table_rows in (12, 24) and plan.width == 50
            assert plan.flat.shape == (table_rows, 10, 50)
            assert tile >= contraction_module.MIN_MEAN_GROUP * table_rows
        else:
            assert table_rows == 288

    def test_serving_and_value_plans_keep_the_gather(self):
        _, factors, core = ratings_like()
        for keep, invariant in [(2, True), (None, False), (None, True)]:
            plan = contraction_module._ContractionPlan(
                factors, core, keep, NNZ, batch_invariant=invariant
            )
            assert plan.pre and not plan.grouped

    def test_plan_rebuilt_from_its_order_groups_alike(self):
        """procpool workers rebuild the plan from ``pre`` and the sweep's
        expected entries."""
        _, factors, core = ratings_like()
        for mode in GROUPED_MODES:
            plan = contraction_module._ContractionPlan(factors, core, mode, NNZ)
            rebuilt = contraction_module._ContractionPlan(
                factors, core, mode, NNZ, pre=plan.pre
            )
            assert rebuilt.grouped and rebuilt.pre == plan.pre
            np.testing.assert_array_equal(rebuilt.flat, plan.flat)

    @pytest.mark.parametrize("entries, grouped", [(800, False), (20_000, True)])
    def test_a_tile_holds_at_most_the_sweep(self, entries, grouped):
        """Figure 8's order-4 shape: a 50-row table; 800 entries make
        groups of 16 on average, too short to pay for a GEMM each."""
        rng = np.random.default_rng(0)
        factors = [rng.uniform(size=(50, 3)) for _ in range(4)]
        core = rng.uniform(size=(3,) * 4)
        plan = contraction_module._ContractionPlan(
            factors, core, 0, entries, pre=[1]
        )
        assert plan.flat.shape[0] == 50
        assert plan.grouped == grouped


@pytest.mark.parametrize("mode", GROUPED_MODES)
class TestRowIndependence:
    def test_lone_entry_equals_the_same_entry_in_a_large_group(self, mode):
        """Groups of one (a padded two-row GEMM), two, a few and hundreds:
        every entry evaluated alone gives the bits it gets in the tile."""
        tensor, factors, core = ratings_like(seed=1)
        contract = contraction_module.make_delta_contractor(
            factors, core, mode, NNZ
        )
        table_mode = 5 - mode  # the other short mode: the table's index
        indices = tensor.indices[:700].copy()
        indices[:, table_mode] = 0  # one large group ...
        indices[:4, table_mode] = [1, 2, 3, 4]  # ... and four singletons
        indices[4:6, table_mode] = 5  # a pair
        indices[6:9, table_mode] = 6
        rng = np.random.default_rng(2)
        indices = indices[rng.permutation(indices.shape[0])]
        whole = contract(indices)
        alone = np.concatenate([contract(indices[i : i + 1]) for i in range(700)])
        np.testing.assert_array_equal(alone, whole)
        # Any other grouping of the same entries: reversed, and halves.
        np.testing.assert_array_equal(contract(indices[::-1]), whole[::-1])
        np.testing.assert_array_equal(contract(indices[350:]), whole[350:])

    def test_tiles_of_any_length_and_offset(self, mode, monkeypatch):
        """Shrunk tiles cut groups everywhere; the bits do not move."""
        tensor, factors, core = ratings_like(seed=3)
        contract = contraction_module.make_delta_contractor(
            factors, core, mode, NNZ
        )
        whole = contract(tensor.indices)
        for tile_entries in (2, 7, 61, 997):
            monkeypatch.setattr(
                contraction_module, "TILE_BYTES", 8 * 50 * tile_entries
            )
            np.testing.assert_array_equal(contract(tensor.indices), whole)
            np.testing.assert_array_equal(
                contract(tensor.indices[13:]), whole[13:]
            )

    def test_given_rows_equal_gathered_rows(self, mode):
        """procpool's ``rows=`` path: gathered rows arrive with the block."""
        tensor, factors, core = ratings_like(seed=4)
        contract = contraction_module.make_delta_contractor(
            factors, core, mode, NNZ
        )
        indices = tensor.indices
        rows = [
            None if k in contract.precontracted else factors[k][indices[:, k]]
            for k in range(4)
        ]
        np.testing.assert_array_equal(
            contract(indices, rows), contract(indices)
        )

    def test_gather_past_the_table_raises(self, mode):
        _, factors, core = ratings_like()
        contract = contraction_module.make_delta_contractor(
            factors, core, mode, NNZ
        )
        indices = np.zeros((5, 4), dtype=np.int64)
        indices[-1, 5 - mode] = SHAPE[5 - mode]
        with pytest.raises(IndexError):
            contract(indices)


@pytest.mark.parametrize("n_workers", [2, 4])
@pytest.mark.parametrize("mode", GROUPED_MODES)
def test_threaded_chunks_split_groups(mode, n_workers):
    """Chunks cut at row boundaries of the solved mode, so every table
    row's group is split across chunks; rows still match the serial solve."""
    tensor, factors, core = ratings_like(seed=5)
    ctx = build_mode_context(tensor, mode)
    plan = contraction_module._ContractionPlan(factors, core, mode, NNZ)
    assert plan.grouped
    starts = ctx.row_starts
    edges = chunk_boundaries(starts, NNZ, n_workers)
    assert edges.shape[0] - 1 == n_workers
    bounds = list(starts[edges[1:-1]]) + [NNZ]
    pieces = np.split(table_row(plan, ctx.sorted_indices), bounds[:-1])
    assert set(pieces[0].tolist()) & set(pieces[1].tolist())

    n_segments = starts.shape[0]
    results = [
        backend.make_row_solver(factors, core, mode, 0.01, NNZ)(
            ctx.sorted_indices, ctx.sorted_values, starts, 1, n_segments - 1
        )
        for backend in (
            NumpyBackend(),
            ThreadedBackend(n_workers=n_workers, min_chunk_entries=8),
        )
    ]
    for ours, theirs in zip(results[1], results[0]):
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("mode", GROUPED_MODES)
@pytest.mark.parametrize("block_size", [113, 4_096])
def test_sharded_sweep_equals_in_core(mode, block_size, tmp_path, bitwise):
    tensor, factors, core = ratings_like(seed=6)
    store = ShardStore.build(tensor, str(tmp_path / "s"), shard_nnz=997)
    in_core = [f.copy() for f in factors]
    sharded = [f.copy() for f in factors]
    update_factor_mode(tensor, in_core, core, mode, 0.01, block_size=block_size)
    update_factor_mode(store, sharded, core, mode, 0.01, block_size=block_size)
    bitwise(sharded[mode], in_core[mode], f"mode {mode}")


def test_sharded_fit_equals_in_core_fit(tmp_path, bitwise):
    tensor, _, _ = ratings_like(seed=7)
    config = PTuckerConfig(ranks=RANKS, max_iterations=2, seed=0)
    in_core = PTucker(config).fit(tensor)
    sharded = PTucker(
        config.with_updates(shard_dir=str(tmp_path / "store"))
    ).fit(tensor)
    bitwise(sharded.core, in_core.core, "core")
    for mode, (a, b) in enumerate(zip(sharded.factors, in_core.factors)):
        bitwise(a, b, f"factor {mode}")


@pytest.mark.parametrize("mode", GROUPED_MODES)
def test_matches_the_paper_literal_row_update(mode):
    """Relative difference ≤ 1e-9 from Algorithm 3's per-entry loop.

    Ranks are smaller than the ratings shape's so the per-entry reference
    stays fast; the plan is still grouped (a 12- or 24-row table).
    """
    ranks = (4, 4, 3, 3)
    tensor, factors, core = ratings_like(nnz=3_000, seed=8, ranks=ranks)
    plan = contraction_module._ContractionPlan(factors, core, mode, 3_000)
    assert plan.grouped
    updated = [f.copy() for f in factors]
    update_factor_mode(tensor, updated, core, mode, 0.1)
    for row in (0, SHAPE[mode] // 2, SHAPE[mode] - 1):
        expected = brute_force_row_update(
            tensor.mode_slice(mode, row), factors, core, mode, row, 0.1
        )
        np.testing.assert_allclose(
            updated[mode][row], expected, rtol=1e-9, atol=1e-12
        )

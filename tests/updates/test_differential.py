"""Differential suite: incremental results vs from-scratch ground truth.

Every assertion here is **bitwise**: the union view must read back what a
fresh build of the union tensor stores, and a targeted re-solve must land
exactly the floats a full from-scratch row solve over the union lands —
orders 3 through 5, ragged ranks, rows shorter than the rank, every
registered kernel backend, rows with zero prior entries, and coordinates
a delta observes a second time.
"""

import numpy as np
import pytest

from updatehelpers import random_entries, write_delta
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import update_factor_mode
from repro.kernels.backends import available_backends
from repro.shards import ShardStore
from repro.tensor import SparseTensor
from repro.updates import DeltaLog, UnionEntrySource, compact, solve_touched_rows

BLOCK_SIZE = 113  # deliberately unaligned so segments straddle blocks

CASES = [
    pytest.param((25, 18, 14), (3, 2, 4), 500, 60, id="order3-ragged"),
    pytest.param((14, 12, 10, 8), (2, 3, 2, 2), 500, 60, id="order4-ragged"),
    pytest.param((9, 8, 7, 6, 5), (2, 2, 3, 2, 2), 400, 50, id="order5-ragged"),
    # Most rows hold fewer entries than the rank: the k × k dual form.
    pytest.param((200, 150, 120), (4, 5, 3), 260, 40, id="order3-short-rows"),
    # A ratings shape: modes 2 and 3 take the grouped δ path (one GEMM per
    # row of their 24- or 12-row table), and blocks cut its groups.
    pytest.param((3000, 2000, 12, 24), (10, 10, 5, 5), 3000, 300, id="ratings-grouped"),
]


def _union_tensor(base, delta_idx, delta_vals):
    """The union tensor: base entries in build order, then the delta."""
    return SparseTensor(
        np.concatenate([base.indices, delta_idx]),
        np.concatenate([base.values, delta_vals]),
        shape=base.shape,
    )


def _model(shape, ranks, seed=0):
    rng = np.random.default_rng(seed)
    return (
        initialize_factors(shape, ranks, rng),
        initialize_core(ranks, rng),
    )


@pytest.mark.parametrize("shape, ranks, base_nnz, delta_nnz", CASES)
class TestUnionView:
    def test_blocks_and_segmentation_match_fresh_union_build(
        self, shape, ranks, base_nnz, delta_nnz, update_case, tmp_path, bitwise
    ):
        """Every mode block and segmentation array of the lazy union is
        byte-for-byte what a fresh build of the union tensor stores."""
        store, base, delta_idx, delta_vals = update_case(
            shape=shape, base_nnz=base_nnz, delta_nnz=delta_nnz, seed=21
        )
        union = UnionEntrySource(store)
        fresh = ShardStore.build(
            _union_tensor(base, delta_idx, delta_vals),
            str(tmp_path / "fresh-union"),
            shard_nnz=store.shard_nnz,
        )
        assert union.nnz == fresh.nnz
        for mode in range(len(shape)):
            mine = union.mode_segmentation(mode)
            theirs = fresh.mode_segmentation(mode)
            for name, a, b in zip(("ids", "starts", "counts"), mine, theirs):
                bitwise(a, b, f"mode {mode} {name}")
            for start in range(0, union.nnz, BLOCK_SIZE):
                stop = min(start + BLOCK_SIZE, union.nnz)
                cols_a, vals_a = union.read_mode_block(mode, start, stop)
                cols_b, vals_b = fresh.read_mode_block(mode, start, stop)
                for k in range(len(shape)):
                    bitwise(
                        cols_a.column(k),
                        cols_b.column(k),
                        f"mode {mode} block {start} column {k}",
                    )
                bitwise(vals_a, vals_b, f"mode {mode} block {start} values")

    @pytest.mark.parametrize("backend", available_backends())
    def test_targeted_resolve_bitwise_matches_full_sweep(
        self, shape, ranks, base_nnz, delta_nnz, backend, update_case,
        tmp_path, bitwise,
    ):
        """Re-solving only the touched rows lands exactly the floats a full
        from-scratch sweep over the union tensor lands for those rows."""
        store, base, delta_idx, delta_vals = update_case(
            shape=shape, base_nnz=base_nnz, delta_nnz=delta_nnz, seed=22
        )
        union = UnionEntrySource(store)
        fresh = ShardStore.build(
            _union_tensor(base, delta_idx, delta_vals),
            str(tmp_path / "fresh-union"),
            shard_nnz=store.shard_nnz,
        )
        factors, core = _model(shape, ranks, seed=3)
        for mode in range(len(shape)):
            reference = [f.copy() for f in factors]
            update_factor_mode(
                fresh,
                reference,
                core,
                mode,
                0.1,
                backend=backend,
                block_size=BLOCK_SIZE,
            )
            touched = union.touched_rows(mode)
            solved_rows, new_rows = solve_touched_rows(
                union,
                factors,
                core,
                mode,
                touched,
                regularization=0.1,
                block_size=BLOCK_SIZE,
                backend=backend,
            )
            bitwise(solved_rows, touched, f"mode {mode} solved rows")
            bitwise(
                new_rows,
                reference[mode][solved_rows],
                f"mode {mode} re-solved rows ({backend})",
            )


class TestFreshRows:
    @pytest.mark.parametrize("backend", available_backends())
    def test_rows_with_zero_prior_entries_solve_identically(
        self, backend, update_case, tmp_path, bitwise
    ):
        """Delta entries landing in factor rows the base tensor never
        touched re-solve to exactly the full sweep's values for them."""
        shape, ranks = (30, 24, 18), (3, 3, 2)
        store, base, delta_idx, delta_vals = update_case(
            shape=shape, base_nnz=500, delta_nnz=60, seed=23, fresh_rows=4
        )
        union = UnionEntrySource(store)
        fresh = ShardStore.build(
            _union_tensor(base, delta_idx, delta_vals),
            str(tmp_path / "fresh-union"),
            shard_nnz=store.shard_nnz,
        )
        factors, core = _model(shape, ranks, seed=4)
        for mode in range(3):
            # The reserved rows really are delta-only.
            fresh_mode_rows = np.setdiff1d(
                np.unique(delta_idx[:, mode]), np.unique(base.indices[:, mode])
            )
            assert fresh_mode_rows.size > 0
            reference = [f.copy() for f in factors]
            update_factor_mode(
                fresh, reference, core, mode, 0.05,
                backend=backend, block_size=BLOCK_SIZE,
            )
            solved_rows, new_rows = solve_touched_rows(
                union, factors, core, mode, union.touched_rows(mode),
                regularization=0.05, block_size=BLOCK_SIZE, backend=backend,
            )
            assert np.isin(fresh_mode_rows, solved_rows).all()
            bitwise(new_rows, reference[mode][solved_rows], f"mode {mode}")

    def test_rows_with_no_union_entries_drop_out(self, update_case):
        """Asking for rows that have no entries anywhere returns them
        unsolved (the full sweep never lists them either)."""
        shape = (30, 24, 18)
        store, base, delta_idx, _ = update_case(
            shape=shape, base_nnz=400, delta_nnz=40, seed=24
        )
        union = UnionEntrySource(store)
        factors, core = _model(shape, (3, 3, 2), seed=5)
        # Rows guaranteed empty: the update_case entries land in [0, 30),
        # so widen the model's mode 0 and ask for the rows past the data.
        factors[0] = np.vstack([factors[0], np.ones((5, 3))])
        union.shape = (35,) + shape[1:]
        untouched = np.arange(30, 35, dtype=np.int64)
        asked = np.concatenate([union.touched_rows(0), untouched])
        solved_rows, _ = solve_touched_rows(
            union, factors, core, 0, asked, block_size=BLOCK_SIZE
        )
        assert not np.isin(untouched, solved_rows).any()
        assert np.array_equal(solved_rows, union.touched_rows(0))


class TestReobservedCoordinates:
    """A delta entry at a coordinate the base already holds is a second
    observation, not a replacement: reads, compaction and re-solves all
    count both."""

    def test_union_compaction_and_resolve_keep_both_observations(
        self, tmp_path, bitwise
    ):
        shape, ranks = (20, 16, 12), (3, 2, 3)
        rng = np.random.default_rng(25)
        base_idx, base_vals = random_entries(rng, shape, 300)
        base_idx = np.unique(base_idx, axis=0)
        base = SparseTensor(base_idx, base_vals[: base_idx.shape[0]], shape)
        store = ShardStore.build(base, str(tmp_path / "store"), shard_nnz=97)
        repeat = rng.choice(base.nnz, 12, replace=False)
        delta_idx, delta_vals = base.indices[repeat], rng.normal(size=12) + 5.0
        DeltaLog.open(store.directory).append(
            write_delta(tmp_path / "d.rcoo", delta_idx, delta_vals, shape), shape
        )
        appended = _union_tensor(base, delta_idx, delta_vals)

        union = UnionEntrySource(store)
        assert union.nnz == base.nnz + 12
        for mode in range(3):
            cols, vals = union.read_mode_block(mode, 0, union.nnz)
            entries = np.column_stack([cols.column(k) for k in range(3)])
            for coordinate, old, new in zip(
                delta_idx, base.values[repeat], delta_vals
            ):
                here = (entries == coordinate).all(axis=1)
                # Base observation first, then the delta's, in one row.
                assert vals[here].tolist() == [old, new]

        factors, core = _model(shape, ranks, seed=6)
        replaced_values = base.values.copy()
        replaced_values[repeat] = delta_vals
        replaced = SparseTensor(base.indices, replaced_values, shape)
        for mode in range(3):
            solved_rows, new_rows = solve_touched_rows(
                union, factors, core, mode, union.touched_rows(mode),
                regularization=0.1, block_size=BLOCK_SIZE,
            )
            both = [f.copy() for f in factors]
            update_factor_mode(
                appended, both, core, mode, 0.1, block_size=BLOCK_SIZE
            )
            bitwise(new_rows, both[mode][solved_rows], f"mode {mode}")
            last_only = [f.copy() for f in factors]
            update_factor_mode(
                replaced, last_only, core, mode, 0.1, block_size=BLOCK_SIZE
            )
            assert not np.allclose(new_rows, last_only[mode][solved_rows])

        compacted = compact(store)
        assert compacted.nnz == base.nnz + 12
        folded = compacted.to_tensor()
        for coordinate, old, new in zip(delta_idx, base.values[repeat], delta_vals):
            here = (folded.indices == coordinate).all(axis=1)
            assert folded.values[here].tolist() == [old, new]

"""Unit and regression tests for the contraction-ordered kernel subsystem."""

import numpy as np
import pytest

from repro.core.row_update import (
    brute_force_row_update,
    build_mode_context,
    update_factor_mode,
)
from repro.kernels import (
    block_segment_starts,
    contract_delta_block,
    contract_value_block,
    normal_equations_sorted,
    segment_sum,
    solve_rows,
)
from repro.kernels import contraction as contraction_module
from repro.kernels.microbench import (
    accumulate_normal_equations,
    compute_delta_block,
    core_unfolding,
    kron_update_factor_mode,
)
from repro.tensor import SparseTensor, factor_rows_product


def random_problem(rng, shape, ranks, nnz):
    """A random sparse tensor with matching random factors and core."""
    indices = np.stack([rng.integers(0, d, size=nnz) for d in shape], axis=1)
    tensor = SparseTensor(
        indices, rng.uniform(0.5, 1.5, size=nnz), shape
    ).deduplicate()
    factors = [rng.uniform(0.1, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    return tensor, factors, core


# Ragged ranks across orders 3-5 exercise every contraction schedule.
PROBLEMS = [
    ((8, 7, 6), (3, 2, 4), 60),
    ((6, 5, 7, 4), (2, 3, 2, 4), 80),
    ((5, 4, 6, 3, 4), (2, 3, 2, 4, 2), 90),
]


class TestContraction:
    @pytest.mark.parametrize("shape,ranks,nnz", PROBLEMS)
    def test_delta_matches_seed_kernel_every_mode(self, rng, shape, ranks, nnz):
        """The contraction gives the same δ as the Kronecker kernel."""
        tensor, factors, core = random_problem(rng, shape, ranks, nnz)
        for mode in range(tensor.order):
            expected = compute_delta_block(
                tensor.indices, factors, core_unfolding(core, mode), mode
            )
            actual = contract_delta_block(tensor.indices, factors, core, mode)
            np.testing.assert_allclose(actual, expected, atol=1e-12)

    @pytest.mark.parametrize("shape,ranks,nnz", PROBLEMS)
    def test_value_block_matches_kronecker_weights(self, rng, shape, ranks, nnz):
        """Full contraction equals the (nnz, |G|) weight matrix route."""
        tensor, factors, core = random_problem(rng, shape, ranks, nnz)
        weights = factor_rows_product(tensor, factors, skip=-1)
        expected = weights @ core.reshape(-1)
        actual = contract_value_block(tensor.indices, factors, core)
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_batched_fallback_matches_precontraction(self, rng, monkeypatch):
        """A zero table budget forces the GEMM path; results are identical."""
        tensor, factors, core = random_problem(rng, (9, 8, 7), (3, 4, 2), 70)
        with_tables = contract_delta_block(tensor.indices, factors, core, 1)
        monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        batched = contract_delta_block(tensor.indices, factors, core, 1)
        np.testing.assert_allclose(batched, with_tables, atol=1e-12)

    def test_empty_entry_block(self, rng):
        _, factors, core = random_problem(rng, (5, 4, 3), (2, 2, 2), 10)
        empty = np.empty((0, 3), dtype=np.int64)
        assert contract_delta_block(empty, factors, core, 0).shape == (0, 2)
        assert contract_value_block(empty, factors, core).shape == (0,)


class TestBatchInvariantContraction:
    """``batch_invariant=True`` makes results independent of block shape."""

    def test_rows_alone_equal_rows_in_block_bitwise(self, rng, monkeypatch):
        tensor, factors, core = random_problem(rng, (9, 8, 7), (3, 4, 2), 70)
        # Zero table budget forces the batched GEMM/einsum path — the one
        # whose accumulation order the flag pins down.
        monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        delta = contraction_module.make_delta_contractor(
            factors, core, 1, tensor.nnz, batch_invariant=True
        )
        value = contraction_module.make_value_contractor(
            factors, core, tensor.nnz, batch_invariant=True
        )
        block_delta = delta(tensor.indices)
        block_value = value(tensor.indices)
        for row in (0, 7, tensor.nnz - 1):
            single = tensor.indices[row : row + 1]
            np.testing.assert_array_equal(delta(single)[0], block_delta[row])
            np.testing.assert_array_equal(value(single)[0], block_value[row])

    def test_split_block_equals_whole_block_bitwise(self, rng, monkeypatch):
        tensor, factors, core = random_problem(rng, (8, 7, 6), (3, 2, 4), 64)
        monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        delta = contraction_module.make_delta_contractor(
            factors, core, 0, tensor.nnz, batch_invariant=True
        )
        whole = delta(tensor.indices)
        halves = np.concatenate(
            [delta(tensor.indices[:31]), delta(tensor.indices[31:])]
        )
        np.testing.assert_array_equal(halves, whole)

    def test_matches_default_path_numerically(self, rng, monkeypatch):
        tensor, factors, core = random_problem(rng, (9, 8, 7), (3, 4, 2), 70)
        monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        default = contraction_module.make_delta_contractor(
            factors, core, 1, tensor.nnz
        )(tensor.indices)
        invariant = contraction_module.make_delta_contractor(
            factors, core, 1, tensor.nnz, batch_invariant=True
        )(tensor.indices)
        np.testing.assert_allclose(invariant, default, atol=1e-12)


class TestPrecontractionRowCap:
    """The precontracted table never has more rows than the sweep has
    entries: its rows are the product of the precontracted modes' lengths."""

    @staticmethod
    def table_rows(plan):
        return int(np.prod(plan.pre_dims, dtype=np.int64))

    @pytest.mark.parametrize("keep", [0, None])
    def test_figure8_order4_shape_precontracts_one_mode(self, rng, keep):
        """50⁴ with 800 entries and J = 3: each mode fits on its own, but
        two of them already need 2 500 rows, so only one is tabled."""
        _, factors, core = random_problem(rng, (50,) * 4, (3,) * 4, 1)
        plan = contraction_module._ContractionPlan(factors, core, keep, 800)
        assert len(plan.pre) == 1
        assert self.table_rows(plan) == 50
        assert len(plan.loop_modes) == (2 if keep == 0 else 3)

    def test_running_product_stops_the_greedy_choice(self, rng):
        shape, ranks = (6, 9, 20, 40), (2, 2, 2, 2)
        _, factors, core = random_problem(rng, shape, ranks, 1)
        for entries, expected in [
            (5, []), (6, [0]), (53, [0]), (54, [0, 1]), (1079, [0, 1]),
            (1080, [0, 1, 2]), (43_200, [0, 1, 2, 3]),
        ]:
            plan = contraction_module._ContractionPlan(
                factors, core, None, entries
            )
            assert plan.pre == expected, entries
            assert self.table_rows(plan) <= entries

    def test_capped_plan_contracts_like_the_batched_one(self, rng, monkeypatch):
        shape, ranks = (50, 50, 50, 50), (3, 3, 3, 3)
        _, factors, core = random_problem(rng, shape, ranks, 1)
        indices = np.stack([rng.integers(0, 50, size=800) for _ in shape], axis=1)
        capped = contraction_module.make_delta_contractor(factors, core, 0, 800)
        monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        batched = contraction_module.make_delta_contractor(factors, core, 0, 800)
        np.testing.assert_allclose(
            capped(indices), batched(indices), rtol=1e-12, atol=1e-12
        )


class TestTiledContraction:
    """Blocks are contracted in ``TILE_BYTES`` tiles, bitwise like one piece."""

    #: Entries per tile the monkeypatched budget gives.
    TILE = 6
    SIZES = [0, 1, TILE - 1, TILE, 2 * TILE - 1, 3 * TILE + 7]

    @pytest.mark.parametrize("n_entries", SIZES)
    @pytest.mark.parametrize("batch_invariant", [False, True])
    @pytest.mark.parametrize("path", ["all-precontracted", "precontracted", "gemm"])
    @pytest.mark.parametrize("kind", ["delta", "value"])
    def test_tiled_equals_single_piece_bitwise(
        self, rng, monkeypatch, kind, path, batch_invariant, n_entries
    ):
        # Mode 2 is wider than the planned sweep, so it stays batched (the
        # einsum steps) even when the other modes are precontracted.
        wide = 20 if path == "all-precontracted" else 2000
        shape, ranks, mode = (9, 8, wide, 6), (3, 4, 2, 3), 1
        _, factors, core = random_problem(rng, shape, ranks, 1)
        indices = np.stack(
            [rng.integers(0, d, size=n_entries) for d in shape], axis=1
        )
        if path == "gemm":
            monkeypatch.setattr(contraction_module, "PRECONTRACT_CELL_BUDGET", 0)
        keep = mode if kind == "delta" else None
        # A plan sized for a large sweep, as the solvers' block loops use it
        # (20 000 entries: enough rows for the 6·8·9·20 all-precontracted
        # table, too few for a 2000-long mode).
        plan = contraction_module._ContractionPlan(
            factors, core, keep, 20_000, batch_invariant
        )
        assert bool(plan.pre) == (path != "gemm")
        assert bool(plan.loop_modes) == (path != "all-precontracted")
        if kind == "delta":
            contract = contraction_module.make_delta_contractor(
                factors, core, mode, 20_000, batch_invariant=batch_invariant
            )
        else:
            contract = contraction_module.make_value_contractor(
                factors, core, 20_000, batch_invariant=batch_invariant
            )

        monkeypatch.setattr(contraction_module, "TILE_BYTES", 1 << 62)
        whole = contract(indices)

        tiles = []
        apply_tile = contraction_module._ContractionPlan._apply_tile

        def counting(plan_self, block, *out):
            tiles.append(block.shape[0])
            return apply_tile(plan_self, block, *out)

        monkeypatch.setattr(
            contraction_module._ContractionPlan, "_apply_tile", counting
        )
        monkeypatch.setattr(
            contraction_module, "TILE_BYTES", 8 * plan.width * self.TILE
        )
        tiled = contract(indices)

        np.testing.assert_array_equal(tiled, whole)
        assert tiled.shape == whole.shape
        expected_pieces = max(1, n_entries // self.TILE) if n_entries else 0
        assert len(tiles) == expected_pieces
        assert sum(tiles) == n_entries
        if len(tiles) > 1:
            assert min(tiles) >= self.TILE

    @pytest.mark.parametrize("n_entries", [1, 3 * TILE + 7])
    def test_gather_past_the_table_raises(self, rng, monkeypatch, n_entries):
        shape, ranks = (9, 8, 20), (3, 4, 2)
        _, factors, core = random_problem(rng, shape, ranks, 1)
        contract = contraction_module.make_value_contractor(factors, core, 2000)
        assert contract.precontracted == frozenset(range(3))
        monkeypatch.setattr(contraction_module, "TILE_BYTES", 8 * self.TILE)
        indices = np.zeros((n_entries, 3), dtype=np.int64)
        indices[-1] = shape
        with pytest.raises(IndexError):
            contract(indices)

    def test_delta_call_peaks_within_tile_budget(self):
        """No block-wide intermediate: the peak is the output plus ~tiles."""
        import tracemalloc

        rng = np.random.default_rng(4)
        shape, ranks, mode, nnz = (50_000, 8_000, 12, 24), (10, 10, 5, 5), 2, 20_000
        _, factors, core = random_problem(rng, shape, ranks, 1)
        indices = np.stack([rng.integers(0, d, size=nnz) for d in shape], axis=1)
        contract = contraction_module.make_delta_contractor(
            factors, core, mode, nnz
        )
        output_bytes = nnz * ranks[mode] * 8
        tracemalloc.start()
        try:
            contract(indices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < output_bytes + 4 * contraction_module.TILE_BYTES

    def test_reconstruct_peaks_within_tile_budget(self):
        """A plan that precontracts every mode is tiled too."""
        import tracemalloc

        from repro.tensor.operations import sparse_reconstruct

        rng = np.random.default_rng(5)
        shape, ranks, nnz = (60, 50, 40), (8, 8, 4), 1_000_000
        _, factors, core = random_problem(rng, shape, ranks, 1)
        indices = np.stack([rng.integers(0, d, size=nnz) for d in shape], axis=1)
        tensor = SparseTensor(indices, np.zeros(nnz), shape)
        contract = contraction_module.make_value_contractor(factors, core, nnz)
        assert contract.precontracted == frozenset(range(3))
        expected = contract(indices)
        tracemalloc.start()
        try:
            predicted = sparse_reconstruct(tensor, core, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(predicted, expected)
        # The output, the precontracted (I_0, I_1, I_2) table and ~tiles.
        table_bytes = int(np.prod(shape)) * 8
        assert peak < nnz * 8 + table_bytes + 4 * contraction_module.TILE_BYTES


class TestSegments:
    def test_block_segment_starts(self):
        ids = np.array([4, 4, 7, 9, 9, 9])
        starts, run_ids = block_segment_starts(ids)
        np.testing.assert_array_equal(starts, [0, 2, 3])
        np.testing.assert_array_equal(run_ids, [4, 7, 9])
        empty_starts, empty_ids = block_segment_starts(np.empty(0, dtype=np.int64))
        assert empty_starts.size == 0 and empty_ids.size == 0

    def test_segment_sum_and_gram_match_manual(self, rng):
        deltas = rng.standard_normal((12, 3))
        starts = np.array([0, 5, 6])
        sums = segment_sum(deltas, starts)
        grams, _ = normal_equations_sorted(deltas, np.ones(12), starts)
        bounds = [(0, 5), (5, 6), (6, 12)]
        for row, (lo, hi) in enumerate(bounds):
            np.testing.assert_allclose(sums[row], deltas[lo:hi].sum(axis=0))
            np.testing.assert_allclose(grams[row], deltas[lo:hi].T @ deltas[lo:hi])

    def test_normal_equations_match_seed_accumulation(self, rng):
        """reduceat/bucketed reductions equal the np.add.at seed kernel."""
        deltas = rng.standard_normal((20, 4))
        values = rng.standard_normal(20)
        segment_of_entry = np.sort(rng.integers(0, 5, size=20))
        starts, seg_ids = block_segment_starts(segment_of_entry)
        b_new, c_new = normal_equations_sorted(deltas, values, starts)
        b_old, c_old = accumulate_normal_equations(deltas, values, segment_of_entry, 5)
        np.testing.assert_allclose(b_new, b_old[seg_ids], atol=1e-12)
        np.testing.assert_allclose(c_new, c_old[seg_ids], atol=1e-12)


class TestUpdateFactorModeKernels:
    def test_regression_contracted_matches_seed_kernel(self):
        """Fixed-seed tensor: the library update equals the frozen seed sweep."""
        rng = np.random.default_rng(20180416)
        tensor, factors, core = random_problem(rng, (12, 10, 9), (4, 3, 5), 180)
        for mode in range(tensor.order):
            via_kron = [f.copy() for f in factors]
            via_contraction = [f.copy() for f in factors]
            kron_update_factor_mode(tensor, via_kron, core, mode, 0.01)
            update_factor_mode(tensor, via_contraction, core, mode, 0.01)
            np.testing.assert_allclose(
                via_contraction[mode], via_kron[mode], atol=1e-10
            )

    @pytest.mark.parametrize("shape,ranks,nnz", PROBLEMS)
    def test_frozen_kron_sweep_matches_update_every_mode(
        self, rng, shape, ranks, nnz
    ):
        """The microbench's baseline computes the library's update at orders
        3-5, across block boundaries, and touches only the updated mode."""
        tensor, factors, core = random_problem(rng, shape, ranks, nnz)
        for mode in range(tensor.order):
            via_kron = [f.copy() for f in factors]
            via_library = [f.copy() for f in factors]
            returned = kron_update_factor_mode(
                tensor, via_kron, core, mode, 0.01, block_size=13
            )
            update_factor_mode(tensor, via_library, core, mode, 0.01)
            assert returned is via_kron[mode]
            np.testing.assert_allclose(
                via_kron[mode], via_library[mode], atol=1e-10
            )
            for k in range(tensor.order):
                if k != mode:
                    assert via_kron[k].tobytes() == factors[k].tobytes()

    def test_kernel_keyword_is_gone(self, rng):
        """One row-update kernel: there is no ``kernel=`` switch to pass."""
        tensor, factors, core = random_problem(rng, (5, 4, 3), (2, 2, 2), 20)
        with pytest.raises(TypeError, match="kernel"):
            update_factor_mode(tensor, factors, core, 0, 0.01, kernel="kron")

    @pytest.mark.parametrize("shape,ranks,nnz", PROBLEMS)
    def test_matches_brute_force_including_ridge_corner(self, rng, shape, ranks, nnz):
        """Contracted updates equal the per-row brute force, λ > 0 and λ = 0."""
        tensor, factors, core = random_problem(rng, shape, ranks, nnz)
        for regularization in (0.05, 0.0):
            for mode in range(tensor.order):
                fresh = [f.copy() for f in factors]
                update_factor_mode(tensor, fresh, core, mode, regularization)
                ctx = build_mode_context(tensor, mode)
                for row in ctx.row_ids[:3]:
                    expected = brute_force_row_update(
                        tensor, factors, core, mode, int(row), regularization
                    )
                    np.testing.assert_allclose(
                        fresh[mode][row], expected, atol=1e-8
                    )

    def test_rows_without_observations_untouched(self, rng):
        """Empty rows (no entries in Ω^(n)_i) keep their factor values."""
        shape = (10, 6, 5)
        nnz = 40
        indices = np.stack(
            [
                rng.integers(0, 5, size=nnz),  # rows 5..9 of mode 0 stay empty
                rng.integers(0, shape[1], size=nnz),
                rng.integers(0, shape[2], size=nnz),
            ],
            axis=1,
        )
        tensor = SparseTensor(indices, rng.uniform(0.5, 1.5, nnz), shape).deduplicate()
        factors = [rng.uniform(0.1, 1.0, size=(d, 3)) for d in shape]
        core = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        before = factors[0].copy()
        update_factor_mode(tensor, factors, core, 0, 0.01)
        np.testing.assert_array_equal(factors[0][5:], before[5:])
        assert not np.allclose(factors[0][:5], before[:5])

    def test_solve_rows_exported_from_kernels(self, rng):
        b = rng.standard_normal((3, 2, 2))
        b = np.einsum("nij,nkj->nik", b, b)
        c = rng.standard_normal((3, 2))
        solutions = solve_rows(b, c, 0.1)
        for row in range(3):
            np.testing.assert_allclose(
                solutions[row], np.linalg.solve(b[row] + 0.1 * np.eye(2), c[row])
            )

    @pytest.mark.parametrize("regularization", [0.0, 0.1])
    def test_solve_rows_answer_does_not_depend_on_the_batch(
        self, rng, regularization
    ):
        """One singular system must not send its batch mates elsewhere.

        Every non-singular row solved in a batch that also holds an
        exactly singular system equals that row solved alone, bit for
        bit, and so the chunked threaded solve equals the serial one.
        """
        from repro.kernels.backends import NumpyBackend, ThreadedBackend

        n_rows, rank, singular = 64, 4, 37
        gram = rng.standard_normal((n_rows, rank, rank))
        b_matrices = gram @ gram.transpose(0, 2, 1)
        c_vectors = rng.standard_normal((n_rows, rank))
        # B + ridge·I is exactly the zero matrix for this row.
        ridge = regularization if regularization > 0 else 1e-12
        b_matrices[singular] = -ridge * np.eye(rank)

        batch = solve_rows(b_matrices, c_vectors, regularization)
        for row in range(n_rows):
            alone = solve_rows(
                b_matrices[row : row + 1], c_vectors[row : row + 1], regularization
            )[0]
            assert alone.tobytes() == batch[row].tobytes(), row
        assert np.all(np.isfinite(batch[singular]))

        threaded = ThreadedBackend(n_workers=2, min_chunk_entries=8).solve_rows(
            b_matrices, c_vectors, regularization
        )
        serial = NumpyBackend().solve_rows(b_matrices, c_vectors, regularization)
        assert threaded.tobytes() == serial.tobytes()

"""Kernel backend registry and cross-backend equivalence tests.

Every backend must reproduce the reference NumPy results to ~1e-12 across
the shapes that historically break segment logic: higher orders, ragged
ranks, empty rows (mode slices with no observed entries), and
single-entry segments.  The threaded backend is additionally exercised
with a forced multi-worker configuration so the chunked code path runs
even on single-CPU hosts (where it normally degrades to the serial path).
"""

import numpy as np
import pytest

from repro.core.row_update import build_mode_context, update_factor_mode
from repro.kernels import available_backends, get_backend, resolve_backend
from repro.kernels import contraction as contraction_module
from repro.kernels.backends import (
    KernelBackend,
    NumpyBackend,
    ProcpoolBackend,
    ThreadedBackend,
    register_backend,
)
from repro.kernels.backends.threaded import chunk_boundaries
from repro.tensor import SparseTensor

#: Backends every equivalence test runs against the NumPy reference.
CANDIDATES = [
    ThreadedBackend(n_workers=3, min_chunk_entries=8),  # force chunking
    "threaded",  # default construction (may degrade to serial on 1 CPU)
]


def _problem(order, seed, ragged=True, nnz=400, single_entry_rows=False):
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(6, 14, size=order))
    if ragged:
        ranks = tuple(int(r) for r in rng.integers(1, 5, size=order))
    else:
        ranks = (3,) * order
    ranks = tuple(min(r, s) for r, s in zip(ranks, shape))
    if single_entry_rows:
        # Exactly one entry per mode-0 row: every segment has length 1.
        indices = np.stack(
            [np.arange(shape[0])]
            + [rng.integers(0, d, shape[0]) for d in shape[1:]],
            axis=1,
        ).astype(np.int64)
    else:
        # Keep the last slice of every mode empty so empty rows are hit.
        indices = np.stack(
            [rng.integers(0, d - 1, nnz) for d in shape], axis=1
        ).astype(np.int64)
    tensor = SparseTensor(
        indices, rng.uniform(0.1, 2.0, indices.shape[0]), shape
    ).deduplicate()
    factors = [rng.uniform(-1.0, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    return tensor, factors, core


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_lists_numpy_first_and_threaded():
    names = available_backends()
    assert names[0] == "numpy"
    assert "threaded" in names


def test_get_unknown_backend_raises_with_choices():
    with pytest.raises(KeyError, match="available"):
        get_backend("gpu")


def test_resolve_passthrough_and_specials():
    instance = ThreadedBackend(n_workers=2)
    assert resolve_backend(instance) is instance
    assert resolve_backend(None).name == "numpy"


def test_every_backend_name_runs_the_backend_it_names():
    """No name stands for a different backend."""
    names = available_backends()
    assert sorted(names) == ["numpy", "procpool", "threaded"]
    for name in names:
        assert resolve_backend(name).name == name


def _reject_in_config(name):
    from repro.core import PTuckerConfig
    from repro.exceptions import ShapeError

    with pytest.raises(ShapeError, match="unknown kernel backend"):
        PTuckerConfig(backend=name)


def _reject_in_resolver(name):
    with pytest.raises(KeyError, match="unknown kernel backend"):
        resolve_backend(name)


def _reject_in_row_update(name):
    tensor = SparseTensor(np.array([[0, 0, 0]]), np.array([1.0]), (1, 1, 1))
    factors = [np.ones((1, 1)) for _ in range(3)]
    with pytest.raises(KeyError, match="unknown kernel backend"):
        update_factor_mode(tensor, factors, np.ones((1, 1, 1)), 0, 0.01, backend=name)


def _reject_in_cli(name):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "tensor.tns", "--ranks", "2", "--backend", name])
    assert exit_info.value.code == 2


REJECTORS = pytest.mark.parametrize(
    "reject",
    [_reject_in_config, _reject_in_resolver, _reject_in_row_update, _reject_in_cli],
    ids=["config", "resolver", "row_update", "cli"],
)


@REJECTORS
def test_unregistered_backend_name_is_rejected(reject):
    """A name with no registered backend (here the retired ``numba``) fails
    in the config, the resolver, the row update and the CLI alike; nothing
    falls back."""
    reject("numba")


@REJECTORS
def test_auto_is_not_a_backend_name(reject):
    """``auto`` names no backend: every entry point refuses it with the
    same ``unknown kernel backend`` error as any unregistered name."""
    reject("auto")


def test_register_backend_last_wins():
    class Custom(NumpyBackend):
        name = "custom-test"

    backend = Custom()
    register_backend(backend)
    try:
        assert resolve_backend("custom-test") is backend
    finally:
        from repro.kernels.backends.base import _REGISTRY

        _REGISTRY.pop("custom-test", None)


# ----------------------------------------------------------------------
# Chunk boundaries
# ----------------------------------------------------------------------

def test_chunk_boundaries_align_with_segments():
    starts = np.asarray([0, 5, 6, 20, 21, 40], dtype=np.int64)
    edges = chunk_boundaries(starts, 50, 3)
    assert edges[0] == 0 and edges[-1] == starts.shape[0]
    assert np.all(np.diff(edges) > 0)


def test_chunk_boundaries_degenerate_cases():
    assert chunk_boundaries(np.asarray([0]), 10, 4).tolist() == [0, 1]
    assert chunk_boundaries(np.asarray([0, 3]), 6, 1).tolist() == [0, 2]


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: str(c))
def test_backend_matches_numpy_ragged_ranks(order, candidate):
    tensor, factors, core = _problem(order, seed=order * 11)
    for mode in range(order):
        reference = [f.copy() for f in factors]
        update_factor_mode(tensor, reference, core, mode, 0.01, backend="numpy")
        candidate_factors = [f.copy() for f in factors]
        update_factor_mode(
            tensor, candidate_factors, core, mode, 0.01, backend=candidate
        )
        np.testing.assert_allclose(
            candidate_factors[mode], reference[mode], atol=1e-12, rtol=1e-12
        )


@pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: str(c))
def test_backend_matches_numpy_single_entry_segments(candidate):
    tensor, factors, core = _problem(3, seed=5, single_entry_rows=True)
    reference = [f.copy() for f in factors]
    update_factor_mode(tensor, reference, core, 0, 0.01, backend="numpy")
    candidate_factors = [f.copy() for f in factors]
    update_factor_mode(tensor, candidate_factors, core, 0, 0.01, backend=candidate)
    np.testing.assert_allclose(
        candidate_factors[0], reference[0], atol=1e-12, rtol=1e-12
    )


@pytest.mark.parametrize("candidate", CANDIDATES, ids=lambda c: str(c))
def test_backend_leaves_empty_rows_untouched(candidate):
    tensor, factors, core = _problem(3, seed=9)
    before = factors[0].copy()
    update_factor_mode(tensor, factors, core, 0, 0.01, backend=candidate)
    ctx = build_mode_context(tensor, 0)
    empty_rows = np.setdiff1d(np.arange(tensor.shape[0]), ctx.row_ids)
    assert empty_rows.size > 0
    np.testing.assert_array_equal(factors[0][empty_rows], before[empty_rows])


def test_threaded_chunked_is_bitwise_equal_to_numpy():
    """Segment-aligned chunks solve and reduce exactly as the full pass."""
    tensor, factors, core = _problem(3, seed=21, nnz=900)
    ctx = build_mode_context(tensor, 0)
    args = (ctx.sorted_indices, ctx.sorted_values, ctx.row_starts)
    n_segments = ctx.row_starts.shape[0]
    reference = NumpyBackend().make_row_solver(
        factors, core, 0, 0.01, tensor.nnz
    )(*args, 1, n_segments - 1)
    chunked = ThreadedBackend(n_workers=4, min_chunk_entries=4).make_row_solver(
        factors, core, 0, 0.01, tensor.nnz
    )(*args, 1, n_segments - 1)
    for ours, theirs in zip(chunked, reference):
        np.testing.assert_array_equal(ours, theirs)


def test_backends_bitwise_equal_on_multi_tile_block():
    """numpy, threaded and procpool rows agree bitwise when blocks span tiles.

    The block is several default-size tiles long with an uneven tail, so
    every backend (procpool's workers run the module default too) tiles
    its chunks differently and must still reduce the same rows.  The plan
    is a grouped one (mode 2 tables only the 24 hours), so its tiles are
    2 621 entries long and every chunk boundary splits groups.
    """
    rng = np.random.default_rng(13)
    shape, ranks, mode, nnz = (3_000, 2_000, 12, 24), (10, 10, 5, 5), 2, 9_000
    indices = np.stack([rng.integers(0, d, nnz) for d in shape], axis=1)
    tensor = SparseTensor(indices, rng.uniform(0.5, 5.0, nnz), shape)
    factors = [rng.uniform(-1.0, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    ctx = build_mode_context(tensor, mode)
    plan = contraction_module._ContractionPlan(factors, core, mode, nnz)
    tile = contraction_module.TILE_BYTES // (8 * plan.width)
    assert plan.grouped
    assert nnz >= 3 * tile and nnz % tile

    n_segments = ctx.row_starts.shape[0]
    results = [
        backend.make_row_solver(factors, core, mode, 0.01, nnz)(
            ctx.sorted_indices, ctx.sorted_values, ctx.row_starts,
            1, n_segments - 1,
        )
        for backend in (
            NumpyBackend(),
            ThreadedBackend(n_workers=2, min_chunk_entries=8),
            ProcpoolBackend(n_workers=2, min_chunk_entries=8),
        )
    ]
    for result in results[1:]:
        for ours, theirs in zip(result, results[0]):
            np.testing.assert_array_equal(ours, theirs)


def test_threaded_primitives_match_reference():
    rng = np.random.default_rng(0)
    gram = rng.uniform(0.5, 1.0, size=(64, 3, 3))
    b_matrices = gram @ gram.transpose(0, 2, 1)
    c_vectors = rng.uniform(-1.0, 1.0, size=(64, 3))
    solved_thr = ThreadedBackend(n_workers=2, min_chunk_entries=8).solve_rows(
        b_matrices, c_vectors, 0.01
    )
    solved_ref = NumpyBackend().solve_rows(b_matrices, c_vectors, 0.01)
    np.testing.assert_allclose(solved_thr, solved_ref, atol=1e-13)


# ----------------------------------------------------------------------
# Solver-level wiring
# ----------------------------------------------------------------------

def test_ptucker_config_backend_roundtrip(planted_small):
    from repro.core import PTucker, PTuckerConfig

    reference = PTucker(
        PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
    ).fit(planted_small.tensor)
    threaded = PTucker(
        PTuckerConfig(
            ranks=(3, 3, 3), max_iterations=2, seed=0, backend="threaded"
        )
    ).fit(planted_small.tensor)
    np.testing.assert_allclose(
        threaded.trace.errors, reference.trace.errors, rtol=1e-10
    )


def test_config_rejects_unknown_backend():
    from repro.core import PTuckerConfig
    from repro.exceptions import ShapeError

    with pytest.raises(ShapeError, match="backend"):
        PTuckerConfig(backend="cuda")


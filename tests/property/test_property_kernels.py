"""Property-based tests for the contraction kernel (hypothesis).

The contracted row update must match the paper-literal brute force across
random orders, ragged ranks, empty rows and both regularization corners —
the invariant the whole kernel subsystem rests on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.row_update import brute_force_row_update, build_mode_context, update_factor_mode
from repro.kernels import contract_value_block
from repro.tensor import SparseTensor, sparse_reconstruct


def _brute_force_gram(tensor, factors, core, mode, row):
    """B of Eq. 10 for one row, accumulated entry by entry (tests only)."""
    rank = np.asarray(core).shape[mode]
    b_matrix = np.zeros((rank, rank))
    core_arr = np.asarray(core)
    for entry_idx in range(tensor.nnz):
        index = tensor.indices[entry_idx]
        if index[mode] != row:
            continue
        delta = np.zeros(rank)
        for beta in np.ndindex(*core_arr.shape):
            weight = core_arr[beta]
            for k in range(tensor.order):
                if k == mode:
                    continue
                weight *= factors[k][index[k], beta[k]]
            delta[beta[mode]] += weight
        b_matrix += np.outer(delta, delta)
    return b_matrix, rank


def _random_problem(seed: int, order: int):
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(4, 9, size=order))
    ranks = tuple(int(r) for r in rng.integers(1, 5, size=order))
    ranks = tuple(min(r, s) for r, s in zip(ranks, shape))
    nnz = int(rng.integers(10, 40))
    # Keep the last slice of every mode empty so empty rows are always hit.
    indices = np.stack([rng.integers(0, d - 1, nnz) for d in shape], axis=1)
    tensor = SparseTensor(indices, rng.uniform(0.1, 2.0, nnz), shape).deduplicate()
    factors = [rng.uniform(0.1, 1.0, size=(d, r)) for d, r in zip(shape, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    return tensor, factors, core


@given(
    st.integers(0, 10_000),
    st.integers(3, 5),
    st.sampled_from([0.0, 0.01, 0.5]),
)
@settings(max_examples=25, deadline=None)
def test_contracted_update_matches_brute_force(seed, order, regularization):
    """Eq. 9 row for row: contraction kernel == paper-literal reference."""
    tensor, factors, core = _random_problem(seed, order)
    mode = seed % order
    before = [f.copy() for f in factors]
    update_factor_mode(tensor, factors, core, mode, regularization)
    ctx = build_mode_context(tensor, mode)
    observed = set(ctx.row_ids.tolist())
    assert np.all(np.isfinite(factors[mode]))
    for row in list(observed)[:3]:
        # In the λ=0 ridge corner a rank-deficient B has no unique solution;
        # the comparison is only well-posed on well-conditioned rows (the
        # kernel stays finite everywhere, asserted above).
        b_matrix, rank = _brute_force_gram(tensor, before, core, mode, int(row))
        system = b_matrix + regularization * np.eye(rank)
        if np.linalg.cond(system) > 1e6:
            continue
        expected = brute_force_row_update(
            tensor, before, core, mode, int(row), regularization
        )
        # Accumulation-order noise (~nnz·|G|·eps) is amplified by the system's
        # conditioning, so the tolerance must absorb cond ≤ 1e6 amplification;
        # real kernel bugs produce O(1) relative differences.
        np.testing.assert_allclose(
            factors[mode][row], expected, rtol=1e-4, atol=1e-8
        )
    # Rows with an empty Ω segment are never visited.
    empty_row = tensor.shape[mode] - 1
    assert empty_row not in observed
    np.testing.assert_array_equal(factors[mode][empty_row], before[mode][empty_row])


@given(st.integers(0, 10_000), st.integers(3, 5))
@settings(max_examples=25, deadline=None)
def test_full_contraction_matches_reconstruction(seed, order):
    """contract_value_block is exactly the sparse model prediction (Eq. 4)."""
    tensor, factors, core = _random_problem(seed, order)
    via_kernel = contract_value_block(tensor.indices, factors, core)
    via_reconstruct = sparse_reconstruct(tensor, core, factors)
    np.testing.assert_allclose(via_kernel, via_reconstruct, atol=1e-10)


@given(st.integers(0, 10_000), st.integers(3, 5))
@settings(max_examples=25, deadline=None)
def test_backends_agree_across_orders(seed, order):
    """numpy == threaded on random ragged problems.

    `_random_problem` draws ragged ranks and keeps the last slice of every
    mode empty, and small nnz over small shapes makes single-entry segments
    common — exactly the segment-boundary cases backends must not break.
    """
    from repro.kernels.backends import ThreadedBackend

    tensor, factors, core = _random_problem(seed, order)
    mode = seed % order
    reference = [f.copy() for f in factors]
    update_factor_mode(tensor, reference, core, mode, 0.01, backend="numpy")

    updated = [f.copy() for f in factors]
    update_factor_mode(
        tensor,
        updated,
        core,
        mode,
        0.01,
        backend=ThreadedBackend(n_workers=3, min_chunk_entries=4),
    )
    np.testing.assert_allclose(updated[mode], reference[mode], atol=1e-12, rtol=1e-12)

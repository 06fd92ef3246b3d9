"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PTuckerConfig
from repro.data import generate_movielens_like, planted_tucker_tensor, random_sparse_tensor
from repro.tensor import SparseTensor


def assert_bitwise_equal(a, b, context: str = "") -> None:
    """Assert two arrays are byte-for-byte identical, with diagnostics.

    ``np.array_equal`` treats ``-0.0 == 0.0`` and fails on NaN; this
    helper compares dtype, shape and raw bytes, and on mismatch reports
    the first differing element (by unravelled index) alongside both
    values — far more actionable than a bare boolean assert.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    prefix = f"{context}: " if context else ""
    assert a.dtype == b.dtype, f"{prefix}dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{prefix}shape {a.shape} != {b.shape}"
    a_c = np.ascontiguousarray(a)
    b_c = np.ascontiguousarray(b)
    if a_c.tobytes() == b_c.tobytes():
        return
    # Locate the first differing element for the failure message.
    a_bytes = a_c.view(np.uint8).reshape(-1)
    b_bytes = b_c.view(np.uint8).reshape(-1)
    first_byte = int(np.nonzero(a_bytes != b_bytes)[0][0])
    flat_index = first_byte // max(a.dtype.itemsize, 1)
    position = np.unravel_index(flat_index, a.shape) if a.shape else ()
    raise AssertionError(
        f"{prefix}arrays differ; first difference at index {position}: "
        f"{a_c.reshape(-1)[flat_index]!r} != {b_c.reshape(-1)[flat_index]!r}"
    )


@pytest.fixture
def bitwise():
    """The :func:`assert_bitwise_equal` helper as a fixture."""
    return assert_bitwise_equal


@pytest.fixture
def rng():
    """A seeded random generator for test-local randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_dense_tensor(rng):
    """A small dense 3-way array for exact comparisons."""
    return rng.uniform(0.0, 1.0, size=(4, 5, 3))


@pytest.fixture
def small_sparse_tensor():
    """A tiny handcrafted sparse tensor with known entries."""
    entries = [
        ((0, 0, 0), 1.0),
        ((1, 2, 0), 2.5),
        ((2, 1, 1), -0.5),
        ((3, 3, 2), 4.0),
        ((1, 1, 1), 0.75),
    ]
    return SparseTensor.from_entries(entries, shape=(4, 4, 3))


@pytest.fixture
def planted_small():
    """A small planted Tucker tensor with low noise (fast to factorize)."""
    return planted_tucker_tensor(
        shape=(20, 18, 16), ranks=(3, 3, 3), nnz=1500, noise_level=0.01, seed=42
    )


@pytest.fixture
def planted_short_rows():
    """A planted tensor whose rows mostly hold fewer entries than the rank.

    About 300 entries over (200, 150, 120) at ranks (4, 5, 3): over 90 %
    of the rows of modes 0 and 1, and about half of mode 2's, are solved
    in their ``k × k`` dual form.  The planted core's shape is the rank
    profile.
    """
    return planted_tucker_tensor(
        shape=(200, 150, 120), ranks=(4, 5, 3), nnz=300,
        noise_level=0.01, seed=7,
    )


@pytest.fixture
def planted_4way():
    """A small planted 4-way tensor."""
    return planted_tucker_tensor(
        shape=(12, 10, 8, 6), ranks=(2, 2, 2, 2), nnz=900, noise_level=0.01, seed=7
    )


@pytest.fixture
def random_small():
    """A small random sparse tensor (no planted structure)."""
    return random_sparse_tensor((15, 15, 15), nnz=600, seed=3)


@pytest.fixture
def movielens_tiny():
    """A tiny MovieLens-style dataset for discovery tests."""
    return generate_movielens_like(
        n_users=60, n_movies=40, n_years=6, n_hours=8, n_ratings=2500, seed=11
    )


@pytest.fixture
def fast_config():
    """A config that converges quickly on the small fixtures."""
    return PTuckerConfig(ranks=(3, 3, 3), max_iterations=5, seed=0)

"""Behaviour every P-Tucker method shares through the one ALS driver.

Each test runs for P-Tucker, P-Tucker-Cache and P-Tucker-Approx; the
algorithm-independent ones also run for the Tucker-ALS baseline.
"""

import numpy as np
import pytest

from repro.baselines import TuckerAls
from repro.core import PTucker, PTuckerApprox, PTuckerCache, PTuckerConfig
from repro.metrics.errors import reconstruction_error
from repro.tensor import SparseTensor

PTUCKER_METHODS = [
    pytest.param(PTucker, "P-Tucker", id="ptucker"),
    pytest.param(PTuckerCache, "P-Tucker-Cache", id="cache"),
    pytest.param(PTuckerApprox, "P-Tucker-Approx", id="approx"),
]
ALL_METHODS = PTUCKER_METHODS + [
    pytest.param(TuckerAls, "Tucker-ALS", id="tucker-als"),
]


@pytest.mark.parametrize("solver, name", ALL_METHODS)
def test_result_records_algorithm_name(planted_small, solver, name):
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=2, seed=0)
    assert solver(config).fit(planted_small.tensor).algorithm == name


@pytest.mark.parametrize("solver, name", PTUCKER_METHODS)
def test_error_decreases_on_planted_data(planted_small, solver, name):
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=6, seed=0, tolerance=0.0)
    errors = solver(config).fit(planted_small.tensor).trace.errors
    assert errors[-1] < 0.6 * errors[0]


@pytest.mark.parametrize("solver, name", PTUCKER_METHODS[:2])
def test_trace_error_is_measured_over_all_observed_entries(
    planted_small, solver, name
):
    """The trace error is Eq. (5) over all of Ω for the returned model.

    Approx is left out: it truncates the core after the residual pass, so
    its trace describes the model before the last truncation.
    """
    config = PTuckerConfig(
        ranks=(3, 3, 3), max_iterations=3, seed=0, tolerance=0.0, orthogonalize=False
    )
    result = solver(config).fit(planted_small.tensor)
    recomputed = reconstruction_error(planted_small.tensor, result.core, result.factors)
    assert result.trace.errors[-1] == pytest.approx(recomputed, rel=1e-9)


@pytest.mark.parametrize("solver, name", PTUCKER_METHODS)
def test_zero_tolerance_runs_every_iteration(planted_small, solver, name):
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=4, seed=0, tolerance=0.0)
    result = solver(config).fit(planted_small.tensor)
    assert result.trace.n_iterations == 4
    assert np.all(np.isfinite(result.core))
    assert all(np.all(np.isfinite(factor)) for factor in result.factors)


@pytest.mark.parametrize("solver, name", ALL_METHODS)
def test_deterministic_given_seed(planted_small, solver, name):
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=4, tolerance=0.0)
    first = solver(config).fit(planted_small.tensor)
    second = solver(config).fit(planted_small.tensor)
    np.testing.assert_array_equal(first.trace.errors, second.trace.errors)
    np.testing.assert_array_equal(first.core, second.core)
    for a, b in zip(first.factors, second.factors):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("solver, name", PTUCKER_METHODS)
def test_orthogonal_output(planted_small, solver, name):
    config = PTuckerConfig(ranks=(3, 3, 3), max_iterations=3, seed=0)
    result = solver(config).fit(planted_small.tensor)
    assert result.orthogonality_defect() < 1e-8


@pytest.mark.parametrize("solver, name", ALL_METHODS)
def test_recovers_planted_rank_one_structure(rng, solver, name):
    """A fully observed rank-1 tensor is fit almost exactly."""
    dims = (12, 10, 8)
    vectors = [rng.uniform(0.5, 1.0, size=d) for d in dims]
    dense = np.einsum("i,j,k->ijk", *vectors)
    tensor = SparseTensor.from_dense(dense, keep_zeros=True)
    config = PTuckerConfig(
        ranks=(1, 1, 1),
        max_iterations=10,
        seed=0,
        tolerance=0.0,
        regularization=1e-9,
    )
    result = solver(config).fit(tensor)
    assert result.trace.errors[-1] < 1e-5 * tensor.norm()

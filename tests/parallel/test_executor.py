"""Tests for the process-pool parallel row updates."""

import os

import numpy as np
import pytest

from repro.core import PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import update_factor_mode
from repro.exceptions import WorkerFailureError
from repro.parallel import parallel_update_factor_mode
from repro.parallel.executor import INJECT_DEATH_ALWAYS, INJECT_WORKER_DEATH_ENV


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_parallel_update_matches_serial(planted_small, rng, mode):
    """Row independence (Section III-B): parallel and serial updates agree."""
    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors_serial = initialize_factors(tensor.shape, (3, 3, 3), generator)
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    factors_parallel = [f.copy() for f in factors_serial]

    update_factor_mode(tensor, factors_serial, core, mode, regularization=0.01)
    parallel_update_factor_mode(
        tensor, factors_parallel, core, mode, regularization=0.01, n_workers=2
    )
    np.testing.assert_allclose(factors_parallel[mode], factors_serial[mode], atol=1e-8)


def test_parallel_update_with_static_scheduling(planted_small):
    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors = initialize_factors(tensor.shape, (3, 3, 3), generator)
    reference = [f.copy() for f in factors]
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    update_factor_mode(tensor, reference, core, 0, regularization=0.01)
    parallel_update_factor_mode(
        tensor, factors, core, 0, regularization=0.01, n_workers=3, scheduling="static"
    )
    np.testing.assert_allclose(factors[0], reference[0], atol=1e-8)


def test_parallel_update_reuses_prebuilt_context(planted_small):
    """A caller-owned ModeContext is used as-is, not rebuilt per invocation."""
    from repro.core.row_update import build_mode_context

    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors = initialize_factors(tensor.shape, (3, 3, 3), generator)
    reference = [f.copy() for f in factors]
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    context = build_mode_context(tensor, 1)

    update_factor_mode(tensor, reference, core, 1, regularization=0.01)
    # Two sweeps through the same prebuilt context (as an iterating driver
    # would issue) both produce the serial result.
    for _ in range(2):
        factors_sweep = [f.copy() for f in factors]
        parallel_update_factor_mode(
            tensor,
            factors_sweep,
            core,
            1,
            regularization=0.01,
            n_workers=2,
            context=context,
        )
        np.testing.assert_allclose(factors_sweep[1], reference[1], atol=1e-8)


def test_parallel_update_with_threaded_backend_in_workers(planted_small):
    """Backend names travel to the worker processes and change nothing numerically."""
    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors = initialize_factors(tensor.shape, (3, 3, 3), generator)
    reference = [f.copy() for f in factors]
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    update_factor_mode(tensor, reference, core, 0, regularization=0.01)
    parallel_update_factor_mode(
        tensor,
        factors,
        core,
        0,
        regularization=0.01,
        n_workers=2,
        backend="threaded",
    )
    np.testing.assert_allclose(factors[0], reference[0], atol=1e-8)


def test_worker_death_on_first_call_recovers(
    planted_small, tmp_path, monkeypatch
):
    """A worker dying abruptly on its first task is re-dispatched after a
    pool rebuild, and the recovered update equals the serial one."""
    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors = initialize_factors(tensor.shape, (3, 3, 3), generator)
    reference = [f.copy() for f in factors]
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    update_factor_mode(tensor, reference, core, 0, regularization=0.01)

    sentinel = str(tmp_path / "died-once")
    monkeypatch.setenv(INJECT_WORKER_DEATH_ENV, sentinel)
    parallel_update_factor_mode(
        tensor, factors, core, 0, regularization=0.01, n_workers=2
    )
    assert os.path.exists(sentinel), "the injected worker death never fired"
    np.testing.assert_allclose(factors[0], reference[0], atol=1e-8)


def test_retry_budget_exhaustion_names_mode_and_rows(
    planted_small, monkeypatch
):
    tensor = planted_small.tensor
    generator = np.random.default_rng(0)
    factors = initialize_factors(tensor.shape, (3, 3, 3), generator)
    core = initialize_core((3, 3, 3), np.random.default_rng(1))

    # Every attempt dies: a die-once worker would race a hedged twin of
    # its task on the other worker, which could finish it first.
    monkeypatch.setenv(INJECT_WORKER_DEATH_ENV, INJECT_DEATH_ALWAYS)
    with pytest.raises(WorkerFailureError, match="mode-1") as excinfo:
        parallel_update_factor_mode(
            tensor, factors, core, 1, regularization=0.01, n_workers=2,
            max_retries=0,
        )
    assert "rows never finished" in str(excinfo.value)
    # The function's own supervisor got the budget: one attempt, no retry.
    assert "max_task_retries=0" in str(excinfo.value)


def test_worker_exceptions_propagate_without_retry(planted_small):
    """A deterministic bug raised by a worker is not retried."""
    tensor = planted_small.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(0)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    with pytest.raises(Exception) as excinfo:
        parallel_update_factor_mode(
            tensor, factors, core, 0, regularization=0.01, n_workers=2,
            backend="no-such-backend",
        )
    assert not isinstance(excinfo.value, WorkerFailureError)

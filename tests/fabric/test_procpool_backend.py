"""Tests for the ``procpool`` kernel backend on the execution fabric."""

import os

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import (
    InMemorySource,
    build_mode_context,
    update_factor_mode,
)
from repro.kernels.backends import (
    ProcpoolBackend,
    available_backends,
    resolve_backend,
)
from repro.kernels import make_delta_contractor, solve_segments


def _mode_inputs(tensor, mode):
    """Mode-sorted entry arrays + segment starts for one whole-mode block."""
    context = build_mode_context(tensor, mode)
    return context.sorted_indices, context.sorted_values, context.row_starts


def _run_solver(backend, tensor, factors, core, mode):
    """``(rows, B, c)`` of one whole-mode block whose first and last rows
    stay partial, like rows a block boundary splits; workers solve the
    rest."""
    indices, values, starts = _mode_inputs(tensor, mode)
    solver = backend.make_row_solver(factors, core, mode, 0.1, indices.shape[0])
    return solver(indices, values, starts, 1, starts.shape[0] - 1)


class TestRegistry:
    def test_procpool_is_registered(self):
        assert "procpool" in available_backends()

    def test_resolve_returns_procpool_backend(self):
        assert isinstance(resolve_backend("procpool"), ProcpoolBackend)

    def test_config_accepts_procpool_by_name(self):
        config = PTuckerConfig(
            ranks=(2, 2, 2), max_iterations=1, backend="procpool"
        )
        assert config.backend == "procpool"


class TestBitwise:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_chunked_stacks_match_serial_reference(
        self, planted_small, mode, bitwise
    ):
        """Worker-solved rows and the outside (B, c) stacks are bitwise
        equal to numpy whatever the chunking."""
        tensor = planted_small.tensor
        factors = initialize_factors(
            tensor.shape, (3, 3, 3), np.random.default_rng(0)
        )
        core = initialize_core((3, 3, 3), np.random.default_rng(1))

        reference = resolve_backend("numpy")
        # Tiny chunk floor so even the small test tensor really crosses
        # the process pipe in several chunks.
        procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)

        expected = _run_solver(reference, tensor, factors, core, mode)
        got = _run_solver(procpool, tensor, factors, core, mode)
        for name, ours, theirs in zip(("rows", "B", "c"), got, expected):
            bitwise(ours, theirs, name)

    def test_single_worker_degrades_to_serial_without_spawning(
        self, planted_small, bitwise
    ):
        tensor = planted_small.tensor
        factors = initialize_factors(
            tensor.shape, (3, 3, 3), np.random.default_rng(0)
        )
        core = initialize_core((3, 3, 3), np.random.default_rng(1))
        reference = resolve_backend("numpy")
        degraded = ProcpoolBackend(n_workers=1)
        assert degraded._supervisor is None  # nothing spawned for n=1
        expected = _run_solver(reference, tensor, factors, core, 0)
        got = _run_solver(degraded, tensor, factors, core, 0)
        for name, ours, theirs in zip(("rows", "B", "c"), got, expected):
            bitwise(ours, theirs, name)

    def test_full_fit_matches_numpy_backend(self, planted_small, monkeypatch):
        """An entire fit through ``backend="procpool"`` is bitwise equal to
        the numpy backend fit (worker processes are invisible)."""
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "2")
        tensor = planted_small.tensor

        def fit(backend):
            config = PTuckerConfig(
                ranks=(3, 3, 3), max_iterations=2, seed=0, backend=backend
            )
            return PTucker(config).fit(tensor)

        reference = fit("numpy")
        result = fit("procpool")
        np.testing.assert_array_equal(result.core, reference.core)
        for ours, theirs in zip(result.factors, reference.factors):
            np.testing.assert_array_equal(ours, theirs)


class InProcessSupervisor:
    """Runs fabric frames in this process, recording every setup payload.

    Stands in for :class:`~repro.fabric.TaskSupervisor` so the dispatch
    logic and the worker-side callables can be inspected directly.
    """

    def __init__(self):
        from repro.fabric.worker import WorkerContext

        self.context = WorkerContext()
        self.setups = []
        self.tasks = []

    def broadcast_setup(self, key, fn, payload, replace_prefix=None):
        from repro.fabric.worker import resolve_callable

        self.setups.append(payload)
        self.context.setups[key] = resolve_callable(fn)(self.context, payload)

    def run_tasks(self, tasks):
        from repro.fabric.worker import resolve_callable

        self.tasks.extend(tasks)
        return [
            resolve_callable(task.fn)(self.context, task.payload) for task in tasks
        ]


def _sweep_inputs(tensor, mode, ranks=(3, 3, 3)):
    factors = initialize_factors(tensor.shape, ranks, np.random.default_rng(0))
    core = initialize_core(ranks, np.random.default_rng(1))
    return factors, core, _mode_inputs(tensor, mode)


def _reference_rows(factors, core, mode, expected_entries, block, lo, hi):
    """The serial reference's rows of segments ``[lo, hi)`` of ``block``."""
    indices, values, starts = block
    contractor = make_delta_contractor(factors, core, mode, expected_entries)
    rows, _, _ = solve_segments(contractor(indices), values, starts, 0.1, lo, hi)
    return rows


def _sweep_setup(factors, core, mode, expected_entries, regularization):
    """The setup payload the parent broadcasts for one sweep."""
    from repro.kernels.contraction import make_delta_contractor

    pre = make_delta_contractor(
        factors, core, mode, expected_entries
    ).precontraction_order
    shipped = [
        f if k in pre else np.empty((0, f.shape[1])) for k, f in enumerate(factors)
    ]
    return (shipped, core, mode, pre, expected_entries, regularization)


class TestRowSolver:
    #: planted_small has shape (20, 18, 16): at 17 expected entries only
    #: mode 2 is precontracted, so a mode-0 sweep batches mode 1.
    FEW_ENTRIES = 17

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 5), (1, 17), (1, 20), (20, 20)])
    def test_chunk_returns_rows_in_range_and_equations_outside(
        self, planted_small, lo, hi
    ):
        """The worker's chunk function solves ``[lo, hi)`` from the rows
        its task carries and returns ``(B, c)`` only for the segments
        outside it, bitwise as numpy."""
        from repro.fabric.worker import WorkerContext
        from repro.kernels.backends.procpool import _setup_sweep, _solve_chunk

        tensor = planted_small.tensor
        factors, core, (indices, values, starts) = _sweep_inputs(tensor, 0)
        assert starts.shape[0] == 20
        _, b_ref, c_ref = resolve_backend("numpy").make_row_solver(
            factors, core, 0, 0.1, self.FEW_ENTRIES
        )(indices, values, starts, 0, 0)

        context = WorkerContext()
        setup = _sweep_setup(factors, core, 0, self.FEW_ENTRIES, 0.1)
        assert setup[3] == (2,)
        context.setups["ne:test"] = _setup_sweep(context, setup)
        rows_in_task = [None, factors[1][indices[:, 1]], None]
        rows, b_out, c_out = _solve_chunk(
            context, ("ne:test", indices, values, starts, lo, hi, rows_in_task)
        )
        assert rows.shape == (hi - lo, 3)
        outside = np.r_[0:lo, hi:20]
        assert b_out.shape == (outside.shape[0], 3, 3)
        expected = _reference_rows(
            factors, core, 0, self.FEW_ENTRIES, (indices, values, starts), lo, hi
        )
        assert rows.tobytes() == expected.tobytes()
        assert b_out.tobytes() == b_ref[outside].tobytes()
        assert c_out.tobytes() == c_ref[outside].tobytes()

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("expected_entries", [None, FEW_ENTRIES])
    def test_setup_ships_placeholders_and_tasks_carry_rows(
        self, planted_small, mode, expected_entries
    ):
        """The updated mode and every batched mode ship as empty
        placeholders; precontracted modes ship whole, in the parent's
        precontraction order; each task carries its entries' rows of
        every batched mode and nothing for the others."""
        tensor = planted_small.tensor
        factors, core, (indices, values, starts) = _sweep_inputs(tensor, mode)
        expected_entries = expected_entries or indices.shape[0]
        supervisor = InProcessSupervisor()
        backend = ProcpoolBackend(
            n_workers=2, min_chunk_entries=8, supervisor=supervisor
        )
        solver = backend.make_row_solver(factors, core, mode, 0.1, expected_entries)
        (shipped, _, shipped_mode, pre, shipped_entries, regularization), = (
            supervisor.setups
        )
        assert shipped_mode == mode and regularization == 0.1
        assert shipped_entries == expected_entries
        assert pre == _sweep_setup(factors, core, mode, expected_entries, 0.1)[3]
        batched = [k for k in range(3) if k != mode and k not in pre]
        if expected_entries == self.FEW_ENTRIES:
            assert batched  # the mixed case really batches a mode
        for k, factor in enumerate(factors):
            if k in pre:
                assert shipped[k].tobytes() == factor.tobytes()
            else:
                assert shipped[k].shape == (0, 3)

        # Split the mode's segments like a block boundary would: the first
        # and last rows partial, everything between solved by the workers.
        n_segments = starts.shape[0]
        rows, b_out, c_out = solver(indices, values, starts, 1, n_segments - 1)
        assert len(supervisor.tasks) > 1
        for task in supervisor.tasks:
            chunk_indices, carried = task.payload[1], task.payload[6]
            for k in range(3):
                if k in batched:
                    expected_rows = factors[k][chunk_indices[:, k]]
                    assert carried[k].tobytes() == expected_rows.tobytes()
                else:
                    assert carried[k] is None
        _, b_ref, c_ref = resolve_backend("numpy").make_row_solver(
            factors, core, mode, 0.1, expected_entries
        )(indices, values, starts, 0, 0)
        expected = _reference_rows(
            factors, core, mode, expected_entries,
            (indices, values, starts), 1, n_segments - 1,
        )
        assert rows.tobytes() == expected.tobytes()
        assert b_out.tobytes() == b_ref[[0, -1]].tobytes()
        assert c_out.tobytes() == c_ref[[0, -1]].tobytes()

    @pytest.mark.parametrize("planted", ["planted_small", "planted_short_rows"])
    def test_update_factor_mode_matches_numpy(self, request, planted):
        """Through the driver, worker-solved rows equal the serial ones
        at block sizes that split rows across blocks, for rows longer
        and (mostly) shorter than the rank."""
        planted = request.getfixturevalue(planted)
        tensor = planted.tensor
        procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)
        for block_size in (7, 97, 10**6):
            factors, core, _ = _sweep_inputs(tensor, 0, planted.core.shape)
            expected = [f.copy() for f in factors]
            for mode in range(3):
                update_factor_mode(
                    tensor, expected, core, mode, 0.1, block_size=block_size
                )
                update_factor_mode(
                    tensor, factors, core, mode, 0.1,
                    block_size=block_size, backend=procpool,
                )
            for ours, theirs in zip(factors, expected):
                assert ours.tobytes() == theirs.tobytes()


class TestWorkerFailure:
    """How a fit sees workers that cannot finish its rows."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_exhausted_retry_budget_raises_worker_failure_error(
        self, planted_small, tmp_path, monkeypatch, mode
    ):
        """A chunk whose worker dies past the re-dispatch budget surfaces
        as WorkerFailureError naming the mode and rows, not as the
        fabric's chunk-keyed error."""
        import re

        from repro.exceptions import WorkerFailureError
        from repro.fabric import FabricError, TaskSupervisor
        from repro.fabric.worker import INJECT_KILL_ENV

        tensor = planted_small.tensor
        factors, core, _ = _sweep_inputs(tensor, mode)
        monkeypatch.setenv(INJECT_KILL_ENV, str(tmp_path / "kill"))
        supervisor = TaskSupervisor(
            2, hedge=False, max_task_retries=0, name="failure"
        )
        backend = ProcpoolBackend(
            n_workers=2, min_chunk_entries=8, supervisor=supervisor
        )
        try:
            with pytest.raises(
                WorkerFailureError, match=f"mode-{mode}"
            ) as excinfo:
                update_factor_mode(
                    tensor, factors, core, mode, 0.1, backend=backend
                )
        finally:
            supervisor.shutdown()
        assert isinstance(excinfo.value.__cause__, FabricError)
        assert "rows never finished" in str(excinfo.value)
        # The named rows are rows of this mode that hold entries.
        named = re.search(r"first few: \[([0-9, ]*)\]", str(excinfo.value))
        rows = [int(r) for r in named.group(1).split(",") if r.strip()]
        assert rows
        assert set(rows) <= set(np.unique(tensor.indices[:, mode]).tolist())

    def test_worker_raised_exception_propagates_unwrapped(self, planted_small):
        """A bug raised inside a worker is not a death: no wrapping."""
        from repro.exceptions import WorkerFailureError
        from repro.fabric import TaskSupervisor

        tensor = planted_small.tensor
        factors, core, (indices, values, starts) = _sweep_inputs(tensor, 0)
        out_of_range = np.asarray(indices)  # an int64 copy of the columns
        out_of_range[:, 1] = tensor.shape[1] + 1000
        supervisor = TaskSupervisor(2, name="raising")
        backend = ProcpoolBackend(
            n_workers=2, min_chunk_entries=8, supervisor=supervisor
        )
        try:
            solver = backend.make_row_solver(
                factors, core, 0, 0.1, indices.shape[0]
            )
            with pytest.raises(IndexError) as excinfo:
                solver(out_of_range, values, starts, 0, starts.shape[0])
        finally:
            supervisor.shutdown()
        assert not isinstance(excinfo.value, WorkerFailureError)


def _wide_tensor(dim, nnz, seed=0):
    """A uniform order-3 tensor with far more rows per mode than entries."""
    from repro.tensor import SparseTensor

    rng = np.random.default_rng(seed)
    indices = np.unique(
        np.column_stack([rng.integers(0, dim, nnz) for _ in range(3)]), axis=0
    )
    return SparseTensor(indices, rng.random(indices.shape[0]), (dim,) * 3)


class TestTraffic:
    """What crosses the process pipes: counted by the fabric, not computed."""

    RANK = 8

    def _update(self, tensor, supervisor):
        """One mode-0 update on procpool, checked byte-equal to numpy."""
        factors = initialize_factors(
            tensor.shape, (self.RANK,) * 3, np.random.default_rng(0)
        )
        core = initialize_core((self.RANK,) * 3, np.random.default_rng(1))
        expected = [f.copy() for f in factors]
        update_factor_mode(tensor, expected, core, 0, 0.1)
        backend = ProcpoolBackend(
            n_workers=2, min_chunk_entries=500, supervisor=supervisor
        )
        update_factor_mode(tensor, factors, core, 0, 0.1, backend=backend)
        assert factors[0].tobytes() == expected[0].tobytes()
        return factors

    def test_setup_is_smaller_than_a_factor_and_tasks_scale_with_entries(self):
        from repro.fabric import TaskSupervisor
        from repro.metrics import Counters

        tensor = _wide_tensor(20_000, 4_000)
        counters = Counters()
        supervisor = TaskSupervisor(
            2, hedge=False, counters=counters, name="traffic"
        )
        try:
            factors = self._update(tensor, supervisor)
        finally:
            supervisor.shutdown()
        nnz = tensor.nnz
        assert counters.get("fabric.tasks_dispatched") > 1
        # No mode is precontracted (I_k >> nnz): the setups carry the
        # core and empty placeholders only, to every worker.
        assert 0 < counters.get("fabric.setup_bytes") < factors[1].nbytes
        # Tasks carry each entry's factor rows of the two other modes,
        # plus its index, value and segment start.
        row_bytes = nnz * 2 * self.RANK * 8
        entry_bytes = tensor.indices.nbytes + tensor.values.nbytes
        assert row_bytes < counters.get("fabric.task_bytes")
        assert counters.get("fabric.task_bytes") <= 1.2 * row_bytes + entry_bytes
        assert counters.get("fabric.result_bytes") > 0

    def test_frames_follow_the_chunk_not_the_factor(self, monkeypatch):
        """A frame limit below one whole factor but above a chunk's frame
        still runs the update, byte-equal to numpy."""
        from repro.fabric import TaskSupervisor

        tensor = _wide_tensor(20_000, 4_000)
        factor_bytes = 20_000 * self.RANK * 8
        monkeypatch.setattr(
            "repro.fabric.protocol.MAX_PAYLOAD_BYTES", factor_bytes // 2
        )
        supervisor = TaskSupervisor(2, hedge=False, name="frames")
        try:
            self._update(tensor, supervisor)
        finally:
            supervisor.shutdown()


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="scanning for survivors needs /proc"
)
def test_cli_fit_leaves_no_process_behind(tmp_path):
    """A procpool fit's worker processes are all gone when the CLI exits."""
    import signal
    import subprocess
    import sys

    import repro

    tensor = _wide_tensor(3_000, 70_000)
    path = tmp_path / "wide.txt"
    np.savetxt(
        path,
        np.column_stack([tensor.indices + 1, tensor.values]),
        fmt=["%d", "%d", "%d", "%.6f"],
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, REPRO_PROC_WORKERS="2")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fit", str(path),
            "--backend", "procpool", "--ranks", "4", "4", "4",
            "--max-iterations", "1", "--output", str(tmp_path / "model"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    session = proc.pid  # the child leads the session it started
    survivors = []
    for stat in os.listdir("/proc"):
        if not stat.isdigit():
            continue
        try:
            with open(f"/proc/{stat}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == session:
            survivors.append(int(stat))
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"processes outlived the fit: {survivors}"


@pytest.mark.parametrize(
    "n_entries, n_workers, expected",
    [(100_000, 2, 2), (40_000, 2, 1), (4 * 32_768, 2, 4), (300_000, 3, 6)],
)
def test_chunks_fill_whole_waves(n_entries, n_workers, expected):
    """Past one wave the chunk count is a multiple of the worker count,
    so no lone remainder chunk runs while its peers idle."""
    backend = ProcpoolBackend(n_workers=n_workers)
    assert backend._n_chunks(n_entries, 10**6) == expected


class TestWorkerCountResolution:
    def test_env_override(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "5")
        assert ProcpoolBackend().n_workers == 5

    def test_constructor_beats_env(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "5")
        assert ProcpoolBackend(n_workers=3).n_workers == 3

    def test_garbage_env_falls_back_to_cpu_count(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "not-a-number")
        assert ProcpoolBackend().n_workers == max(1, os.cpu_count() or 1)


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="procpool-vs-threaded wall-clock needs at least 2 CPUs",
)
def test_procpool_vs_threaded_wall_clock_is_recorded():
    """Record whole-mode procpool and threaded times; results stay bitwise.

    A measurement, not a race: on a 2-vCPU Xeon host procpool was slower
    than threaded on every shape tried (the tiled contraction's GEMMs
    release the GIL, so threads overlap and pay no pickling), so no
    ordering is asserted.  Run with ``-s`` to see the times.
    """
    import time

    from repro.data import planted_tucker_tensor

    problem = planted_tucker_tensor(
        shape=(300, 300, 300),
        ranks=(8, 8, 8),
        nnz=400_000,
        noise_level=0.01,
        seed=0,
    )
    tensor = problem.tensor
    factors = initialize_factors(
        tensor.shape, (8, 8, 8), np.random.default_rng(0)
    )
    core = initialize_core((8, 8, 8), np.random.default_rng(1))
    source = InMemorySource.build(tensor, modes=(0,))

    def update(backend):
        fresh = [f.copy() for f in factors]
        update_factor_mode(
            source, fresh, core, 0, 0.01, block_size=tensor.nnz,
            backend=backend,
        )
        return fresh[0]

    def best_of(backend, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            update(backend)
            times.append(time.perf_counter() - start)
        return min(times)

    workers = min(4, os.cpu_count() or 2)
    procpool = ProcpoolBackend(n_workers=workers)
    threaded = resolve_backend("threaded")
    update(procpool)  # warm the pool
    t_proc = best_of(procpool)
    t_thread = best_of(threaded)
    print(
        f"\nwhole-mode update, {tensor.nnz} entries, J=8, "
        f"{os.cpu_count()} CPUs: procpool ({workers} workers) "
        f"{t_proc:.3f}s, threaded {t_thread:.3f}s"
    )
    reference = update("numpy")
    assert update(procpool).tobytes() == reference.tobytes()
    assert update(threaded).tobytes() == reference.tobytes()

"""Fault-injection utilities driving the resilience and chaos tests.

:class:`FaultInjector` produces the two fault families the test suite
exercises deliberately (worker-process faults are injected through the
fabric's own sentinels, :mod:`repro.fabric.worker`):

* **process death** — spawn a real child CLI fit and SIGKILL it the
  moment an observable on-disk condition holds (a checkpoint manifest
  landing, a scratch directory appearing), which is exactly the abrupt
  stop an OOM-kill or power loss produces: no exception handlers, no
  ``atexit``, no flushes;
* **file corruption** — truncate or bit-flip a chosen artifact after the
  fact, simulating torn writes and silent media decay.

Randomised choices (which iteration to kill at, which byte to flip) come
from a seeded generator so every chaos run is reproducible.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from typing import Callable, Optional, Sequence

import numpy as np

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Child script for a deterministic mid-build crash: run a streaming shard
#: build whose entry source SIGKILLs the process after N chunks, leaving a
#: stale ``.ingest-tmp`` and no manifest — the interrupted-build state the
#: next build must detect and clean.
_KILLED_BUILD_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    tensor_path, out_dir, die_after, chunk_nnz, shard_nnz = sys.argv[1:6]
    from repro.tensor.io import open_entry_reader
    from repro.shards.merge import streaming_build

    class DieAfterChunks:
        def __init__(self, reader, n):
            self._reader = reader
            self._n = n
            self.shape = getattr(reader, "shape", None)

        def iter_entry_chunks(self, chunk_nnz):
            for number, chunk in enumerate(
                self._reader.iter_entry_chunks(chunk_nnz)
            ):
                if number == self._n:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield chunk

    streaming_build(
        DieAfterChunks(open_entry_reader(tensor_path), int(die_after)),
        out_dir,
        shard_nnz=int(shard_nnz),
        chunk_nnz=int(chunk_nnz),
    )
    """
)


def repro_env(extra: Optional[dict] = None) -> dict:
    """A child environment that resolves ``import repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update({k: str(v) for k, v in extra.items()})
    return env


class FaultInjector:
    """Deterministic (seeded) injection of crashes and file corruption."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    # -- process-level faults ----------------------------------------
    def spawn_cli(
        self, argv: Sequence[str], extra_env: Optional[dict] = None
    ) -> subprocess.Popen:
        """Start ``python -m repro <argv>`` as a real child process."""
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=repro_env(extra_env),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def kill_when(
        self,
        process: subprocess.Popen,
        condition: Callable[[], bool],
        timeout: float = 120.0,
        poll: float = 0.005,
    ) -> bool:
        """SIGKILL ``process`` once ``condition()`` holds.

        Returns True when the kill landed while the process was alive,
        False when it exited on its own first (the fault missed).  Raises
        after ``timeout`` seconds so a wedged child cannot hang the suite.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if condition():
                process.kill()
                process.wait()
                return True
            if process.poll() is not None:
                return False
            time.sleep(poll)
        process.kill()
        process.wait()
        raise TimeoutError("fault condition never became true")

    def kill_fit_at_iteration(
        self,
        fit_argv: Sequence[str],
        checkpoint_dir: str,
        iteration: Optional[int] = None,
        low: int = 2,
        high: int = 4,
        timeout: float = 120.0,
    ) -> int:
        """Run a CLI fit and SIGKILL it once iteration ``iteration`` commits.

        ``iteration`` defaults to a seeded-random draw from [low, high].
        Returns the targeted iteration.  The caller should verify the fit
        did not finish (e.g. the last checkpoint is below max_iterations).
        """
        if iteration is None:
            iteration = int(self.rng.integers(low, high + 1))
        marker = os.path.join(
            checkpoint_dir, f"iter{iteration:07d}", "manifest.json"
        )
        process = self.spawn_cli(fit_argv)
        self.kill_when(
            process, lambda: os.path.exists(marker), timeout=timeout
        )
        return iteration

    def kill_streaming_build_mid_ingest(
        self,
        tensor_path: str,
        out_dir: str,
        die_after_chunks: int = 2,
        chunk_nnz: int = 100,
        shard_nnz: int = 500,
    ) -> None:
        """Run a child shard build that SIGKILLs itself mid-ingest.

        Deterministic by construction: the child's entry source kills the
        process after ``die_after_chunks`` chunks, so the build always
        dies with ``.ingest-tmp`` populated and no manifest written.
        """
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _KILLED_BUILD_SCRIPT,
                str(tensor_path),
                str(out_dir),
                str(die_after_chunks),
                str(chunk_nnz),
                str(shard_nnz),
            ],
            env=repro_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        process.wait()
        assert process.returncode == -9, (
            f"child build should die by SIGKILL, exited {process.returncode}"
        )

    # -- file-level faults -------------------------------------------
    def truncate(self, path: str, keep_fraction: float = 0.5) -> None:
        """Cut ``path`` down to a fraction of its size (a torn write)."""
        size = os.path.getsize(path)
        keep = min(max(1, int(size * keep_fraction)), size - 1)
        with open(path, "r+b") as handle:
            handle.truncate(keep)

    def bit_flip(
        self, path: str, offset: Optional[int] = None, bit: int = 0
    ) -> int:
        """Flip bit ``bit`` of one byte of ``path``; returns the offset."""
        size = os.path.getsize(path)
        if offset is None:
            offset = int(self.rng.integers(0, size))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        return offset

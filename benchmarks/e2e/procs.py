"""Child processes of the program under test, with their resource usage.

Every CLI stage runs as a fresh ``python -m repro`` process.  The child is
reaped with :func:`os.wait4`, whose ``rusage`` gives user and system CPU,
minor faults and peak RSS for the child together with every descendant it
reaped itself (the ``procpool`` workers of a fit).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

#: Longest any single CLI stage may run before it is killed and failed.
STAGE_TIMEOUT_S = 150.0


@dataclass
class Stage:
    """One finished child process."""

    name: str
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    user_s: float
    sys_s: float
    minflt: int
    rss_mb: float
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


class Cli:
    """Starts ``python -m repro`` with ``src`` as its only import path.

    Each child's stdout and stderr go to numbered files under ``logdir``.
    """

    def __init__(self, src: str, logdir: str) -> None:
        self.src = src
        self.logdir = logdir
        self.counter = 0

    def spawn(
        self, name: str, args: Sequence[str], extra_env: Optional[Dict[str, str]] = None
    ) -> "Running":
        self.counter += 1
        base = os.path.join(self.logdir, f"{self.counter:03d}-{name}")
        env = dict(os.environ, PYTHONPATH=self.src, **(extra_env or {}))
        out = open(base + ".out", "w+", encoding="utf-8")
        err = open(base + ".err", "w+", encoding="utf-8")
        started = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], stdout=out, stderr=err, env=env
            )
        except OSError:
            out.close()
            err.close()
            raise
        return Running(name, proc, started, out, err)

    def run(
        self, name: str, args: Sequence[str], extra_env: Optional[Dict[str, str]] = None
    ) -> Stage:
        """Run one CLI stage to completion."""
        return self.spawn(name, args, extra_env).wait()


class Running:
    """A started child; :meth:`wait` reaps it with ``wait4``."""

    def __init__(self, name, proc, started, out, err) -> None:
        self.name = name
        self.proc = proc
        self.started = started
        self._out = out
        self._err = err

    def read_stdout(self) -> str:
        with open(self._out.name, encoding="utf-8") as handle:
            return handle.read()

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    def wait(self, timeout: float = STAGE_TIMEOUT_S) -> Stage:
        killed = threading.Event()

        def on_timeout() -> None:
            killed.set()
            self.kill()

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - self.started
        # Reaped here, so Popen must not wait for the pid again.
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._out.seek(0)
        self._err.seek(0)
        stdout, stderr = self._out.read(), self._err.read()
        self._out.close()
        self._err.close()
        return Stage(
            name=self.name,
            wall_s=wall,
            returncode=self.proc.returncode,
            stdout=stdout,
            stderr=stderr,
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            minflt=usage.ru_minflt,
            rss_mb=usage.ru_maxrss / 1024.0,
            timed_out=killed.is_set(),
        )

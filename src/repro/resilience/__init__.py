"""Fault tolerance: atomic on-disk writes and crash-safe checkpoint/resume.

Long fits over out-of-core shard stores run for hours; this package is the
durability substrate that makes them interruptible.  Two halves:

* :mod:`repro.resilience.atomic` — the write-tmp, fsync, rename discipline
  (:func:`~repro.resilience.atomic.atomic_open` and friends) used by every
  durable artifact in the library: shard-store manifests and shard files,
  ``.rcoo`` containers, fitted ``.npz`` models and checkpoint files.  A
  crash at any instant leaves either the complete old file or the complete
  new file, never a torn one.
* :mod:`repro.resilience.checkpoint` — versioned per-iteration fit
  checkpoints (:class:`~repro.resilience.checkpoint.CheckpointManager`):
  factors + core + convergence trace, each file SHA-256-checksummed, the
  manifest written last, so a checkpoint is either complete and verifiable
  or invisible.  Resuming continues the trajectory bitwise-identically to
  an uninterrupted fit; corruption raises
  :class:`~repro.exceptions.DataFormatError` naming the file and the last
  valid checkpoint to fall back to.

Wire it with ``PTuckerConfig(checkpoint_dir=..., checkpoint_every=...,
resume=...)`` or the CLI ``fit --checkpoint-dir DIR`` / ``--resume``.

A third half, :mod:`repro.resilience.retry`, is the shared *transient
failure* vocabulary: :class:`~repro.resilience.retry.BackoffPolicy`
exponential backoff with decorrelated jitter.  The execution fabric
(:mod:`repro.fabric`) schedules worker respawns and task re-dispatches
with it, so the ``procpool`` row updates inherit the same policy.
"""

from .retry import BackoffPolicy, decorrelated_jitter
from .atomic import (
    TMP_SUFFIX,
    atomic_open,
    atomic_save_array,
    atomic_write_bytes,
    atomic_write_json,
    fsync_directory,
    fsync_file,
    is_tmp_path,
    sha256_file,
    tmp_path_for,
)

#: Names served lazily from :mod:`repro.resilience.checkpoint`.  That module
#: imports :mod:`repro.core` (for the convergence trace), while low-level
#: writers (:mod:`repro.tensor.io`, :mod:`repro.shards.store`) import this
#: package for the atomic helpers — loading checkpoint eagerly here would
#: close an import cycle through ``repro.core``.
_CHECKPOINT_EXPORTS = (
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "CheckpointState",
    "fit_state_digest",
    "resume_state",
)


def __getattr__(name: str):
    if name in _CHECKPOINT_EXPORTS:
        from . import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BackoffPolicy",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "CheckpointState",
    "TMP_SUFFIX",
    "decorrelated_jitter",
    "atomic_open",
    "atomic_save_array",
    "atomic_write_bytes",
    "atomic_write_json",
    "fit_state_digest",
    "fsync_directory",
    "fsync_file",
    "is_tmp_path",
    "resume_state",
    "sha256_file",
    "tmp_path_for",
]

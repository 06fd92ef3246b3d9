"""Fitted-model round trip: one ``.npz`` save/load pair for the whole repo.

The CLI, the serving layer, tests and notebooks all need to move a fitted
:class:`~repro.core.result.TuckerResult` (factors + core) between
processes.  Historically only :mod:`repro.cli` could write the ``.npz``
and every consumer re-parsed it by hand; this module is the single
implementation both sides use:

* :func:`save_model` — atomic ``<prefix>.npz`` write (temp file, fsync,
  rename) holding the core, every factor, the algorithm name and a
  ``digest`` — a SHA-256 over the shapes, ranks and raw float bytes — so
  a torn or bit-flipped archive is detected at load instead of silently
  serving a wrong model.  Members are stored, not deflated: fitted
  float64 factors shrink by about 4 % under zlib, which costs about 20×
  the write time and about 5× the read time.
* :func:`load_model` — the round trip, with structural validation: the
  factor count must match the core order, each factor's column count must
  match the core's extent on that mode, and the digest (when present;
  archives written before it existed still load) must verify.  Deflated
  archives written before members were stored load the same way.
  Violations, and members that cannot be read (bad CRC, truncated data,
  a mangled ``.npy`` header), raise
  :class:`~repro.exceptions.DataFormatError` naming the file and the
  mismatch or member — never a downstream shape surprise or a raw
  ``zipfile`` traceback.
* :func:`load_result` — accepts either a model ``.npz`` *or* a
  checkpoint directory written by
  :class:`~repro.resilience.checkpoint.CheckpointManager` (the newest
  valid checkpoint is used, checksums verified), optionally memory-mapping
  the factor arrays so a million-row model can be served without copying
  it into RAM up front.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib
from typing import Dict, List

import numpy as np

from .core.result import TuckerResult
from .exceptions import DataFormatError
from .resilience.atomic import atomic_open

#: ``format`` field stored inside every model archive written here.
MODEL_FORMAT = "repro-model"

#: Current model archive schema version.
MODEL_VERSION = 1


def model_digest(core: np.ndarray, factors: List[np.ndarray]) -> str:
    """SHA-256 over shapes, ranks and raw float64 bytes of a model.

    Canonicalised to C-contiguous float64, so the digest is a property of
    the model's values, not of memory layout or dtype accidents.  Arrays
    already in that form are hashed through the buffer protocol, without
    a ``tobytes()`` copy.
    """
    digest = hashlib.sha256()
    digest.update(repr(tuple(core.shape)).encode("ascii"))
    digest.update(np.ascontiguousarray(core, dtype=np.float64))
    for factor in factors:
        digest.update(repr(tuple(factor.shape)).encode("ascii"))
        digest.update(np.ascontiguousarray(factor, dtype=np.float64))
    return digest.hexdigest()


def validate_model(core: np.ndarray, factors: List[np.ndarray], where: str) -> None:
    """Raise :class:`DataFormatError` unless factors and core are consistent."""
    if core.ndim != len(factors):
        raise DataFormatError(
            f"{where}: model is inconsistent — core has {core.ndim} modes "
            f"but {len(factors)} factor matrices were stored"
        )
    for mode, factor in enumerate(factors):
        if factor.ndim != 2:
            raise DataFormatError(
                f"{where}: factor_{mode} is {factor.ndim}-dimensional; "
                "factor matrices must be 2-D (rows x rank)"
            )
        if factor.shape[1] != core.shape[mode]:
            raise DataFormatError(
                f"{where}: rank mismatch on mode {mode} — factor_{mode} has "
                f"{factor.shape[1]} columns but the core's extent there is "
                f"{core.shape[mode]}"
            )


def save_model(result: TuckerResult, prefix: str) -> str:
    """Store a fitted model as ``<prefix>.npz`` and return the file name.

    The archive is written atomically (temporary file, fsync, rename), so
    a crash mid-save leaves the previous model intact instead of a torn
    half-archive, and carries a content digest for load-time verification.
    Its members are stored uncompressed (``ZIP_STORED``).
    """
    factors = [np.asarray(f) for f in result.factors]
    core = np.asarray(result.core)
    validate_model(core, factors, prefix)
    arrays = {
        "core": core,
        "algorithm": np.asarray(result.algorithm),
        "format": np.asarray(MODEL_FORMAT),
        "version": np.asarray(MODEL_VERSION),
        "digest": np.asarray(model_digest(core, factors)),
    }
    for mode, factor in enumerate(factors):
        arrays[f"factor_{mode}"] = factor
    path = f"{prefix}.npz"
    with atomic_open(path) as handle:
        np.savez(handle, **arrays)
    return path


def _read_members(data, path: str) -> Dict[str, np.ndarray]:
    """Every member of an open archive, read (and CRC-checked) in full.

    A member that cannot be read — bad CRC, corrupt deflate stream,
    truncated data, a mangled ``.npy`` header, a local header whose
    offset, flags or compression method were damaged — raises
    :class:`DataFormatError` naming the file and the member.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name in data.files:
        try:
            arrays[name] = data[name]
        # zipfile raises RuntimeError for a member flagged as encrypted and
        # its subclass NotImplementedError for an unknown compression
        # method; OSError comes from seeking to a damaged header offset.
        except (
            zipfile.BadZipFile, zlib.error, EOFError, ValueError, OSError, RuntimeError
        ) as exc:
            raise DataFormatError(
                f"{path}: model archive is corrupt — member '{name}.npy' "
                f"cannot be read: {exc}"
            ) from exc
    return arrays


def load_model(path: str) -> TuckerResult:
    """Load a model ``.npz`` written by :func:`save_model`, verified.

    Archives from before the digest existed (the CLI's original
    ``save_model``) load fine — they simply skip the content check; the
    structural rank/shape validation always runs.  Archives with deflated
    members (every archive written before members were stored) load and
    verify the same way.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"{path}: cannot read model archive: {exc}") from exc
    with data:
        arrays = _read_members(data, path)
    if "core" not in arrays:
        raise DataFormatError(
            f"{path}: not a model archive (no 'core' array); expected "
            "an .npz written by save_model / the CLI --output flag"
        )
    core = arrays["core"]
    factors: List[np.ndarray] = []
    mode = 0
    while f"factor_{mode}" in arrays:
        factors.append(arrays[f"factor_{mode}"])
        mode += 1
    if not factors:
        raise DataFormatError(
            f"{path}: model archive holds no factor matrices"
        )
    algorithm = str(arrays["algorithm"]) if "algorithm" in arrays else ""
    stored_digest = str(arrays["digest"]) if "digest" in arrays else ""
    validate_model(core, factors, path)
    if stored_digest:
        actual = model_digest(core, factors)
        if actual != stored_digest:
            raise DataFormatError(
                f"{path}: model archive is corrupt — content digest "
                f"{actual[:12]}… does not match the stored "
                f"{stored_digest[:12]}…"
            )
    return TuckerResult(core=core, factors=factors, algorithm=algorithm)


def _load_checkpoint_result(directory: str, mmap: bool) -> TuckerResult:
    """Newest valid checkpoint of a fit, as a result (optionally mmap'd)."""
    from .resilience.checkpoint import CheckpointManager

    manager = CheckpointManager(directory)
    latest = manager.latest_iteration()
    if latest is None:
        raise DataFormatError(
            f"{directory}: no complete checkpoint found (a directory is a "
            "model source only when it holds iterNNNNNNN checkpoints with "
            "manifests, or pass a model .npz instead)"
        )
    # Checksums first — corruption surfaces as a named DataFormatError with
    # the fall-back checkpoint, exactly as resume diagnoses it.
    manager.validate(latest)
    state = manager.load(latest)
    if not mmap:
        result = TuckerResult(
            core=state.core, factors=state.factors, algorithm="ptucker"
        )
        validate_model(result.core, result.factors, directory)
        return result
    iter_dir = manager.iter_dir(latest)
    mmap_factors = [
        np.load(
            os.path.join(iter_dir, f"factor{mode}.npy"),
            allow_pickle=False,
            mmap_mode="r",
        )
        for mode in range(len(state.factors))
    ]
    validate_model(state.core, mmap_factors, directory)
    return TuckerResult(core=state.core, factors=mmap_factors, algorithm="ptucker")


def load_result(path: str, mmap: bool = False) -> TuckerResult:
    """Load a fitted model from a ``.npz`` file or a checkpoint directory.

    ``mmap=True`` memory-maps the factor matrices read-only instead of
    copying them into RAM; it applies to checkpoint directories only
    (plain ``.npy`` files) — ``np.load`` cannot memory-map the members of
    an ``.npz`` archive, so an archive is always read into RAM (a
    :class:`DataFormatError` says so rather than silently ignoring the
    flag).
    """
    if os.path.isdir(path):
        return _load_checkpoint_result(path, mmap)
    if mmap:
        raise DataFormatError(
            f"{path}: mmap loading needs a checkpoint directory of .npy "
            "files; np.load cannot memory-map the members of an .npz archive"
        )
    return load_model(path)

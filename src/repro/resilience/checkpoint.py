"""Crash-safe, versioned fit checkpoints: save, validate, resume.

A long P-Tucker fit over a billion-entry shard store runs for hours; a
SIGKILL at iteration 37 of 50 must not throw the trajectory away.  The
:class:`CheckpointManager` writes one directory per checkpointed
iteration::

    <dir>/iter0000007/
        factor0.npy ... factorN.npy   # factor matrices entering iter 8
        core.npy                      # core tensor entering iter 8
        trace.json                    # convergence records + verdict
        manifest.json                 # written LAST; sha256 per file

Every data file is written through the atomic rename helpers of
:mod:`repro.resilience.atomic` and checksummed; the manifest — which
names every file with its SHA-256 and byte size — is written last, so a
crash mid-checkpoint leaves a directory *without* a manifest, which the
loader simply ignores.  A checkpoint is therefore either complete and
verifiable or invisible; there is no torn state to misread.

Resuming restores the factor matrices, core and convergence trace and
re-enters the ALS loop at ``iteration + 1``.  The per-iteration update is
deterministic given that state (the RNG only seeds the *initial* factors,
which the checkpoint supersedes), so a resumed fit continues the
trajectory **bitwise-identically** to an uninterrupted one — the chaos tests kill fits at random iterations
and assert exact equality of the final model.  A ``config_digest``
recorded in the manifest pins the trajectory-critical hyper-parameters
(ranks, regularization, seed, backend, block size, orthogonalization,
solver variant) plus the data fingerprint, so
resuming against different data or maths fails loudly instead of
continuing a different fit; stopping-only knobs (``max_iterations``,
``tolerance``, ``min_iterations``) are deliberately excluded so a resume
may extend or shorten training.

With ``diff=True`` the manager stores successive factor states as
**low-rank R@C diffs** (:mod:`repro.updates.lowrank`): after one full
base checkpoint, each save writes only the rows that changed since the
previous save (``factorN.rows.npy`` + ``factorN.diff.npy``) plus the
full core and trace, and records ``base_iteration`` in its manifest.
Loading resolves the chain recursively — every link verified — and
reconstructs factors **bitwise-equal** to what a full checkpoint would
have held, so ``fit --resume`` works identically on chains.  Only
``run_als`` saves checkpoints, and an ALS sweep rewrites every row that
has observed entries, so what a diff spares over a full save is the rows
of each mode with no observed entries: ALS never rewrites them.

Corruption is diagnosed, never silently repaired: loading a checkpoint
whose file fails its checksum (bit flip) or size (truncation) raises
:class:`~repro.exceptions.DataFormatError` naming the offending file
*and* the newest earlier checkpoint that still validates, so the caller
knows exactly what to fall back to.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.trace import ConvergenceTrace, IterationRecord
from ..exceptions import DataFormatError
from .atomic import atomic_save_array, atomic_write_json, sha256_file

#: ``format`` field value identifying a checkpoint manifest.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Current checkpoint schema version.
CHECKPOINT_VERSION = 1

#: Manifest file name inside one checkpoint directory (written last).
MANIFEST_NAME = "manifest.json"

#: Checkpoint directory name pattern (``iter0000007``).
_ITER_DIR_RE = re.compile(r"^iter(\d{7})$")


def _iter_dir_name(iteration: int) -> str:
    return f"iter{int(iteration):07d}"


def fit_state_digest(
    shape: Sequence[int],
    nnz: int,
    ranks: Sequence[int],
    regularization: float,
    seed: Optional[int],
    orthogonalize: bool,
    backend: object,
    block_size: int,
    entries_sha256: Optional[str] = None,
    variant: Optional[Dict[str, object]] = None,
) -> str:
    """Digest of everything that fixes a fit's numerical trajectory.

    Two fits with equal digests walk bit-for-bit the same factor/core
    sequence, so a checkpoint of one may seed the other.  Stopping-only
    knobs (``max_iterations``/``tolerance``/``min_iterations``) are
    excluded on purpose: resuming with a higher iteration cap *extends*
    the same trajectory, which is a feature, not a mismatch.  ``backend``
    accepts a name or a backend instance (its ``name`` is digested);
    every registered backend is bitwise-equal anyway, so this is a
    belt-and-braces pin, not a numerical necessity.  ``variant`` names a
    solver variant and its trajectory-critical settings (for example
    ``{"name": "P-Tucker-Approx", "truncation_rate": 0.2}``), so a variant
    never resumes another solver's checkpoint; plain P-Tucker passes
    ``None`` and keeps the digest it always had.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "shape": [int(s) for s in shape],
        "nnz": int(nnz),
        "ranks": [int(r) for r in ranks],
        "regularization": float(regularization),
        "seed": None if seed is None else int(seed),
        "orthogonalize": bool(orthogonalize),
        "backend": getattr(backend, "name", None) or str(backend),
        "block_size": int(block_size),
        "entries_sha256": entries_sha256,
    }
    if variant:
        payload["variant"] = variant
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_to_json(trace: ConvergenceTrace) -> Dict[str, object]:
    return {
        "records": [
            {
                "iteration": r.iteration,
                "reconstruction_error": r.reconstruction_error,
                "loss": r.loss,
                "seconds": r.seconds,
                "core_nnz": r.core_nnz,
            }
            for r in trace.records
        ],
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
    }


def _trace_from_json(payload: Dict[str, object]) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    for record in payload["records"]:
        trace.add(
            IterationRecord(
                iteration=int(record["iteration"]),
                reconstruction_error=float(record["reconstruction_error"]),
                loss=float(record["loss"]),
                seconds=float(record["seconds"]),
                core_nnz=(
                    None
                    if record.get("core_nnz") is None
                    else int(record["core_nnz"])
                ),
            )
        )
    trace.converged = bool(payload["converged"])
    trace.stop_reason = str(payload["stop_reason"])
    return trace


@dataclass
class CheckpointState:
    """Everything a fit loop needs to continue from iteration ``iteration + 1``."""

    iteration: int
    factors: List[np.ndarray]
    core: np.ndarray
    trace: ConvergenceTrace
    config_digest: str


class CheckpointManager:
    """Versioned per-iteration fit checkpoints under one directory.

    Parameters
    ----------
    directory:
        Root of the checkpoint tree (created on first save).
    every:
        Save every ``every``-th iteration (the fit loop also forces a
        save on its final iteration, so the last state is always
        recoverable regardless of the cadence).
    diff:
        Store factor states as low-rank row diffs against the previous
        save of this manager instance.  The first save of a run (and the
        first after a resume) is always a full checkpoint, so every chain
        is anchored within the process that wrote it.
    """

    def __init__(self, directory: str, every: int = 1, diff: bool = False) -> None:
        if every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        self.directory = os.fspath(directory)
        self.every = int(every)
        self.diff = bool(diff)
        self._diff_base: Optional[tuple] = None

    # ------------------------------------------------------------------
    def due(self, iteration: int, final: bool = False) -> bool:
        """True when ``iteration`` should be checkpointed under the cadence."""
        return final or iteration % self.every == 0

    def iter_dir(self, iteration: int) -> str:
        """Absolute path of one iteration's checkpoint directory."""
        return os.path.join(self.directory, _iter_dir_name(iteration))

    def iterations(self) -> List[int]:
        """Iterations with a *complete* checkpoint (manifest present), sorted.

        A directory whose manifest never landed — the signature of a
        crash mid-save — is not listed: it is invisible to resume and
        overwritten by the next save of that iteration.
        """
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        found: List[int] = []
        for name in names:
            match = _ITER_DIR_RE.match(name)
            if match and os.path.exists(
                os.path.join(self.directory, name, MANIFEST_NAME)
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_iteration(self) -> Optional[int]:
        """The newest complete checkpoint's iteration (None when empty)."""
        found = self.iterations()
        return found[-1] if found else None

    # ------------------------------------------------------------------
    def save(
        self,
        iteration: int,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        trace: ConvergenceTrace,
        config_digest: str,
    ) -> str:
        """Write one checkpoint; returns its directory.

        Data files first (each atomically renamed into place and
        checksummed), the manifest last — the commit point.  A leftover
        directory from a crashed save of the same iteration is replaced.

        In diff mode, a save with a previous save to anchor to writes
        per-factor changed-row diffs instead of full factor files and
        records the anchor as ``base_iteration``.
        """
        iter_dir = self.iter_dir(iteration)
        if os.path.isdir(iter_dir):
            shutil.rmtree(iter_dir)
        os.makedirs(iter_dir)

        files: Dict[str, Dict[str, object]] = {}

        def _put_array(name: str, array: np.ndarray) -> None:
            path = os.path.join(iter_dir, name)
            atomic_save_array(path, np.ascontiguousarray(array))
            files[name] = {
                "sha256": sha256_file(path),
                "bytes": os.path.getsize(path),
            }

        base_iteration: Optional[int] = None
        if self.diff and self._diff_base is not None:
            from ..updates.lowrank import factor_diff

            base_iteration, base_factors = self._diff_base
            for mode, factor in enumerate(factors):
                diff = factor_diff(base_factors[mode], factor)
                _put_array(f"factor{mode}.rows.npy", diff.rows)
                _put_array(f"factor{mode}.diff.npy", diff.values)
        else:
            for mode, factor in enumerate(factors):
                _put_array(f"factor{mode}.npy", factor)
        _put_array("core.npy", core)

        trace_path = os.path.join(iter_dir, "trace.json")
        atomic_write_json(trace_path, _trace_to_json(trace))
        files["trace.json"] = {
            "sha256": sha256_file(trace_path),
            "bytes": os.path.getsize(trace_path),
        }

        manifest: Dict[str, object] = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "iteration": int(iteration),
            "order": len(factors),
            "config_digest": config_digest,
            "files": files,
        }
        if base_iteration is not None:
            manifest["base_iteration"] = int(base_iteration)
        atomic_write_json(os.path.join(iter_dir, MANIFEST_NAME), manifest)
        if self.diff:
            self._diff_base = (
                int(iteration),
                [np.array(f, dtype=np.float64, copy=True) for f in factors],
            )
        return iter_dir

    # ------------------------------------------------------------------
    def _read_manifest(self, iteration: int) -> Dict[str, object]:
        path = os.path.join(self.iter_dir(iteration), MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise DataFormatError(
                f"{self.iter_dir(iteration)}: no checkpoint manifest "
                f"({MANIFEST_NAME} missing)"
            ) from None
        except ValueError as exc:
            self._raise_corrupt(path, f"invalid JSON: {exc}", iteration)
        if manifest.get("format") != CHECKPOINT_FORMAT:
            self._raise_corrupt(
                path,
                f"not a checkpoint manifest (format="
                f"{manifest.get('format')!r})",
                iteration,
            )
        if int(manifest.get("version", -1)) != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version "
                f"{manifest.get('version')} (this build reads version "
                f"{CHECKPOINT_VERSION})"
            )
        return manifest

    def _check_files(self, iteration: int, manifest: Dict[str, object]) -> None:
        iter_dir = self.iter_dir(iteration)
        for name, info in manifest["files"].items():
            path = os.path.join(iter_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                self._raise_corrupt(path, "checkpoint file is missing", iteration)
            if size != int(info["bytes"]):
                self._raise_corrupt(
                    path,
                    f"checkpoint file is truncated or padded ({size} bytes, "
                    f"manifest says {info['bytes']})",
                    iteration,
                )
            if sha256_file(path) != info["sha256"]:
                self._raise_corrupt(
                    path,
                    "checkpoint file is corrupt (sha256 mismatch)",
                    iteration,
                )

    def _base_iteration(
        self, iteration: int, manifest: Dict[str, object]
    ) -> Optional[int]:
        """The diff chain's anchor for this checkpoint (None when full)."""
        if "base_iteration" not in manifest:
            return None
        base = int(manifest["base_iteration"])
        if base >= int(iteration):
            self._raise_corrupt(
                os.path.join(self.iter_dir(iteration), MANIFEST_NAME),
                f"diff checkpoint claims base iteration {base} >= its own "
                f"iteration {iteration} — the chain cannot resolve",
                iteration,
            )
        return base

    def validate(self, iteration: int) -> None:
        """Fully verify one checkpoint (manifest, sizes, checksums).

        A diff checkpoint is only as good as its chain: validation
        follows ``base_iteration`` links all the way to the anchoring
        full checkpoint.
        """
        manifest = self._read_manifest(iteration)
        self._check_files(iteration, manifest)
        base = self._base_iteration(iteration, manifest)
        if base is not None:
            self.validate(base)

    def _raise_corrupt(self, path: str, reason: str, iteration: int) -> None:
        """Raise a :class:`DataFormatError` naming the file and the fall-back."""
        fallback: Optional[int] = None
        for earlier in sorted(self.iterations(), reverse=True):
            if earlier >= iteration:
                continue
            try:
                self.validate(earlier)
            except DataFormatError:
                continue
            fallback = earlier
            break
        message = f"{path}: {reason}"
        if fallback is not None:
            message += (
                f"; last valid checkpoint is iteration {fallback} at "
                f"{self.iter_dir(fallback)} — remove "
                f"{self.iter_dir(iteration)} to resume from it"
            )
        else:
            message += (
                "; no earlier valid checkpoint exists — remove the "
                f"checkpoint directory {self.directory} and restart the fit"
            )
        raise DataFormatError(message)

    # ------------------------------------------------------------------
    def load(self, iteration: int) -> CheckpointState:
        """Load and verify one checkpoint.

        Every file's size and SHA-256 are checked against the manifest
        *before* any array is parsed, so corruption surfaces as a
        :class:`DataFormatError` naming the file and the checkpoint to
        fall back to — never as a wrong answer or a NumPy parse crash.
        """
        manifest = self._read_manifest(iteration)
        self._check_files(iteration, manifest)
        iter_dir = self.iter_dir(iteration)
        order = int(manifest["order"])
        base = self._base_iteration(iteration, manifest)
        if base is None:
            factors = [
                np.load(
                    os.path.join(iter_dir, f"factor{mode}.npy"),
                    allow_pickle=False,
                )
                for mode in range(order)
            ]
        else:
            from ..updates.lowrank import LowRankDiff, apply_factor_diff

            base_state = self.load(base)
            factors = []
            for mode in range(order):
                rows = np.load(
                    os.path.join(iter_dir, f"factor{mode}.rows.npy"),
                    allow_pickle=False,
                )
                values = np.load(
                    os.path.join(iter_dir, f"factor{mode}.diff.npy"),
                    allow_pickle=False,
                )
                old = base_state.factors[mode]
                factors.append(
                    apply_factor_diff(
                        old,
                        LowRankDiff(
                            rows=rows, values=values, n_rows=int(old.shape[0])
                        ),
                    )
                )
        core = np.load(os.path.join(iter_dir, "core.npy"), allow_pickle=False)
        with open(
            os.path.join(iter_dir, "trace.json"), "r", encoding="utf-8"
        ) as handle:
            trace = _trace_from_json(json.load(handle))
        return CheckpointState(
            iteration=int(manifest["iteration"]),
            factors=factors,
            core=core,
            trace=trace,
            config_digest=str(manifest.get("config_digest", "")),
        )

    def load_latest(self) -> Optional[CheckpointState]:
        """Load the newest complete checkpoint (None when the tree is empty)."""
        latest = self.latest_iteration()
        if latest is None:
            return None
        return self.load(latest)


def resume_state(
    manager: Optional[CheckpointManager], resume: bool, config_digest: str
) -> Optional[CheckpointState]:
    """The checkpoint a resuming fit should continue from, verified.

    Returns ``None`` when resume is off, no manager is configured, or the
    tree holds no checkpoint yet (a first run with ``--resume`` simply
    starts fresh).  A digest mismatch — different data, ranks, seed,
    backend or regularization than the run that wrote the checkpoint —
    raises :class:`DataFormatError` instead of silently continuing a
    different trajectory.
    """
    if manager is None or not resume:
        return None
    state = manager.load_latest()
    if state is None:
        return None
    if state.config_digest and state.config_digest != config_digest:
        raise DataFormatError(
            f"{manager.iter_dir(state.iteration)}: checkpoint was written by "
            "a run with different data or hyper-parameters (config digest "
            f"{state.config_digest[:12]}… != {config_digest[:12]}…); "
            "resuming would not continue the same trajectory — point "
            "--checkpoint-dir at a fresh directory or rerun with the "
            "original configuration"
        )
    return state

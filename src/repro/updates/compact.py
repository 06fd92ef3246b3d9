"""Compaction: fold pending deltas into the shard store, crash-safely.

The union source streams through ``ShardStore.build_streaming`` (the
external-memory k-way merge of :mod:`repro.shards.merge`) into a scratch
directory ``<store>/.compact-tmp/``, so the compacted store is **byte**-for-
byte what a fresh build of the union tensor produces — same shard
boundaries, same narrow dtypes, same fingerprint.

The commit protocol mirrors the manifest-last discipline of the store
itself, with one extra piece because compaction must atomically switch
*between two multi-file states*:

1. build the full union store in scratch (crash here: the old store and
   its deltas are untouched; stale scratch is swept by the next attempt);
2. atomically write ``compact.commit.json`` in the store directory —
   **this marker is the commit point**; it lists the scratch files to
   move in, the old files to remove, and the delta files to retire;
3. :func:`complete_compaction` executes the marker: ``os.replace`` each
   scratch file into place with the scratch ``manifest.json`` moved
   **last**, then deletes retired files and finally the marker.

Every step of (3) is **idempotent** (moves skip missing sources, deletes
suppress missing targets), and ``ShardStore.open`` runs
:func:`complete_compaction` whenever it sees a marker — so a SIGKILL at
any instant leaves a directory that re-opens as either the pre-compaction
store with all deltas pending (marker never landed) or the fully
compacted store (marker landed; the next open finishes the moves).  There
is no reachable mixed state.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
from typing import Optional, Set

from ..exceptions import DataFormatError
from ..resilience.atomic import atomic_write_json, fsync_directory
from ..shards.store import MANIFEST_NAME, ShardStore
from .deltalog import DELTA_DIR, DeltaLog
from .union import UnionEntrySource

#: Scratch directory the union store is built into, inside the store dir.
COMPACT_SCRATCH = ".compact-tmp"

#: The commit-point marker file.  Its atomic creation commits the
#: compaction; ``ShardStore.open`` completes any marker it finds.
COMPACT_MARKER = "compact.commit.json"

#: ``format`` field of the marker payload.
MARKER_FORMAT = "repro-compact-commit"

#: Current marker schema version.
MARKER_VERSION = 1

#: Test hook: ``before-commit`` SIGKILLs after the scratch build but
#: before the marker (pre-state must survive); ``after-commit`` SIGKILLs
#: right after the marker lands (the next open must finish the swap).
KILL_ENV = "REPRO_INJECT_COMPACT_KILL"


def _store_relative_files(store: ShardStore) -> Set[str]:
    """Store-relative data files (segmentation + shards), manifest excluded."""
    files: Set[str] = set()
    for mode in range(store.order):
        prefix = f"mode{mode}"
        for name in ("row_ids.npy", "row_starts.npy", "row_counts.npy"):
            files.add(os.path.join(prefix, name))
        for shard in store._shards[mode]:
            files.update(shard.column_paths)
            files.add(shard.values_path)
    return files


def complete_compaction(directory: str) -> bool:
    """Execute a pending ``compact.commit.json`` marker, if present.

    Idempotent: safe to call any number of times, including after a crash
    partway through a previous call.  Returns True when a marker was
    found and completed, False when the directory had none.
    """
    directory = os.fspath(directory)
    marker_path = os.path.join(directory, COMPACT_MARKER)
    try:
        with open(marker_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return False
    except ValueError as exc:
        raise DataFormatError(f"{marker_path}: invalid JSON: {exc}") from exc
    if payload.get("format") != MARKER_FORMAT:
        raise DataFormatError(
            f"{marker_path}: not a compaction marker "
            f"(format={payload.get('format')!r})"
        )
    if int(payload.get("version", -1)) != MARKER_VERSION:
        raise DataFormatError(
            f"{marker_path}: unsupported compaction-marker version "
            f"{payload.get('version')} (this build reads {MARKER_VERSION})"
        )
    scratch = os.path.join(directory, str(payload["scratch"]))
    # Move the new store's data files in, manifest strictly last.  While
    # the marker exists every open routes back through this function, so
    # the half-moved intermediate is never observable; each move is an
    # os.replace that skips an already-moved source, which is what makes
    # re-running after a crash converge on the post-state.
    for relative in payload.get("store_files", []):
        source = os.path.join(scratch, relative)
        destination = os.path.join(directory, relative)
        if os.path.exists(source):
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(source, destination)
    scratch_manifest = os.path.join(scratch, MANIFEST_NAME)
    if os.path.exists(scratch_manifest):
        os.replace(scratch_manifest, os.path.join(directory, MANIFEST_NAME))
    fsync_directory(directory)
    for relative in payload.get("remove", []) + payload.get("deltas", []):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, relative))
    # The delta directory is empty now (orphans from crashed appends were
    # overwritten by later appends and retired with them); drop it so the
    # compacted directory is file-for-file a fresh build.
    with contextlib.suppress(OSError):
        os.rmdir(os.path.join(directory, DELTA_DIR))
    os.remove(marker_path)
    fsync_directory(directory)
    shutil.rmtree(scratch, ignore_errors=True)
    return True


def compact(
    store,
    shard_nnz: Optional[int] = None,
    chunk_nnz: Optional[int] = None,
) -> ShardStore:
    """Fold all pending deltas of ``store`` into its shard files.

    ``store`` may be a :class:`ShardStore` or a directory path.  The
    result is byte-identical to ``ShardStore.build`` of the union tensor
    (base entries in canonical order followed by deltas in log order).
    Returns the re-opened compacted store; with no pending deltas the
    store is returned unchanged.
    """
    if not isinstance(store, ShardStore):
        store = ShardStore.open(os.fspath(store))
    directory = store.directory
    log = DeltaLog.open(directory)
    if not log.records:
        return store
    # Refuse to fold corrupt bytes into the store: every pending delta
    # must still match the digest its log commit pinned.
    log.verify()
    scratch = os.path.join(directory, COMPACT_SCRATCH)
    if os.path.isdir(scratch):
        shutil.rmtree(scratch)
    union = UnionEntrySource(store, log)
    new_store = ShardStore.build_streaming(
        union,
        scratch,
        shard_nnz=int(shard_nnz) if shard_nnz else store.shard_nnz,
        chunk_nnz=int(chunk_nnz) if chunk_nnz else None,
        shape=store.shape,
    )
    new_files = _store_relative_files(new_store)
    old_files = _store_relative_files(store)
    if os.environ.get(KILL_ENV) == "before-commit":
        os.kill(os.getpid(), signal.SIGKILL)
    atomic_write_json(
        os.path.join(directory, COMPACT_MARKER),
        {
            "format": MARKER_FORMAT,
            "version": MARKER_VERSION,
            "scratch": COMPACT_SCRATCH,
            "store_files": sorted(new_files),
            "remove": sorted(old_files - new_files),
            "deltas": log.relative_paths(),
        },
    )
    if os.environ.get(KILL_ENV) == "after-commit":
        os.kill(os.getpid(), signal.SIGKILL)
    complete_compaction(directory)
    return ShardStore.open(directory)

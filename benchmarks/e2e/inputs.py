"""Seeded, vectorised input generators for the end-to-end workloads.

Every generator is a pure function of ``(workload, seed, size)``: the same
key always produces byte-identical files, which are cached under
``<workdir>/cache/<key>/`` so repeated runs of one seed skip generation.
Generation time is never a metric.  The library's own
``generate_movielens_like`` loops per rating in Python and is too slow at
these sizes, so the ratings here are drawn with whole-array NumPy calls.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass
from typing import Dict, Tuple

import numpy as np

#: Cached input sets kept per workdir; older ones are pruned by mtime.
CACHE_KEEP = 8


@dataclass(frozen=True)
class RatingsSize:
    """A MovieLens-shaped order-4 rating tensor (user, movie, year, hour)."""

    shape: Tuple[int, ...] = (50_000, 8_000, 12, 24)
    nnz: int = 1_000_000
    held_out: int = 20_000
    n_deltas: int = 0
    delta_nnz: int = 5_000


@dataclass(frozen=True)
class WideSize:
    """A uniform order-3 tensor with a few entries per row."""

    shape: Tuple[int, ...] = (200_000, 200_000, 200_000)
    nnz: int = 1_000_000
    held_out: int = 20_000


@dataclass(frozen=True)
class ModelSize:
    """A random Tucker model served for top-K and point queries."""

    shape: Tuple[int, ...] = (100_000, 200_000, 24)
    ranks: Tuple[int, ...] = (16, 64, 4)
    held_out: int = 20_000
    noise: float = 0.1


def _rng(tag: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) << (8 * i) for i, c in enumerate(tag))])


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity over ``n`` ids, scattered by a random permutation."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    weights = weights[rng.permutation(n)]
    return weights / weights.sum()


def _distinct(indices: np.ndarray, shape: Tuple[int, ...], count: int) -> np.ndarray:
    """The first ``count`` rows of ``indices`` with distinct coordinates."""
    keys = np.ravel_multi_index(tuple(indices.T), shape)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    if first.shape[0] < count:
        raise ValueError(
            f"drew {first.shape[0]} distinct coordinates, need {count}"
        )
    return indices[first[:count]]


def write_text(path: str, indices: np.ndarray, values: np.ndarray, fmt: str) -> None:
    """``i_1 ... i_N value`` lines, one-based, the paper's file format.

    The file is fsynced so its write-back does not land inside the first
    measured pass.
    """
    columns = [(indices[:, k] + 1).tolist() for k in range(indices.shape[1])]
    template = " ".join(["{}"] * indices.shape[1]) + " {:" + fmt + "}"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            "\n".join(
                template.format(*row)
                for row in zip(*columns, values.tolist())
            )
        )
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())


def _draw_ratings(rng: np.random.Generator, shape, count: int):
    """Zipf users and movies, uniform year and hour, half-star ratings."""
    n_users, n_movies, n_years, n_hours = shape
    user_p = _zipf_weights(n_users, 0.8, rng)
    movie_p = _zipf_weights(n_movies, 1.0, rng)
    draw = int(count * 1.3) + 1000
    indices = np.column_stack(
        [
            rng.choice(n_users, size=draw, p=user_p),
            rng.choice(n_movies, size=draw, p=movie_p),
            rng.integers(0, n_years, size=draw),
            rng.integers(0, n_hours, size=draw),
        ]
    ).astype(np.int64)
    return _distinct(indices, tuple(shape), count)


def _rate(rng: np.random.Generator, latent, indices: np.ndarray) -> np.ndarray:
    """Half-star ratings from a planted low-rank taste model plus noise."""
    user_f, movie_f, year_b, hour_b = latent
    score = (
        3.4
        + np.einsum("ij,ij->i", user_f[indices[:, 0]], movie_f[indices[:, 1]])
        + year_b[indices[:, 2]]
        + hour_b[indices[:, 3]]
        + rng.normal(0.0, 0.4, size=indices.shape[0])
    )
    return np.clip(np.round(score * 2.0) / 2.0, 0.5, 5.0)


def _ensure_corner(indices: np.ndarray, shape) -> np.ndarray:
    """Make entry 0 the all-last-index cell, so the inferred shape is ``shape``.

    ``indices`` holds distinct coordinates; swapping the corner in (or
    overwriting row 0 when it was never drawn) keeps them distinct.
    """
    corner = np.asarray(shape, dtype=np.int64) - 1
    keys = np.ravel_multi_index(tuple(indices.T), tuple(shape))
    hit = np.nonzero(keys == np.ravel_multi_index(tuple(corner), tuple(shape)))[0]
    if hit.size:
        indices[[0, hit[0]]] = indices[[hit[0], 0]]
    else:
        indices[0] = corner
    return indices


def generate_ratings(directory: str, seed: int, size: RatingsSize) -> Dict[str, object]:
    """``train.txt``, a disjoint held-out ``test.txt`` and ``delta<k>.rcoo`` files."""
    rng = _rng("ratings", seed)
    shape = tuple(size.shape)
    latent = (
        rng.normal(0.0, 0.45, size=(shape[0], 4)),
        rng.normal(0.0, 0.45, size=(shape[1], 4)),
        rng.normal(0.0, 0.2, size=shape[2]),
        rng.normal(0.0, 0.2, size=shape[3]),
    )
    n_test = size.held_out
    n_delta = size.n_deltas * size.delta_nnz
    indices = _ensure_corner(
        _draw_ratings(rng, shape, size.nnz + n_test + n_delta), shape
    )
    values = _rate(rng, latent, indices)
    n_train = size.nnz
    # Grouped by user, as MovieLens dumps are.  The order matters: a
    # randomly ordered file ingests ~4x slower, because the external merge
    # then emits row-sized blocks instead of long runs.
    by_user = np.argsort(indices[:n_train, 0], kind="stable")
    write_text(
        os.path.join(directory, "train.txt"),
        indices[by_user],
        values[by_user],
        ".1f",
    )
    write_text(
        os.path.join(directory, "test.txt"),
        indices[n_train : n_train + n_test],
        values[n_train : n_train + n_test],
        ".1f",
    )
    if size.n_deltas:
        from repro.tensor import SparseTensor
        from repro.tensor.io import save_rcoo

        start = n_train + n_test
        for k in range(size.n_deltas):
            stop = start + size.delta_nnz
            save_rcoo(
                SparseTensor(indices[start:stop], values[start:stop], shape),
                os.path.join(directory, f"delta{k}.rcoo"),
            )
            start = stop
    return {
        "shape": list(shape),
        "train_nnz": n_train,
        "test_nnz": n_test,
        "value_range": [float(values[:n_train].min()), float(values[:n_train].max())],
    }


def generate_wide(directory: str, seed: int, size: WideSize) -> Dict[str, object]:
    """``wide.txt`` + ``test.txt``: uniform coordinates, U(0, 1) values."""
    rng = _rng("wide", seed)
    shape = tuple(size.shape)
    n_test = size.held_out
    draw = int((size.nnz + n_test) * 1.05) + 100
    indices = np.column_stack(
        [rng.integers(0, dim, size=draw) for dim in shape]
    ).astype(np.int64)
    indices = _ensure_corner(_distinct(indices, shape, size.nnz + n_test), shape)
    values = rng.random(indices.shape[0])
    write_text(
        os.path.join(directory, "wide.txt"), indices[: size.nnz], values[: size.nnz], ".6f"
    )
    write_text(
        os.path.join(directory, "test.txt"),
        indices[size.nnz :],
        values[size.nnz :],
        ".6f",
    )
    return {
        "shape": list(shape),
        "train_nnz": size.nnz,
        "test_nnz": n_test,
        "value_range": [float(values[: size.nnz].min()), float(values[: size.nnz].max())],
    }


def generate_model(directory: str, seed: int, size: ModelSize) -> Dict[str, object]:
    """``model.npz`` (via ``save_model``) and noisy held-out cells ``test.txt``."""
    from repro.core.result import TuckerResult
    from repro.model_io import save_model
    from repro.serve import ServingModel

    rng = _rng("model", seed)
    factors = [
        rng.normal(0.0, 1.0 / np.sqrt(rank), size=(dim, rank))
        for dim, rank in zip(size.shape, size.ranks)
    ]
    core = rng.normal(0.0, 1.0, size=size.ranks)
    save_model(
        TuckerResult(core=core, factors=factors, algorithm="synthetic"),
        os.path.join(directory, "model"),
    )
    cells = np.column_stack(
        [rng.integers(0, dim, size=size.held_out) for dim in size.shape]
    ).astype(np.int64)
    truth = ServingModel(factors, core, query_cache=0).predict(cells)
    values = truth + rng.normal(0.0, size.noise, size=cells.shape[0])
    write_text(os.path.join(directory, "test.txt"), cells, values, ".17g")
    return {"shape": list(size.shape), "ranks": list(size.ranks)}


GENERATORS = {
    "ratings": generate_ratings,
    "wide": generate_wide,
    "model": generate_model,
}


def cached_inputs(workdir: str, kind: str, seed: int, size) -> Tuple[str, Dict[str, object]]:
    """Directory holding the inputs for ``(kind, seed, size)``; generated once.

    A finished set carries ``inputs.json``; a set without it (an
    interrupted generation) is regenerated from scratch.
    """
    cache = os.path.join(workdir, "cache")
    key = f"{kind}-s{seed}-" + "-".join(
        f"{v}" if not isinstance(v, tuple) else "x".join(map(str, v))
        for v in asdict(size).values()
    )
    directory = os.path.join(cache, key)
    marker = os.path.join(directory, "inputs.json")
    if os.path.exists(marker):
        os.utime(directory)
        with open(marker, encoding="utf-8") as handle:
            return directory, json.load(handle)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    started = time.perf_counter()
    info = GENERATORS[kind](directory, seed, size)
    info["generate_s"] = time.perf_counter() - started
    with open(marker, "w", encoding="utf-8") as handle:
        json.dump(info, handle)
    _prune(cache, keep=directory)
    return directory, info


def _prune(cache: str, keep: str) -> None:
    entries = [
        os.path.join(cache, name)
        for name in os.listdir(cache)
        if os.path.join(cache, name) != keep
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[CACHE_KEEP - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)

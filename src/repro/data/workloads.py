"""Workload descriptions for the scalability experiments.

Figure 6 of the paper sweeps one tensor attribute at a time (order,
dimensionality, number of observed entries, rank) while holding the others
fixed.  Each sweep point is captured here as a :class:`Workload` so the
experiment harness and the benchmarks share one definition of "what to run".

The paper's sweeps reach sizes (I = 10^7, |Ω| = 10^7, 252 M-entry real
tensors) that are impractical for a pure-Python single run; every sweep has a
``scale`` knob that shrinks the grid proportionally while keeping the swept
attribute's *relative* progression, so the shape of each curve is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tensor.coo import SparseTensor
from .movielens import generate_movielens_like
from .synthetic import planted_tucker_tensor, random_sparse_tensor


@dataclass(frozen=True)
class Workload:
    """One point of a scalability sweep.

    Attributes
    ----------
    name:
        Display name, e.g. ``"order=4"``.
    shape:
        Tensor shape to generate.
    nnz:
        Number of observed entries.
    ranks:
        Tucker ranks to factorize with.
    seed:
        Seed for the generator so runs are repeatable.
    planted:
        When True, draw values from a planted Tucker model (used by accuracy
        experiments); otherwise values are uniform random (speed experiments).
    """

    name: str
    shape: Tuple[int, ...]
    nnz: int
    ranks: Tuple[int, ...]
    seed: int = 0
    planted: bool = False

    def build(self) -> SparseTensor:
        """Materialise the sparse tensor for this workload."""
        if self.planted:
            return planted_tucker_tensor(
                self.shape, self.ranks, self.nnz, noise_level=0.01, seed=self.seed
            ).tensor
        return random_sparse_tensor(self.shape, self.nnz, seed=self.seed)


@dataclass(frozen=True)
class Sweep:
    """A named list of workloads swept over one attribute."""

    attribute: str
    workloads: Tuple[Workload, ...] = field(default_factory=tuple)

    def names(self) -> List[str]:
        return [w.name for w in self.workloads]


def order_sweep(
    orders: Sequence[int] = (3, 4, 5, 6, 7, 8),
    dimensionality: int = 60,
    nnz: int = 1000,
    rank: int = 3,
    seed: int = 7,
) -> Sweep:
    """Figure 6(a): vary the tensor order N (paper: 3..10, I=100, |Ω|=1e3, J=3)."""
    workloads = tuple(
        Workload(
            name=f"order={n}",
            shape=tuple([dimensionality] * n),
            nnz=nnz,
            ranks=tuple([rank] * n),
            seed=seed + n,
        )
        for n in orders
    )
    return Sweep(attribute="order", workloads=workloads)


def dimensionality_sweep(
    dims: Sequence[int] = (100, 1000, 10_000, 50_000),
    order: int = 3,
    nnz_per_dim: int = 10,
    rank: int = 8,
    seed: int = 11,
) -> Sweep:
    """Figure 6(b): vary mode length I (paper: 1e2..1e7, |Ω|=10·I, J=10)."""
    workloads = tuple(
        Workload(
            name=f"I={dim}",
            shape=tuple([dim] * order),
            nnz=nnz_per_dim * dim,
            ranks=tuple([rank] * order),
            seed=seed + i,
        )
        for i, dim in enumerate(dims)
    )
    return Sweep(attribute="dimensionality", workloads=workloads)


def nnz_sweep(
    nnzs: Sequence[int] = (1000, 10_000, 100_000, 300_000),
    order: int = 3,
    dimensionality: int = 50_000,
    rank: int = 8,
    seed: int = 13,
) -> Sweep:
    """Figure 6(c): vary |Ω| (paper: 1e3..1e7, I=1e7, J=10)."""
    workloads = tuple(
        Workload(
            name=f"nnz={nnz}",
            shape=tuple([dimensionality] * order),
            nnz=nnz,
            ranks=tuple([rank] * order),
            seed=seed + i,
        )
        for i, nnz in enumerate(nnzs)
    )
    return Sweep(attribute="nnz", workloads=workloads)


def rank_sweep(
    ranks: Sequence[int] = (3, 5, 7, 9, 11),
    order: int = 3,
    dimensionality: int = 10_000,
    nnz: int = 50_000,
    seed: int = 17,
) -> Sweep:
    """Figure 6(d): vary the Tucker rank J (paper: 3..11, I=1e6, |Ω|=1e7)."""
    workloads = tuple(
        Workload(
            name=f"J={rank}",
            shape=tuple([dimensionality] * order),
            nnz=nnz,
            ranks=tuple([rank] * order),
            seed=seed + i,
        )
        for i, rank in enumerate(ranks)
    )
    return Sweep(attribute="rank", workloads=workloads)


def realworld_standins(
    scale: float = 1.0, seed: int = 23
) -> Dict[str, Tuple[SparseTensor, Tuple[int, ...]]]:
    """Scaled-down stand-ins for the four real-world tensors of Table IV.

    Returns a mapping from dataset name to ``(tensor, ranks)``.  Shapes keep
    the same modal semantics as Table IV (two large modes + small context
    modes for the rating tensors, small dense-ish shapes for video/image) at
    a fraction of the size (see "Stand-ins for the paper's setup" in
    docs/BENCHMARKS.md).
    """

    def scaled(value: int, minimum: int = 4) -> int:
        return max(minimum, int(round(value * scale)))

    def capped_nnz(requested: int, shape: Tuple[int, ...]) -> int:
        """Keep the observed-entry count below half the tensor's cell count."""
        cells = 1
        for dim in shape:
            cells *= dim
        return max(1, min(requested, cells // 2))

    movielens = generate_movielens_like(
        n_users=scaled(600),
        n_movies=scaled(200),
        n_years=12,
        n_hours=24,
        n_ratings=scaled(30_000, minimum=2000),
        seed=seed,
    ).tensor
    yahoo = generate_movielens_like(
        n_users=scaled(1200),
        n_movies=scaled(400),
        n_years=10,
        n_hours=24,
        n_ratings=scaled(60_000, minimum=4000),
        seed=seed + 1,
    ).tensor
    video_shape = (scaled(60), scaled(80), 3, scaled(16))
    video = planted_tucker_tensor(
        shape=video_shape,
        ranks=(3, 3, 3, 3),
        nnz=capped_nnz(scaled(8000, minimum=1000), video_shape),
        noise_level=0.02,
        seed=seed + 2,
    ).tensor
    image_shape = (scaled(128), scaled(128), 3)
    image = planted_tucker_tensor(
        shape=image_shape,
        ranks=(3, 3, 3),
        nnz=capped_nnz(scaled(4000, minimum=800), image_shape),
        noise_level=0.02,
        seed=seed + 3,
    ).tensor
    return {
        "MovieLens": (movielens, (10, 10, 5, 5)),
        "Yahoo-music": (yahoo, (10, 10, 5, 5)),
        "Video": (video, (3, 3, 3, 3)),
        "Image": (image, (3, 3, 3)),
    }

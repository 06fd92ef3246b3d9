"""repro — a reproduction of "Scalable Tucker Factorization for Sparse Tensors"
(P-Tucker, ICDE 2018).

The package provides:

* :mod:`repro.tensor` — sparse COO tensors, dense tensor algebra, CSF.
* :mod:`repro.kernels` — contraction-ordered δ/reduction kernels shared by
  every solver hot path (see its docstring for the complexity analysis).
* :mod:`repro.core` — P-Tucker, P-Tucker-Cache and P-Tucker-Approx.
* :mod:`repro.baselines` — Tucker-ALS (HOOI), Tucker-wOpt, Tucker-CSF and
  S-HOT.
* :mod:`repro.metrics` — reconstruction error, test RMSE, memory accounting.
* :mod:`repro.shards` — out-of-core sharded sweeps: the mmap COO shard
  store and the streaming executor (bitwise-equal to in-core).
* :mod:`repro.discovery` — K-means, concept and relation discovery.
* :mod:`repro.data` — synthetic and MovieLens-style dataset generators.
* :mod:`repro.experiments` — the harness that regenerates every figure and
  table of the paper's evaluation.
"""

from .core import (
    PTucker,
    PTuckerApprox,
    PTuckerCache,
    PTuckerConfig,
    TuckerResult,
    fit_ptucker,
)
from .exceptions import (
    ConvergenceError,
    DataFormatError,
    OutOfMemoryError,
    ReproError,
    ShapeError,
)
from .shards import ShardedSweepExecutor, ShardStore
from .tensor import SparseTensor

__version__ = "1.0.0"

__all__ = [
    "SparseTensor",
    "ShardStore",
    "ShardedSweepExecutor",
    "PTucker",
    "PTuckerCache",
    "PTuckerApprox",
    "PTuckerConfig",
    "TuckerResult",
    "fit_ptucker",
    "ReproError",
    "ShapeError",
    "DataFormatError",
    "ConvergenceError",
    "OutOfMemoryError",
    "__version__",
]

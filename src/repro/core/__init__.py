"""P-Tucker and its variants: the paper's primary contribution."""

from .approx import PTuckerApprox, partial_reconstruction_errors, truncate_noisy_entries
from .cache import PTuckerCache
from .config import DEFAULT_CONFIG, PTuckerConfig
from .core_tensor import (
    SparseCore,
    initialize_core,
    initialize_factors,
    orthogonalize,
)
from .ptucker import PTucker, fit_ptucker, run_als
from .result import TuckerResult
from .row_update import (
    InMemorySource,
    brute_force_row_update,
    build_mode_context,
    update_factor_mode,
)
from .trace import ConvergenceTrace, IterationRecord

__all__ = [
    "PTucker",
    "PTuckerCache",
    "PTuckerApprox",
    "PTuckerConfig",
    "DEFAULT_CONFIG",
    "TuckerResult",
    "ConvergenceTrace",
    "IterationRecord",
    "fit_ptucker",
    "run_als",
    "orthogonalize",
    "initialize_core",
    "initialize_factors",
    "SparseCore",
    "partial_reconstruction_errors",
    "truncate_noisy_entries",
    "update_factor_mode",
    "InMemorySource",
    "build_mode_context",
    "brute_force_row_update",
]

"""Accuracy, memory and timing metrics."""

from .errors import (
    error_and_loss,
    fit,
    reconstruction_error,
    regularized_loss,
    residuals,
    rmse_of_values,
    test_rmse,
)
from .environment import bench_environment, blas_thread_count
from .memory import BYTES_PER_FLOAT, MemoryModel, MemoryTracker, TensorAttributes
from .timing import Counters, IterationTimer, LatencyWindow, percentile

__all__ = [
    "reconstruction_error",
    "test_rmse",
    "regularized_loss",
    "error_and_loss",
    "residuals",
    "fit",
    "rmse_of_values",
    "MemoryModel",
    "MemoryTracker",
    "TensorAttributes",
    "BYTES_PER_FLOAT",
    "IterationTimer",
    "Counters",
    "LatencyWindow",
    "percentile",
    "bench_environment",
    "blas_thread_count",
]

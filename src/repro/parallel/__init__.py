"""Work partitioning, scheduling policies and the parallel cost simulator."""

from .partition import (
    Partition,
    dynamic_partition,
    longest_processing_time_partition,
    partition_rows,
    split_evenly,
    static_partition,
)
from .scheduler import RowScheduler
from .simulator import ParallelSimulator, ThreadRunEstimate, efficiency

__all__ = [
    "Partition",
    "static_partition",
    "dynamic_partition",
    "longest_processing_time_partition",
    "partition_rows",
    "split_evenly",
    "RowScheduler",
    "ParallelSimulator",
    "ThreadRunEstimate",
    "efficiency",
]

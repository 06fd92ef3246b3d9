"""Baseline Tucker factorization methods the paper compares against."""

from .base import HooiBaseline, leading_left_singular_vectors
from .s_hot import SHot
from .tucker_als import TuckerAls
from .tucker_csf import TuckerCsf
from .tucker_wopt import TuckerWopt

__all__ = [
    "HooiBaseline",
    "leading_left_singular_vectors",
    "TuckerAls",
    "TuckerCsf",
    "SHot",
    "TuckerWopt",
]

"""Linpack/HPL: real blocked-LU kernels at laptop scale, a calibrated
analytic performance model at cluster scale, and TOP500-style reporting.
"""

from .hpl import HplReport, HplRunResult, benchmark_machine, run_hpl_small
from .model import (
    HplModelInput,
    HplPrediction,
    kernel_efficiency,
    predict_hpl,
    predict_machine,
    problem_size,
)
from .top500 import PricePerformance, price_performance, rank, render_table5_row

__all__ = [
    "blocked_lu",
    "lu_solve",
    "residual_check",
    "measure_dgemm_gflops",
    "DgemmMeasurement",
    "run_hpl_small",
    "HplRunResult",
    "benchmark_machine",
    "HplReport",
    "HplModelInput",
    "HplPrediction",
    "predict_hpl",
    "predict_machine",
    "problem_size",
    "kernel_efficiency",
    "PricePerformance",
    "price_performance",
    "rank",
    "render_table5_row",
]


def __getattr__(name: str):
    """Load the numpy kernels in :mod:`.dgemm` when one is first asked for
    (PEP 562), so the analytic model and TOP500 path run without numpy."""
    if name in __all__:
        from . import dgemm

        return getattr(dgemm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

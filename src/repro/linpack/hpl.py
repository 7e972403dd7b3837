"""The HPL benchmark harness: real runs at laptop scale, modelled at cluster
scale, both validated the way HPL validates.

:func:`run_hpl_small` actually factorises and solves a system with the
blocked kernels and checks the HPL residual — the executable ground truth.
:func:`benchmark_machine` produces the Table 5 style report for a built
machine: Rpeak from the hardware, Rmax from the calibrated model, runtime
and problem size from the same sizing rules real HPL tuning uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import LinpackError
from ..hardware.chassis import Machine
from .model import HplPrediction, predict_machine

__all__ = ["HplRunResult", "run_hpl_small", "HplReport", "benchmark_machine"]

#: HPL's validity threshold for the scaled residual.
RESIDUAL_LIMIT = 16.0


@dataclass(frozen=True)
class HplRunResult:
    """A real (executed) small-scale HPL run."""

    n: int
    gflops: float
    seconds: float
    residual: float

    @property
    def passed(self) -> bool:
        """HPL's PASSED/FAILED verdict."""
        return self.residual < RESIDUAL_LIMIT


def run_hpl_small(n: int = 256, *, block: int = 64, seed: int = 42) -> HplRunResult:
    """Execute a real LU solve of an ``n x n`` system and validate it.

    This is HPL's inner computation at a size that runs in milliseconds; the
    examples and tests use it to demonstrate the kernel is genuinely correct
    (the residual check is the same formula HPL prints).
    """
    import numpy as np

    from .dgemm import blocked_lu, lu_solve, residual_check

    if n <= 0:
        raise LinpackError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    x_true = rng.standard_normal(n)
    b = a @ x_true
    t0 = time.perf_counter()
    lu, piv = blocked_lu(a, block=block)
    x = lu_solve(lu, piv, b)
    elapsed = time.perf_counter() - t0
    flops = (2.0 / 3.0) * n**3 + 1.5 * n**2
    return HplRunResult(
        n=n,
        gflops=flops / elapsed / 1e9,
        seconds=elapsed,
        residual=residual_check(a, x, b),
    )


@dataclass(frozen=True)
class HplReport:
    """Cluster-scale HPL figures for one machine (the Table 5 row)."""

    machine_name: str
    n: int
    rpeak_gflops: float
    rmax_gflops: float
    run_seconds: float
    estimated: bool  # True when flagged like the paper's LittleFe footnote

    @property
    def efficiency(self) -> float:
        return self.rmax_gflops / self.rpeak_gflops


def benchmark_machine(
    machine: Machine,
    *,
    estimated: bool = False,
    estimate_fraction: float | None = None,
    n: int | None = None,
) -> HplReport:
    """Model a machine's HPL run and package the Table 5 figures.

    ``estimated=True`` marks the row the way the paper marks LittleFe's
    Rmax ("estimated due to a hardware failure prior to Linpack").  Passing
    ``estimate_fraction`` replicates the paper's estimation arithmetic
    exactly (LittleFe: "Estimated at 75% of Rpeak") instead of using the
    model's prediction — the Table 5 bench reports both.
    """
    prediction: HplPrediction = predict_machine(machine, n=n)
    if estimate_fraction is not None:
        if not 0.0 < estimate_fraction <= 1.0:
            raise LinpackError(
                f"estimate fraction out of (0,1]: {estimate_fraction}"
            )
        rmax = prediction.rpeak_gflops * estimate_fraction
        estimated = True
    else:
        rmax = prediction.rmax_gflops
    return HplReport(
        machine_name=machine.name,
        n=prediction.n,
        rpeak_gflops=prediction.rpeak_gflops,
        rmax_gflops=rmax,
        run_seconds=prediction.total_time_s,
        estimated=estimated,
    )

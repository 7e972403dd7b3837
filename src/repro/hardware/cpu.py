"""CPU models for the simulated hardware substrate.

The paper's performance arithmetic (Tables 3–5) follows the TOP500 convention:

    Rpeak = cores x clock (GHz) x flops/cycle   [GFLOPS]

The paper's own numbers pin down flops/cycle = 16 for the Haswell-era parts:

* LittleFe (modified): 12 cores x 2.8 GHz x 16 = 537.6 GFLOPS  (Table 5)
* Limulus HPC200:      16 cores x 3.1 GHz x 16 = 793.6 GFLOPS  (Table 5)

(The Celeron G1840 lacks AVX2/FMA in real silicon, but the paper evidently
used the generic Haswell 16 flops/cycle figure; we reproduce the paper's
convention and note the discrepancy here rather than silently "fixing" it.)

Power figures come straight from Section 5.1: the Atom D510 draws 10.56 W
versus 43.06 W for the Celeron G1840, which is why the modified LittleFe needs
per-node power supplies and a low-profile CPU fan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError

__all__ = [
    "CpuModel",
    "Microarchitecture",
    "ATOM_D510",
    "CELERON_G1840",
    "I7_4770S",
    "XEON_E5_2670",
    "CPU_CATALOG",
    "calibrated_cpu",
]


@dataclass(frozen=True)
class Microarchitecture:
    """A CPU microarchitecture family.

    ``flops_per_cycle`` is the double-precision FLOPs retired per core per
    cycle used for Rpeak accounting (the paper's convention, see module
    docstring).  ``isa`` is the instruction-set family; the paper argues x86
    compatibility is what makes LittleFe/Limulus useful for HPC teaching
    (unlike e.g. Raspberry Pi clusters, Section 8).
    """

    name: str
    flops_per_cycle: int
    isa: str = "x86_64"
    year: int = 2013

    def __post_init__(self) -> None:
        if self.flops_per_cycle <= 0:
            raise CatalogError(f"flops_per_cycle must be positive: {self}")


#: In-order Atom core: SSE2, 1 DP mul + 1 DP add per cycle at best.
BONNELL = Microarchitecture("Bonnell", flops_per_cycle=2, year=2008)
#: Westmere: SSE 128-bit, 4 DP flops/cycle.
WESTMERE = Microarchitecture("Westmere", flops_per_cycle=4, year=2010)
#: Sandy Bridge: AVX 256-bit, 8 DP flops/cycle.
SANDY_BRIDGE = Microarchitecture("Sandy Bridge", flops_per_cycle=8, year=2011)
#: Haswell: AVX2 + FMA, 16 DP flops/cycle (the paper's accounting basis).
HASWELL = Microarchitecture("Haswell", flops_per_cycle=16, year=2013)
#: The Raspberry Pi's core (Section 8's counterexample: not x86, so XCBC's
#: x86_64 RPMs will not install — "such solutions aren't as practical for
#: teaching real-world parallel languages or HPC applications").
ARM1176 = Microarchitecture("ARM1176JZF-S", flops_per_cycle=1, isa="armv6l", year=2012)


@dataclass(frozen=True)
class CpuModel:
    """A concrete CPU SKU.

    Attributes
    ----------
    model:
        Marketing name, e.g. ``"Intel Celeron G1840"``.
    arch:
        The :class:`Microarchitecture` the SKU belongs to.
    clock_ghz:
        Base clock in GHz (the paper's tables use base clocks).
    cores:
        Physical cores.
    threads:
        Hardware threads.  Section 5.1 notes the Celeron choice "eliminates
        the option of using hyperthreading", i.e. ``threads == cores``.
    tdp_watts:
        Thermal design power / typical draw used for the power budget.
    cache_mib:
        Last-level cache in MiB (the paper quotes 8 MB for the i7-4770S).
    socket:
        Socket name; must match the motherboard socket at assembly time.
    price_usd:
        Street price used by the cost model.
    """

    model: str
    arch: Microarchitecture
    clock_ghz: float
    cores: int
    threads: int
    tdp_watts: float
    cache_mib: float
    socket: str
    price_usd: float

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.threads < self.cores:
            raise CatalogError(
                f"invalid core/thread count for {self.model}: "
                f"cores={self.cores} threads={self.threads}"
            )
        if self.clock_ghz <= 0:
            raise CatalogError(f"invalid clock for {self.model}: {self.clock_ghz}")
        if self.tdp_watts <= 0:
            raise CatalogError(f"invalid TDP for {self.model}: {self.tdp_watts}")

    @property
    def rpeak_gflops(self) -> float:
        """Theoretical peak of one socket in GFLOPS (TOP500 convention)."""
        return self.cores * self.clock_ghz * self.arch.flops_per_cycle


#: Historical LittleFe v4 CPU (Section 5.1): 10.56 W system-on-board Atom.
ATOM_D510 = CpuModel(
    model="Intel Atom D510",
    arch=BONNELL,
    clock_ghz=1.66,
    cores=2,
    threads=4,
    tdp_watts=10.56,
    cache_mib=1.0,
    socket="FCBGA559",
    price_usd=63.0,
)

#: The modified-LittleFe CPU (Section 5.1): Haswell Celeron, no HT, 43.06 W.
CELERON_G1840 = CpuModel(
    model="Intel Celeron G1840",
    arch=HASWELL,
    clock_ghz=2.8,
    cores=2,
    threads=2,
    tdp_watts=43.06,
    cache_mib=2.0,
    socket="LGA-1150",
    price_usd=52.0,
)

#: The Limulus HPC200 CPU (Section 5.2): 3.10 GHz, 8 MB cache, 65 W Haswell.
I7_4770S = CpuModel(
    model="Intel Core i7-4770S",
    arch=HASWELL,
    clock_ghz=3.1,
    cores=4,
    threads=8,
    tdp_watts=65.0,
    cache_mib=8.0,
    socket="LGA-1150",
    price_usd=305.0,
)

#: Representative XSEDE-site CPU (e.g. Montana State's Hyalite nodes):
#: 576 cores x 2.6 GHz x 8 flops/cycle = 11.98 TF, matching Table 3 exactly.
XEON_E5_2670 = CpuModel(
    model="Intel Xeon E5-2670",
    arch=SANDY_BRIDGE,
    clock_ghz=2.6,
    cores=8,
    threads=16,
    tdp_watts=115.0,
    cache_mib=20.0,
    socket="LGA-2011",
    price_usd=1552.0,
)

#: The Raspberry Pi Model B SoC — the Section 8 comparison point.
BCM2835 = CpuModel(
    model="Broadcom BCM2835 (Raspberry Pi)",
    arch=ARM1176,
    clock_ghz=0.7,
    cores=1,
    threads=1,
    tdp_watts=2.5,
    cache_mib=0.125,
    socket="FCBGA-SoC",
    price_usd=35.0,
)

#: Westmere-era site CPU (Marshall University's pre-GPU compute partition).
XEON_X5660 = CpuModel(
    model="Intel Xeon X5660",
    arch=WESTMERE,
    clock_ghz=2.8,
    cores=6,
    threads=12,
    tdp_watts=95.0,
    cache_mib=12.0,
    socket="LGA-1366",
    price_usd=1219.0,
)

CPU_CATALOG: dict[str, CpuModel] = {
    cpu.model: cpu
    for cpu in (
        ATOM_D510,
        CELERON_G1840,
        I7_4770S,
        XEON_E5_2670,
        XEON_X5660,
        BCM2835,
    )
}


def calibrated_cpu(
    name: str,
    *,
    cores: int,
    target_rpeak_gflops: float,
    flops_per_cycle: int = 8,
    threads: int | None = None,
    tdp_watts: float = 95.0,
    socket: str = "LGA-2011",
    price_usd: float = 1000.0,
) -> CpuModel:
    """Build a synthetic CPU whose socket Rpeak hits an observed target.

    Table 3 publishes nodes/cores/Rpeak for real campus deployments without
    naming the silicon.  To *rebuild* those sites in simulation we synthesise
    a CPU whose clock is solved from the published figures::

        clock = Rpeak / (cores x flops_per_cycle)

    ``target_rpeak_gflops`` is the peak of **one socket** (total site Rpeak
    divided by total socket count).  This is a documented substitution — see
    DESIGN.md — not an attempt to guess the actual hardware.
    """
    if cores <= 0:
        raise CatalogError(f"calibrated CPU needs positive cores, got {cores}")
    if target_rpeak_gflops <= 0:
        raise CatalogError(
            f"calibrated CPU needs positive target Rpeak, got {target_rpeak_gflops}"
        )
    clock = target_rpeak_gflops / (cores * flops_per_cycle)
    arch = Microarchitecture(
        name=f"calibrated/{flops_per_cycle}flops",
        flops_per_cycle=flops_per_cycle,
    )
    return CpuModel(
        model=name,
        arch=arch,
        clock_ghz=clock,
        cores=cores,
        threads=threads if threads is not None else cores * 2,
        tdp_watts=tdp_watts,
        cache_mib=12.0,
        socket=socket,
        price_usd=price_usd,
    )

"""Physical and monetary quantities used throughout the simulation.

The paper's evaluation is largely arithmetic over hardware specifications:
clock rates (GHz), theoretical throughput (GFLOPS), power (watts), storage
(bytes), and money (USD).  Keeping these as tiny typed helpers avoids the
classic unit-confusion bugs (MHz vs GHz, GFLOPS vs TFLOPS) that would silently
corrupt Table 3/5 reproductions.

All quantities are stored in a single canonical unit (documented per function)
and plain ``float``/``int`` are used at rest for numpy-friendliness; these
helpers are for *construction* and *formatting*.
"""

from __future__ import annotations

__all__ = [
    "mhz",
    "gflops",
    "tflops",
    "gflops_to_tflops",
    "watts",
    "kib",
    "mib",
    "gib",
    "tib",
    "gb",
    "tb",
    "dollars_per_gflops",
    "fmt_tflops",
    "fmt_bytes",
    "fmt_usd",
    "fmt_watts",
    "seconds_per_hour",
    "hours_per_year",
]

#: seconds in an hour (for energy and cloud-cost integration)
seconds_per_hour = 3600.0
#: hours in a (non-leap) year, used by the cloud cost model
hours_per_year = 8760.0


def mhz(value: float) -> float:
    """Clock rate given in MHz, converted to canonical GHz."""
    return float(value) / 1000.0


def gflops(value: float) -> float:
    """Throughput in GFLOPS (canonical unit for compute rates)."""
    return float(value)


def tflops(value: float) -> float:
    """Throughput given in TFLOPS, converted to canonical GFLOPS."""
    return float(value) * 1000.0


def gflops_to_tflops(value_gflops: float) -> float:
    """Convert canonical GFLOPS to TFLOPS for reporting."""
    return value_gflops / 1000.0


def watts(value: float) -> float:
    """Power in watts (canonical unit for power)."""
    return float(value)


def kib(value: float) -> int:
    """Size given in KiB, converted to canonical bytes."""
    return int(value * 1024)


def mib(value: float) -> int:
    """Size given in MiB, converted to canonical bytes."""
    return int(value * 1024**2)


def gib(value: float) -> int:
    """Size given in GiB, converted to canonical bytes."""
    return int(value * 1024**3)


def tib(value: float) -> int:
    """Size given in TiB, converted to canonical bytes."""
    return int(value * 1024**4)


def gb(value: float) -> int:
    """Size given in decimal GB (vendor units), converted to bytes."""
    return int(value * 10**9)


def tb(value: float) -> int:
    """Size given in decimal TB (vendor units), converted to bytes."""
    return int(value * 10**12)


def dollars_per_gflops(cost_usd: float, rate_gflops: float) -> float:
    """Price/performance as reported in Table 5 ($/GFLOPS).

    Raises ``ZeroDivisionError`` if ``rate_gflops`` is zero, which would mean a
    cluster with no compute capability — always a modelling bug upstream.
    """
    return cost_usd / rate_gflops


def fmt_tflops(value_gflops: float) -> str:
    """Render a canonical-GFLOPS value in TFLOPS with two decimals."""
    return f"{value_gflops / 1000.0:.2f} TFLOPS"


def fmt_bytes(value_bytes: int) -> str:
    """Human-readable byte size using binary prefixes."""
    size = float(value_bytes)
    for prefix in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if size < 1024.0 or prefix == "PiB":
            if prefix == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {prefix}"
        size /= 1024.0
    raise AssertionError("unreachable")


def fmt_usd(value_usd: float) -> str:
    """Render dollars with thousands separators, e.g. ``$3,600``."""
    if value_usd == int(value_usd):
        return f"${int(value_usd):,}"
    return f"${value_usd:,.2f}"


def fmt_watts(value_watts: float) -> str:
    """Render a power figure, e.g. ``43.06 W``."""
    return f"{value_watts:g} W"

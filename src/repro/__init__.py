"""repro: a full reproduction of "XCBC and XNIT — tools for cluster
implementation and management in research and training" (Fischer et al.,
CLUSTER 2015).

The paper's artefacts — a Rocks roll (XCBC) and a Yum repository (XNIT) —
are rebuilt as working tools over a simulated substrate: cluster hardware
(the modified LittleFe and the Limulus HPC200 among others), an RPM/Yum
package-management engine, a Rocks-like bare-metal provisioner on a
PXE/DHCP fabric, batch schedulers, simulated MPI, and an HPL/Linpack
benchmark engine.

Quickstart::

    from repro.hardware import build_littlefe_modified
    from repro.core import build_xcbc_cluster, audit_host

    machine = build_littlefe_modified().machine
    report = build_xcbc_cluster(machine)
    print(audit_host(report.cluster.frontend, report.cluster.frontend_db).render())

See README.md for the architecture tour, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the paper-vs-measured record.
"""

__version__ = "1.0.0"

import importlib

from .errors import ReproError

__all__ = [
    "__version__",
    "ReproError",
    "hardware",
    "distro",
    "rpm",
    "yum",
    "rocks",
    "network",
    "mpi",
    "scheduler",
    "sim",
    "linpack",
    "pfs",
    "monitoring",
    "htc",
    "grid",
    "core",
]


def __getattr__(name: str):
    """Import a subpackage the first time it is asked for (PEP 562), so a
    process loads only the packages its entry point reaches."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

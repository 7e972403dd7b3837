"""Exception hierarchy for the repro package.

Every subsystem raises subclasses of :class:`ReproError` so callers can catch
all simulation failures with one handler while still being able to distinguish
hardware-assembly problems from package-dependency problems, etc.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "HardwareError",
    "AssemblyError",
    "PowerBudgetError",
    "ClearanceError",
    "CatalogError",
    "DistroError",
    "FilesystemError",
    "ServiceError",
    "UserError",
    "ModuleEnvError",
    "CommandError",
    "RpmError",
    "PackageNotFoundError",
    "DependencyError",
    "ConflictError",
    "TransactionError",
    "YumError",
    "RepoConfigError",
    "RepoPriorityError",
    "RocksError",
    "FleetError",
    "RollError",
    "KickstartError",
    "ProvisionError",
    "NetworkError",
    "DhcpError",
    "PxeError",
    "MpiError",
    "SimulationError",
    "TraceError",
    "FaultError",
    "RetryExhaustedError",
    "NodeOfflineError",
    "HeadnodeCrashError",
    "RecoveryError",
    "JournalError",
    "CheckpointError",
    "SchedulerError",
    "JobError",
    "MonitoringError",
    "ShellError",
    "RepodError",
    "CasError",
    "CasIntegrityError",
    "LinpackError",
    "CompatibilityError",
    "DeploymentError",
    "TrainingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# --- hardware -------------------------------------------------------------


class HardwareError(ReproError):
    """Base class for hardware-simulation errors."""


class AssemblyError(HardwareError):
    """A node or chassis build violates a physical constraint."""


class PowerBudgetError(AssemblyError):
    """Component power draw exceeds the supply rating."""


class ClearanceError(AssemblyError):
    """A component does not physically fit in its allotted space."""


class CatalogError(HardwareError):
    """An unknown part was requested from the parts catalogue."""


# --- distro ----------------------------------------------------------------


class DistroError(ReproError):
    """Base class for simulated-OS errors."""


class FilesystemError(DistroError):
    """Invalid filesystem operation (missing path, not a directory, ...)."""


class ServiceError(DistroError):
    """Invalid service-manager operation."""


class UserError(DistroError):
    """Invalid user-database operation."""


class ModuleEnvError(DistroError):
    """Invalid environment-modules operation."""


class CommandError(DistroError):
    """A simulated shell command failed or was not found."""


# --- rpm / yum ---------------------------------------------------------------


class RpmError(ReproError):
    """Base class for RPM-engine errors."""


class PackageNotFoundError(RpmError):
    """No package with the requested name/capability exists."""


class DependencyError(RpmError):
    """A requirement could not be satisfied."""

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        #: capabilities that could not be resolved
        self.missing = missing


class ConflictError(RpmError):
    """Two packages in a transaction conflict."""


class TransactionError(RpmError):
    """A transaction could not be committed; the DB is unchanged."""


class YumError(RpmError):
    """Base class for yum-layer errors."""


class RepoConfigError(YumError):
    """A .repo configuration file is malformed."""


class RepoPriorityError(YumError):
    """Invalid repository priority value."""


# --- rocks ------------------------------------------------------------------


class RocksError(ReproError):
    """Base class for Rocks-provisioner errors."""


class FleetError(RocksError):
    """Invalid fleet-table operation or NodeSet expression."""


class RollError(RocksError):
    """Invalid roll definition or selection."""


class KickstartError(RocksError):
    """The kickstart graph is malformed (cycle, missing node, ...)."""


class ProvisionError(RocksError):
    """Node provisioning failed (no disk, PXE failure, ...)."""


# --- network / mpi ------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for fabric errors."""


class DhcpError(NetworkError):
    """DHCP protocol failure (pool exhausted, unknown MAC, ...)."""


class PxeError(NetworkError):
    """PXE boot failure."""


class MpiError(ReproError):
    """Invalid simulated-MPI operation."""


# --- simulation kernel ---------------------------------------------------------


class SimulationError(ReproError):
    """Invalid simulation-kernel operation (time regression, dead handle, ...)."""


class TraceError(SimulationError):
    """A trace event violates the schema (unknown kind, missing field, ...)."""


# --- fault injection / recovery -------------------------------------------------


class FaultError(ReproError):
    """Base class for injected-fault and recovery-machinery errors."""


class RetryExhaustedError(FaultError):
    """An operation failed on every attempt a :class:`RetryPolicy` allowed.

    ``last_error`` carries the final underlying failure; ``attempts`` the
    number of tries made before giving up.
    """

    def __init__(
        self, message: str, *, attempts: int = 0, last_error: Exception | None = None
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class NodeOfflineError(FaultError):
    """An operation was routed to a node that is crashed, drained, or off."""


class HeadnodeCrashError(FaultError):
    """The simulated frontend died without warning.

    This exception is control flow, not an error report: it models the
    process dying, so nothing may catch it to "handle" the failure —
    retry loops and transaction rollback handlers must let it propagate
    (a crashed head node cannot run its own cleanup).  Recovery happens
    out-of-band through :mod:`repro.recovery` (checkpoint restore plus
    journal replay/rollback).
    """


# --- crash recovery (repro.recovery) ---------------------------------------------


class RecoveryError(FaultError):
    """Base class for checkpoint/journal/supervisor machinery errors."""


class JournalError(RecoveryError):
    """Invalid write-ahead-journal operation (closed txn, unknown op, ...)."""


class CheckpointError(RecoveryError):
    """A snapshot could not be captured, loaded, or verified on restore."""


# --- scheduler ----------------------------------------------------------------


class SchedulerError(ReproError):
    """Base class for batch-scheduler errors."""


class JobError(SchedulerError):
    """Invalid job specification or state transition."""


# --- monitoring ----------------------------------------------------------------


class MonitoringError(ReproError):
    """Invalid monitoring operation."""


# --- parallel admin execution (repro.shell) --------------------------------------


class ShellError(ReproError):
    """Invalid parallel-execution request or a command transport failure."""


# --- repository service (repro.repod) --------------------------------------------


class RepodError(ReproError):
    """Invalid repository-service request or configuration."""


# --- content-addressed delivery (repro.cas) --------------------------------------


class CasError(ReproError):
    """Invalid content-addressed store or stratum-hierarchy operation."""


class CasIntegrityError(CasError):
    """Chunk content failed verification (digest mismatch, missing chunk)."""


# --- linpack / core -------------------------------------------------------------


class LinpackError(ReproError):
    """Invalid HPL configuration."""


class CompatibilityError(ReproError):
    """A compatibility audit could not be performed."""


class DeploymentError(ReproError):
    """A site deployment specification is invalid."""


class TrainingError(ReproError):
    """Invalid curriculum/training session operation."""

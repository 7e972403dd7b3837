"""A chkconfig/init-style service manager.

Rocks-era clusters manage daemons with SysV init: the frontend runs dhcpd,
httpd (the kickstart server), the scheduler server (pbs_server/slurmctld),
ganglia's gmetad; compute nodes run the scheduler's node daemon (pbs_mom,
slurmd) and gmond.  Packages register services at install time; the
provisioner enables and starts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import ServiceError

__all__ = ["ServiceState", "Service", "ServiceManager"]


class ServiceState(str, Enum):
    """Runtime state of a service."""

    STOPPED = "stopped"
    RUNNING = "running"
    FAILED = "failed"


@dataclass
class Service:
    """One registered service."""

    name: str
    package: str  # owning RPM
    state: ServiceState = ServiceState.STOPPED
    enabled: bool = False  # start at boot


class ServiceManager:
    """Service registry and lifecycle for one host."""

    def __init__(self) -> None:
        self._services: dict[str, Service] = {}

    def register(self, name: str, *, package: str) -> Service:
        """Register a service (idempotent for the same owning package)."""
        existing = self._services.get(name)
        if existing is not None:
            if existing.package != package:
                raise ServiceError(
                    f"service {name!r} already registered by "
                    f"{existing.package!r}, cannot re-register from {package!r}"
                )
            return existing
        svc = Service(name=name, package=package)
        self._services[name] = svc
        return svc

    def _holds_none(self, names) -> bool:
        """True if no service of ``names`` is registered here, so
        :meth:`_register_all` of them replaces nothing."""
        return self._services.keys().isdisjoint(names)

    def _register_all(self, owners: dict[str, str]) -> None:
        """Register each service of ``owners`` (service -> package) in one
        step; none of them may be registered yet (see :meth:`_holds_none`)."""
        self._services.update(
            {name: Service(name, package) for name, package in owners.items()}
        )

    def unregister_package(self, package: str) -> list[str]:
        """Drop (stopping first) every service owned by ``package``."""
        dropped = []
        for name in [n for n, s in self._services.items() if s.package == package]:
            del self._services[name]
            dropped.append(name)
        return sorted(dropped)

    def get(self, name: str) -> Service:
        """Fetch a service record."""
        try:
            return self._services[name]
        except KeyError:
            raise ServiceError(f"unknown service: {name}") from None

    def start(self, name: str) -> None:
        """Start a service (no-op if already running)."""
        self.get(name).state = ServiceState.RUNNING

    def fail(self, name: str) -> None:
        """Mark a service failed (used by failure-injection tests)."""
        self.get(name).state = ServiceState.FAILED

    def enable(self, name: str) -> None:
        """chkconfig on: start the service at boot."""
        self.get(name).enabled = True

    def is_running(self, name: str) -> bool:
        """True if the service exists and is running."""
        svc = self._services.get(name)
        return svc is not None and svc.state is ServiceState.RUNNING

    def boot(self) -> list[str]:
        """Simulate host boot: start every enabled service; return names."""
        started = []
        for name in sorted(self._services):
            svc = self._services[name]
            if svc.enabled and svc.state is not ServiceState.RUNNING:
                svc.state = ServiceState.RUNNING
                started.append(name)
        return started

    def all_services(self) -> list[Service]:
        """All service records, sorted by name."""
        return [self._services[n] for n in sorted(self._services)]

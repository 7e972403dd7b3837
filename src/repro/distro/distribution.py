"""Linux distribution releases.

XCBC 0.0.8 moved the base OS from CentOS 6.3 to 6.5 (Section 2), Rocks 6.1.1
is built on CentOS 6.5, and the Limulus HPC200 ships Scientific Linux — "an
RPM-based Red Hat Linux variant" (Section 5).  A release here is mostly an
identity plus the stock package set the OS install lays down before any
XCBC/XNIT software arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DistroError

__all__ = [
    "DistroRelease",
    "CENTOS_6_3",
    "CENTOS_6_5",
    "SCIENTIFIC_LINUX_6_5",
]


@dataclass(frozen=True)
class DistroRelease:
    """One distribution release."""

    name: str
    version: str
    family: str  # "rhel" for all paper distros
    kernel_version: str
    #: package names the base install provides (consumed by the RPM layer;
    #: versions are resolved against the base repository)
    base_packages: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.family != "rhel":
            raise DistroError(
                f"only RHEL-family distros are modelled, got {self.family!r}"
            )

    @property
    def release_string(self) -> str:
        """e.g. ``"CentOS 6.5"`` — what /etc/redhat-release would say."""
        return f"{self.name} {self.version}"


#: Minimal but realistic base set every RHEL-6 era install carries.
_RHEL6_BASE = (
    "glibc",
    "bash",
    "coreutils",
    "kernel",
    "rpm",
    "yum",
    "openssh",
    "openssh-server",
    "python-base",
    "perl-base",
    "chkconfig",
    "initscripts",
    "util-linux",
    "e2fsprogs",
    "net-tools",
    "cronie",
)

CENTOS_6_3 = DistroRelease(
    name="CentOS",
    version="6.3",
    family="rhel",
    kernel_version="2.6.32-279",
    base_packages=_RHEL6_BASE,
)

CENTOS_6_5 = DistroRelease(
    name="CentOS",
    version="6.5",
    family="rhel",
    kernel_version="2.6.32-431",
    base_packages=_RHEL6_BASE,
)

SCIENTIFIC_LINUX_6_5 = DistroRelease(
    name="Scientific Linux",
    version="6.5",
    family="rhel",
    kernel_version="2.6.32-431",
    base_packages=_RHEL6_BASE,
)

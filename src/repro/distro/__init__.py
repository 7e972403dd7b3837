"""Simulated RHEL-family operating system: filesystem, services, users,
environment modules, and distribution releases.

This is the substrate XCBC/XNIT manage: packages own files in the
:class:`~repro.distro.filesystem.Filesystem`, register services, install
modulefiles, and the host's command surface (:meth:`Host.which`) is what the
XSEDE-compatibility audit measures.
"""

from .distribution import (
    CENTOS_6_3,
    CENTOS_6_5,
    SCIENTIFIC_LINUX_6_5,
    DistroRelease,
)
from .filesystem import FileKind, Filesystem, FsNode, normpath, parent_dirs
from .host import Host
from .modules_env import ModuleFile, ModuleSession, ModuleSystem
from .services import Service, ServiceManager, ServiceState
from .users import FIRST_USER_UID, Group, User, UserDatabase

__all__ = [
    "DistroRelease",
    "CENTOS_6_3",
    "CENTOS_6_5",
    "SCIENTIFIC_LINUX_6_5",
    "Filesystem",
    "FsNode",
    "FileKind",
    "normpath",
    "parent_dirs",
    "Host",
    "ModuleFile",
    "ModuleSystem",
    "ModuleSession",
    "Service",
    "ServiceManager",
    "ServiceState",
    "User",
    "Group",
    "UserDatabase",
    "FIRST_USER_UID",
]

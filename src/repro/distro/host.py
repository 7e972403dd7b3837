"""A simulated host: one OS installation on one hardware node.

The :class:`Host` is the object every higher layer operates on — the RPM
database lives on it, yum transactions mutate it, Rocks provisions it, the
compatibility audit inspects it.  It ties together the filesystem, service
manager, user database, environment-modules tree and the distro release.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CommandError, DistroError
from ..hardware.node import Node
from .distribution import DistroRelease
from .filesystem import FileKind, Filesystem
from .modules_env import ModuleSystem
from .services import ServiceManager
from .users import UserDatabase

__all__ = ["Host"]

#: Directories searched for executables, in order (XSEDE convention keeps
#: cluster software under /opt and /usr/local as well as the system paths).
DEFAULT_PATH = (
    "/usr/local/bin",
    "/usr/bin",
    "/bin",
    "/usr/sbin",
    "/sbin",
    "/opt/bin",
)


class Host:
    """One installed operating system on one node.

    Parameters
    ----------
    node:
        The hardware this OS runs on.  A host can only be created on a node
        with storage unless ``diskless_image`` is true (the Limulus compute
        nodes network-boot a shared image; Rocks, by contrast, refuses
        diskless nodes — that check lives in :mod:`repro.rocks.installer`).
    release:
        The distro release installed.
    diskless_image:
        True when the host runs a network-mounted image rather than a local
        install.
    """

    def __init__(
        self,
        node: Node,
        release: DistroRelease,
        *,
        diskless_image: bool = False,
    ) -> None:
        if node.diskless and not diskless_image:
            raise DistroError(
                f"{node.name}: cannot install {release.release_string} on a "
                f"diskless node without a network image"
            )
        self.node = node
        self.release = release
        self.diskless_image = diskless_image
        self.fs = Filesystem()
        self.services = ServiceManager()
        self.users = UserDatabase()
        self.modules = ModuleSystem()
        self.hostname = node.name
        self._lay_down_base_os()

    # -- base install ---------------------------------------------------------

    def _lay_down_base_os(self) -> None:
        """Create the canonical tree and release marker of a fresh install."""
        for path in (
            "/bin",
            "/sbin",
            "/usr/bin",
            "/usr/sbin",
            "/usr/lib64",
            "/usr/local/bin",
            "/usr/share",
            "/etc",
            "/etc/yum.repos.d",
            "/etc/modulefiles",
            "/var/log",
            "/var/lib/rpm",
            "/home",
            "/opt",
            "/tmp",
            "/root",
        ):
            self.fs.mkdir(path, exist_ok=True)
        self.fs.write(
            "/etc/redhat-release", self.release.release_string + "\n"
        )
        self.fs.write("/etc/hostname", self.hostname + "\n")
        # The shell itself.
        self.fs.write("/bin/bash", "#!ELF bash", mode=0o755, owner="bash")

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """The hostname (same as the hardware node name)."""
        return self.hostname

    @property
    def arch(self) -> str:
        """The machine architecture (``uname -m``), from the CPU's ISA.

        This is what makes Section 8's Raspberry-Pi argument executable:
        XCBC/XNIT packages are ``x86_64`` builds and refuse to install on a
        non-x86 host (rule TX701 of
        :meth:`repro.rpm.transaction.Transaction.check_diagnostics`).
        """
        return self.node.cpu.arch.isa

    def release_string(self) -> str:
        """Contents of /etc/redhat-release, stripped."""
        return self.fs.read("/etc/redhat-release").strip()

    # -- command surface -----------------------------------------------------------

    def which(self, command: str) -> str:
        """Resolve a command name against the standard PATH.

        Returns the path of the first executable match; raises
        :class:`CommandError` if not found.  Only a bare name is searched
        for, as a shell does: anything with a ``/`` in it, ``.``, ``..`` or
        the empty name is not found.  This is the "commands work as they do
        on XSEDE-supported clusters" surface the compatibility audit
        exercises.
        """
        if command in ("", ".", "..") or "/" in command:
            raise CommandError(f"{self.hostname}: command not found: {command}")
        for directory in DEFAULT_PATH:
            candidate = f"{directory}/{command}"  # already normal
            node = self.fs._node(candidate)
            if node is None:
                continue
            if node.kind is FileKind.SYMLINK:
                node = self.fs.get(node.target)
            if node.executable:
                return candidate
        raise CommandError(f"{self.hostname}: command not found: {command}")

    def has_command(self, command: str) -> bool:
        """True if :meth:`which` would succeed."""
        try:
            self.which(command)
            return True
        except CommandError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.hostname} ({self.release.release_string})>"

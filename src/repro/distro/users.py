"""User/group database for a simulated host.

Cluster-wide uniform users are one of the things Rocks manages centrally
(the frontend's database pushes accounts to compute nodes); the campus
bridging story also cares about a researcher's account moving between
clusters with their environment intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UserError

__all__ = ["User", "Group", "UserDatabase", "FIRST_USER_UID"]

#: RHEL-6 convention: system accounts below 500, people from 500 up.
FIRST_USER_UID = 500


@dataclass
class Group:
    """A POSIX group."""

    name: str
    gid: int
    members: set[str] = field(default_factory=set)


@dataclass
class User:
    """A POSIX account."""

    name: str
    uid: int
    gid: int
    home: str
    shell: str = "/bin/bash"
    system: bool = False
    #: environment-modules the user loads in their profile; this is the
    #: portability payload the compatibility audit checks
    profile_modules: list[str] = field(default_factory=list)


class UserDatabase:
    """The /etc/passwd + /etc/group of one host."""

    def __init__(self) -> None:
        self._users: dict[str, User] = {}
        self._groups: dict[str, Group] = {}
        self._next_uid = FIRST_USER_UID
        self._next_system_uid = 100
        self._next_gid = FIRST_USER_UID
        self._next_system_gid = 100
        # root always exists
        self._groups["root"] = Group("root", 0, {"root"})
        self._users["root"] = User("root", 0, 0, "/root", system=True)

    # -- groups -------------------------------------------------------------

    def add_group(self, name: str, *, system: bool = False) -> Group:
        """Create a group, allocating the next free gid."""
        if name in self._groups:
            raise UserError(f"group exists: {name}")
        gid = self._alloc_gid(system)
        group = Group(name, gid)
        self._groups[name] = group
        return group

    # -- users --------------------------------------------------------------

    def add_user(
        self,
        name: str,
        *,
        system: bool = False,
        home: str | None = None,
        shell: str = "/bin/bash",
    ) -> User:
        """Create an account plus its primary group (useradd semantics)."""
        if name in self._users:
            raise UserError(f"user exists: {name}")
        group = self._groups.get(name) or self.add_group(name, system=system)
        uid = self._alloc_id(system)
        user = User(
            name=name,
            uid=uid,
            gid=group.gid,
            home=home or (f"/var/lib/{name}" if system else f"/home/{name}"),
            shell=shell,
            system=system,
        )
        self._users[name] = user
        group.members.add(name)
        return user

    def has_user(self, name: str) -> bool:
        return name in self._users

    def users(self) -> list[User]:
        """All accounts sorted by uid."""
        return sorted(self._users.values(), key=lambda u: u.uid)

    def _alloc_id(self, system: bool) -> int:
        if system:
            value = self._next_system_uid
            self._next_system_uid += 1
        else:
            value = self._next_uid
            self._next_uid += 1
        return value

    def _alloc_gid(self, system: bool) -> int:
        if system:
            value = self._next_system_gid
            self._next_system_gid += 1
        else:
            value = self._next_gid
            self._next_gid += 1
        return value

"""Parsing and writing ``/etc/yum.repos.d/*.repo`` files.

Section 3 gives two ways to enable XNIT: install the ``xsede-repo`` RPM
(which drops the file for you), or "install the yum-plugin-priorities
package, then create the file /etc/yum.repos.d/xsede.repo with the lines
specified in the XSEDE Yum repository README".  Both paths converge on a
``.repo`` file like::

    [xsede]
    name=XSEDE National Integration Toolkit
    baseurl=http://cb-repo.iu.xsede.org/xsederepo/
    enabled=1
    gpgcheck=0
    priority=50

The parser accepts the INI dialect yum uses (sections, ``key=value``,
``#``/``;`` comments) and rejects malformed content loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RepoConfigError
from .repository import DEFAULT_PRIORITY

__all__ = ["RepoStanza", "parse_repo_file", "XSEDE_REPO_STANZA"]


@dataclass(frozen=True)
class RepoStanza:
    """One ``[repoid]`` section of a .repo file."""

    repo_id: str
    name: str
    baseurl: str
    enabled: bool = True
    gpgcheck: bool = False
    priority: int = DEFAULT_PRIORITY

    def render(self) -> str:
        return (
            f"[{self.repo_id}]\n"
            f"name={self.name}\n"
            f"baseurl={self.baseurl}\n"
            f"enabled={1 if self.enabled else 0}\n"
            f"gpgcheck={1 if self.gpgcheck else 0}\n"
            f"priority={self.priority}\n"
        )


#: The stanza the XSEDE Yum repository README specifies (ref [13]).
XSEDE_REPO_STANZA = RepoStanza(
    repo_id="xsede",
    name="XSEDE National Integration Toolkit",
    baseurl="http://cb-repo.iu.xsede.org/xsederepo/",
    enabled=True,
    gpgcheck=False,
    priority=50,
)


def _parse_bool(value: str, *, where: str) -> bool:
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise RepoConfigError(f"{where}: expected boolean 0/1, got {value!r}")


def parse_repo_file(text: str) -> list[RepoStanza]:
    """Parse a .repo file into stanzas.

    Raises :class:`RepoConfigError` on: content before the first section,
    duplicate section ids, duplicate keys, unknown keys, missing mandatory
    keys (``name``, ``baseurl``), or invalid values.
    """
    stanzas: list[RepoStanza] = []
    seen_ids: set[str] = set()
    current_id: str | None = None
    current: dict[str, str] = {}

    def flush() -> None:
        nonlocal current_id, current
        if current_id is None:
            return
        where = f"[{current_id}]"
        for key in ("name", "baseurl"):
            if key not in current:
                raise RepoConfigError(f"{where}: missing required key {key!r}")
        priority = int(current.get("priority", str(DEFAULT_PRIORITY)))
        stanzas.append(
            RepoStanza(
                repo_id=current_id,
                name=current["name"],
                baseurl=current["baseurl"],
                enabled=_parse_bool(current.get("enabled", "1"), where=where),
                gpgcheck=_parse_bool(current.get("gpgcheck", "0"), where=where),
                priority=priority,
            )
        )
        current_id, current = None, {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            repo_id = line[1:-1].strip()
            if not repo_id:
                raise RepoConfigError(f"line {lineno}: empty section name")
            if repo_id in seen_ids:
                raise RepoConfigError(f"line {lineno}: duplicate section [{repo_id}]")
            seen_ids.add(repo_id)
            current_id = repo_id
            continue
        if current_id is None:
            raise RepoConfigError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise RepoConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current:
            raise RepoConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current_id}]"
            )
        if key not in ("name", "baseurl", "enabled", "gpgcheck", "priority"):
            raise RepoConfigError(f"line {lineno}: unknown key {key!r}")
        current[key] = value
    flush()
    if not stanzas:
        raise RepoConfigError("no repository stanzas found")
    return stanzas

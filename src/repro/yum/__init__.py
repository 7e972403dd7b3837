"""The Yum layer: repositories, .repo configuration, priorities, dependency
resolution, the client verbs, update notification, and mirroring.

XNIT *is* a yum repository plus a documented workflow (Section 3); this
package makes that workflow executable.
"""

from .client import UpdateInfo, YumClient
from .groups import GroupCatalog, PackageGroup, groupinstall
from .depsolver import Resolution, best_provider, resolve_install, resolve_update
from .mirror import MirrorLink, RepoMirror, SyncStats
from .repoconfig import (
    XSEDE_REPO_STANZA,
    RepoStanza,
    parse_repo_file,
)
from .repository import DEFAULT_PRIORITY, Repository, RepoSet
from .updatenotifier import (
    AutoApplyPolicy,
    NotifyPolicy,
    StagedRollout,
    UpdateReport,
)

__all__ = [
    "Repository",
    "RepoSet",
    "DEFAULT_PRIORITY",
    "RepoStanza",
    "parse_repo_file",
    "XSEDE_REPO_STANZA",
    "Resolution",
    "resolve_install",
    "resolve_update",
    "best_provider",
    "YumClient",
    "UpdateInfo",
    "PackageGroup",
    "GroupCatalog",
    "groupinstall",
    "NotifyPolicy",
    "AutoApplyPolicy",
    "StagedRollout",
    "UpdateReport",
    "MirrorLink",
    "RepoMirror",
    "SyncStats",
]

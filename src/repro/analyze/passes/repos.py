"""Yum repository checks: configuration stanzas and priority interactions.

Section 3's setup instructions hinge on ``yum-plugin-priorities``: the XSEDE
repo is given a better (lower) priority than the OS base so its builds win.
The same mechanism is a famous foot-gun in the other direction — a
higher-priority repo *hides every newer NEVRA* a lower-priority repo
publishes, which is how clusters quietly stop receiving updates.  RC202
detects that shadowing statically, from repository contents.
"""

from __future__ import annotations

from collections import Counter

from ...yum.repository import priority_problem
from ..diagnostic import Severity
from ..registry import rule

RC201 = rule(
    "RC201",
    "repo",
    Severity.ERROR,
    "duplicate repository id across the definition",
    "yum refuses duplicate [sections]; rename one of the repos",
)
RC202 = rule(
    "RC202",
    "repo",
    Severity.WARNING,
    "priority shadowing hides every newer build of a package",
    "lower the shadowed repo's priority number (or raise the shadowing "
    "repo's) so the newer NEVRA is visible — the yum-plugin-priorities "
    "foot-gun Section 3 warns about",
)
RC203 = rule(
    "RC203",
    "repo",
    Severity.ERROR,
    "repository the recipe depends on is disabled or missing",
    "set enabled=1 on the stanza, or remove the dependency on the repo",
)
RC204 = rule(
    "RC204",
    "repo",
    Severity.INFO,
    "GPG signature checking is disabled on an enabled repository",
    "set gpgcheck=1 and import the signing key once the repo publishes one",
)
RC205 = rule(
    "RC205",
    "repo",
    Severity.ERROR,
    "repository priority outside the valid 1..99 range",
    "yum-plugin-priorities clamps silently; use a value in 1..99",
)


def run(definition, emit) -> None:
    stanzas = list(definition.repo_stanzas)
    repositories = list(definition.repositories)
    if not stanzas and not repositories and not definition.required_repo_ids:
        return

    # RC201: duplicate ids across everything the definition declares.
    counts = Counter(
        [s.repo_id for s in stanzas] + [r.repo_id for r in repositories]
    )
    for repo_id, count in sorted(counts.items()):
        if count > 1:
            emit(
                "RC201",
                f"repository id {repo_id!r} is declared {count} times",
                location=f"repo:[{repo_id}]",
            )

    # RC205 / RC204: stanza-level configuration checks.
    for stanza in stanzas:
        problem = priority_problem(stanza.priority)
        if problem is not None:
            emit(
                "RC205",
                f"[{stanza.repo_id}] {problem}",
                location=f"repo:[{stanza.repo_id}]",
            )
        if stanza.enabled and not stanza.gpgcheck:
            emit(
                "RC204",
                f"[{stanza.repo_id}] has gpgcheck=0: packages install unsigned",
                location=f"repo:[{stanza.repo_id}]",
            )

    # RC203: every repo the recipe references must exist and be enabled.
    enabled_ids = {s.repo_id for s in stanzas if s.enabled}
    enabled_ids |= {r.repo_id for r in repositories if r.enabled}
    known_ids = {s.repo_id for s in stanzas} | {r.repo_id for r in repositories}
    for repo_id in definition.required_repo_ids:
        if repo_id not in known_ids:
            emit(
                "RC203",
                f"recipe references repository {repo_id!r}, which is not defined",
                location=f"repo:[{repo_id}]",
            )
        elif repo_id not in enabled_ids:
            emit(
                "RC203",
                f"recipe references repository {repo_id!r}, which is disabled",
                location=f"repo:[{repo_id}]",
            )

    # RC202: content-level priority shadowing.  For each package name, the
    # best-priority repos are the only ones yum will consider; if a worse-
    # priority repo holds a strictly newer EVR than anything the best tier
    # offers, every newer build of that name is invisible.
    enabled_repos = [r for r in repositories if r.enabled]
    if len(enabled_repos) > 1:
        names: set[str] = set()
        for repo in enabled_repos:
            names |= repo.names()
        for name in sorted(names):
            offering = [r for r in enabled_repos if r.has(name)]
            if len(offering) < 2:
                continue
            best = min(r.priority for r in offering)
            if all(r.priority == best for r in offering):
                continue
            visible_newest = max(
                r.latest(name).evr for r in offering if r.priority == best
            )
            for repo in offering:
                if repo.priority == best:
                    continue
                hidden_newest = repo.latest(name)
                if hidden_newest.evr > visible_newest:
                    winner = ", ".join(
                        sorted(
                            r.repo_id for r in offering if r.priority == best
                        )
                    )
                    emit(
                        "RC202",
                        f"{hidden_newest.nevra} in repo {repo.repo_id!r} "
                        f"(priority {repo.priority}) is hidden by "
                        f"priority-{best} repo(s) {winner} whose newest "
                        f"{name} is older",
                        location=f"repo:[{repo.repo_id}]/{name}",
                    )

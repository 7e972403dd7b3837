"""Playbooks: "easily document the approach to make it reproducible" (§8).

"Using the Limulus HPC200, one can take the running cluster, and with XNIT
add software, change the schedulers, and easily document the approach to
make it reproducible."  A :class:`Playbook` is that documentation as data:
an ordered list of administrative actions recorded while they are performed
on one cluster, replayable verbatim on another.

:class:`RecordingSession` wraps a yum client and writes each action both
into the playbook and onto the host; :func:`replay` applies a playbook to a
fresh client and returns the per-step results — the reproducibility test is
that two machines driven by the same playbook converge
(:func:`repro.core.compatibility.diff_environments`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ReproError, RpmError
from ..yum.client import YumClient
from ..yum.repository import Repository
from .xnit import setup_via_manual_repo_file, setup_via_repo_rpm

__all__ = ["PlaybookStep", "Playbook", "RecordingSession", "replay"]

_KNOWN_ACTIONS = (
    "setup-repo-rpm",
    "setup-repo-manual",
    "install",
    "update",
    "erase",
)


@dataclass(frozen=True)
class PlaybookStep:
    """One recorded administrative action."""

    action: str
    arguments: tuple[str, ...] = ()
    comment: str = ""

    def __post_init__(self) -> None:
        if self.action not in _KNOWN_ACTIONS:
            raise ReproError(f"unknown playbook action {self.action!r}")

    def render(self) -> str:
        args = " ".join(self.arguments)
        note = f"   # {self.comment}" if self.comment else ""
        return f"{self.action} {args}".rstrip() + note


@dataclass
class Playbook:
    """The recorded approach."""

    title: str
    steps: list[PlaybookStep] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"# Playbook: {self.title}", ""]
        lines += [f"{i + 1:>3}. {s.render()}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)

    # -- persistence (the "document" part) -----------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "title": self.title,
                "steps": [
                    {
                        "action": s.action,
                        "arguments": list(s.arguments),
                        "comment": s.comment,
                    }
                    for s in self.steps
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Playbook":
        try:
            data = json.loads(text)
            steps = [
                PlaybookStep(
                    action=s["action"],
                    arguments=tuple(s["arguments"]),
                    comment=s.get("comment", ""),
                )
                for s in data["steps"]
            ]
            return cls(title=data["title"], steps=steps)
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ReproError(f"malformed playbook JSON: {exc}") from exc


class RecordingSession:
    """Perform-and-record against one client."""

    def __init__(self, client: YumClient, repo: Repository, *, title: str) -> None:
        self.client = client
        self.repo = repo
        self.playbook = Playbook(title=title)

    def _record(self, action: str, *arguments: str, comment: str = "") -> None:
        self.playbook.steps.append(
            PlaybookStep(action=action, arguments=tuple(arguments), comment=comment)
        )

    def setup_repo_manual(self) -> None:
        setup_via_manual_repo_file(self.client, self.repo)
        self._record(
            "setup-repo-manual",
            comment="yum-plugin-priorities + hand-written xsede.repo",
        )

    def install(self, *names: str, comment: str = "") -> None:
        self.client.install(*names)
        self._record("install", *names, comment=comment)

    def update(self, *names: str, comment: str = "") -> None:
        self.client.update(*names)
        self._record("update", *names, comment=comment)

    def erase(self, *names: str, comment: str = "") -> None:
        self.client.erase(*names)
        self._record("erase", *names, comment=comment)


def replay(
    playbook: Playbook, client: YumClient, repo: Repository
) -> list[tuple[PlaybookStep, str]]:
    """Apply a playbook to another cluster's client.

    Returns ``(step, outcome)`` pairs; any failing step aborts with the
    step identified (a reproducible document must not half-apply silently).
    """
    outcomes: list[tuple[PlaybookStep, str]] = []
    for index, step in enumerate(playbook.steps, 1):
        try:
            if step.action == "setup-repo-rpm":
                setup_via_repo_rpm(client, repo)
                outcome = "repository configured (rpm path)"
            elif step.action == "setup-repo-manual":
                setup_via_manual_repo_file(client, repo)
                outcome = "repository configured (manual path)"
            elif step.action == "install":
                result = client.install(*step.arguments)
                outcome = result.summary()
            elif step.action == "update":
                result = client.update(*step.arguments)
                outcome = result.summary() if result else "already current"
            elif step.action == "erase":
                result = client.erase(*step.arguments)
                outcome = result.summary()
            else:  # pragma: no cover - constructor guards this
                raise ReproError(f"unknown action {step.action!r}")
        except RpmError as exc:
            raise ReproError(
                f"playbook {playbook.title!r} failed at step {index} "
                f"({step.render()}): {exc}"
            ) from exc
        outcomes.append((step, outcome))
    return outcomes

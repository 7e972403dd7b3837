"""Crash-consistent snapshots: the simulated stack as canonical JSON.

A :class:`Snapshot` captures one world's complete declarative state — the
kernel (clock, RNG, pending-event shadow), scheduler queues and node
flags, monitoring mesh, mirror contents, package and host databases — at
a driver-step boundary, plus a SHA-256 digest over the canonical JSON
encoding of that state.

Restore is **state-verified deterministic replay** rather than object
revival: event-queue callbacks are closures and cannot leave the process,
so :meth:`CheckpointManager.restore` rebuilds the world from its
configuration, replays exactly ``snapshot.steps`` driver steps (the
kernel's determinism contract makes this land in the identical state),
and then *proves* it by digesting the rebuilt state against the
snapshot.  The serialized state is load-bearing as the corruption and
divergence check — a single differing field fails the restore loudly with
the paths that diverged.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import CheckpointError

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "state_digest",
    "diff_states",
    "Snapshot",
]

#: Bump on any incompatible change to the snapshot layout.
FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    """The one true encoding: sorted keys, compact separators, no NaN."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"state is not canonical-JSON-able: {exc}") from exc


def state_digest(state: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of ``state``."""
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()


def diff_states(
    expected: Any, actual: Any, *, prefix: str = "", limit: int = 20
) -> list[str]:
    """Dotted paths where two state trees differ (first ``limit`` shown).

    The debugging half of digest verification: a mismatched restore tells
    you *where* the replayed world diverged, not just that it did.
    """
    diffs: list[str] = []

    def walk(a: Any, b: Any, path: str) -> None:
        if len(diffs) >= limit:
            return
        if isinstance(a, Mapping) and isinstance(b, Mapping):
            for key in sorted(set(a) | set(b)):
                sub = f"{path}.{key}" if path else str(key)
                if key not in a:
                    diffs.append(f"{sub}: unexpected (only in actual)")
                elif key not in b:
                    diffs.append(f"{sub}: missing from actual")
                else:
                    walk(a[key], b[key], sub)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for index, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{index}]")
        elif a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")

    walk(expected, actual, prefix)
    return diffs[:limit]


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint of a world, at a driver-step boundary.

    ``steps`` is the resume position — how many top-level driver steps the
    world had taken; ``config`` is everything needed to rebuild the world
    from scratch; ``state`` the full declarative state tree; ``digest``
    its canonical-JSON SHA-256.  ``trace_sha256``/``trace_len`` pin the
    trace prefix, so a resumed run is checked against the original bytes
    too, not only the object state.
    """

    world: str
    steps: int
    now_s: float
    events_processed: int
    config: dict[str, Any]
    state: dict[str, Any]
    trace_len: int
    trace_sha256: str
    digest: str
    label: str = ""
    version: int = FORMAT_VERSION

    def verify(self) -> None:
        """Recompute the state digest; raise on tamper/corruption."""
        actual = state_digest(self.state)
        if actual != self.digest:
            raise CheckpointError(
                f"snapshot {self.label or self.steps}: state digest mismatch "
                f"({actual[:12]} != recorded {self.digest[:12]}) — snapshot "
                f"corrupted or hand-edited"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "world": self.world,
            "label": self.label,
            "steps": self.steps,
            "now_s": self.now_s,
            "events_processed": self.events_processed,
            "config": dict(self.config),
            "state": dict(self.state),
            "trace_len": self.trace_len,
            "trace_sha256": self.trace_sha256,
            "digest": self.digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        pathlib.Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "Snapshot":
        missing = [
            key
            for key in (
                "version", "world", "steps", "now_s", "events_processed",
                "config", "state", "trace_len", "trace_sha256", "digest",
            )
            if key not in obj
        ]
        if missing:
            raise CheckpointError(f"snapshot missing fields: {missing}")
        version = int(obj["version"])
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"snapshot format v{version} is not supported "
                f"(this build reads v{FORMAT_VERSION})"
            )
        snapshot = cls(
            world=str(obj["world"]),
            steps=int(obj["steps"]),
            now_s=float(obj["now_s"]),
            events_processed=int(obj["events_processed"]),
            config=dict(obj["config"]),
            state=dict(obj["state"]),
            trace_len=int(obj["trace_len"]),
            trace_sha256=str(obj["trace_sha256"]),
            digest=str(obj["digest"]),
            label=str(obj.get("label", "")),
            version=version,
        )
        snapshot.verify()
        return snapshot

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"snapshot is not valid JSON: {exc.msg}") from exc
        if not isinstance(obj, Mapping):
            raise CheckpointError("snapshot must be a JSON object")
        return cls.from_dict(obj)

    @classmethod
    def load(cls, path) -> "Snapshot":
        return cls.from_json(pathlib.Path(path).read_text())

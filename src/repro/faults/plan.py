"""Declarative fault plans: what breaks, where, when, for how long.

A :class:`FaultPlan` is pure data — a named, ordered schedule of typed
:class:`FaultSpec` entries — so chaos scenarios can live in JSON files,
be diffed in review, and be validated before a run (the same philosophy
as ``cluster-lint``: never crash on bad input you could have reported).
The :class:`~repro.faults.inject.FaultInjector` turns a plan into kernel
events.

JSON shape (one plan per file)::

    {
      "name": "two-node-crash",
      "faults": [
        {"kind": "node.crash", "target": "littlefe-iu-n2",
         "at_s": 600.0, "duration_s": 1800.0},
        {"kind": "mirror.corrupt", "target": "xsede-mirror",
         "at_s": 30.0, "params": {"files": 2}}
      ]
    }
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from ..errors import FaultError

__all__ = ["FaultKind", "FaultSpec", "FaultPlan"]


class FaultKind(str, Enum):
    """The fault taxonomy (docs/FAULTS.md catalogues each mode)."""

    NODE_CRASH = "node.crash"          # kernel panic / dead board: jobs requeue
    PSU_FAIL = "psu.fail"              # power supply death: crash, no auto-heal
    LINK_FLAP = "link.flap"            # lossy WAN/segment: syncs die probabilistically
    DISK_FULL = "disk.full"            # mirror volume out of space
    BOOT_TIMEOUT = "boot.timeout"      # PXE/DHCP handshake times out N times
    MIRROR_CORRUPT = "mirror.corrupt"  # payloads arrive corrupted once
    HEARTBEAT_LOSS = "heartbeat.loss"  # gmond stops answering gmetad
    HEADNODE_CRASH = "headnode.crash"  # the frontend dies: the run itself stops
    ORIGIN_CRASH = "origin.crash"      # the XNIT repo origin dies mid-storm
    CONN_RESET = "conn.reset"          # a proxy uplink flaps: fetches reset


#: Kinds whose effect ends on its own (count-based) — scheduling a
#: recovery for them is a plan error.  HEADNODE_CRASH is one-shot too:
#: nothing inside a dead process can schedule its own recovery; the run
#: resumes out-of-band from a checkpoint (repro.recovery).
_ONE_SHOT_KINDS = frozenset(
    {FaultKind.BOOT_TIMEOUT, FaultKind.MIRROR_CORRUPT, FaultKind.HEADNODE_CRASH}
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``duration_s == 0`` means no automatic recovery (the fault persists
    until something else repairs it); otherwise the injector schedules the
    reverse action ``duration_s`` after injection.  ``params`` carries
    kind-specific knobs (``count`` for boot timeouts, ``loss_prob`` for
    link flaps, ``files`` for corruption).
    """

    kind: FaultKind
    target: str
    at_s: float
    duration_s: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def problems(self) -> list[str]:
        """Validation findings for this spec (empty = clean)."""
        found = []
        if not self.target:
            found.append(f"{self.kind.value}: empty target")
        for key in ("at_s", "duration_s"):
            value = getattr(self, key)
            if not math.isfinite(value):
                found.append(
                    f"{self.kind.value}@{self.target}: {key} must be finite, "
                    f"got {value!r}"
                )
            elif value < 0:
                found.append(f"{self.kind.value}@{self.target}: negative {key}")
        if self.duration_s > 0 and self.kind in _ONE_SHOT_KINDS:
            found.append(
                f"{self.kind.value}@{self.target}: one-shot fault cannot "
                f"have a duration"
            )
        if self.kind in (FaultKind.LINK_FLAP, FaultKind.CONN_RESET):
            loss = self.params.get(
                "loss_prob", 0.5 if self.kind is FaultKind.LINK_FLAP else 1.0
            )
            if not isinstance(loss, (int, float)) or not 0 <= loss <= 1:
                found.append(
                    f"{self.kind.value}@{self.target}: loss_prob must be "
                    f"in [0, 1], got {loss!r}"
                )
        if self.kind is FaultKind.BOOT_TIMEOUT:
            count = self.params.get("count", 1)
            if not isinstance(count, int) or count < 1:
                found.append(
                    f"{self.kind.value}@{self.target}: count must be a "
                    f"positive int, got {count!r}"
                )
        return found

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind.value,
            "target": self.target,
            "at_s": self.at_s,
        }
        if self.duration_s:
            out["duration_s"] = self.duration_s
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(obj, Mapping):
            raise FaultError(f"fault entry must be an object, got {obj!r}")
        try:
            kind = FaultKind(obj["kind"])
        except KeyError:
            raise FaultError(f"fault entry missing 'kind': {dict(obj)!r}") from None
        except ValueError:
            known = ", ".join(k.value for k in FaultKind)
            raise FaultError(
                f"unknown fault kind {obj['kind']!r} (known: {known})"
            ) from None
        missing = [key for key in ("target", "at_s") if key not in obj]
        if missing:
            raise FaultError(
                f"{kind.value}: fault entry missing {missing}"
            )
        times = {}
        for key in ("at_s", "duration_s"):
            value = obj.get(key, 0.0)
            try:
                times[key] = float(value)
            except (TypeError, ValueError):
                raise FaultError(
                    f"{kind.value}: {key} must be a number, got {value!r}"
                ) from None
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise FaultError(
                f"{kind.value}: params must be an object, got {params!r}"
            )
        return cls(
            kind=kind, target=str(obj["target"]), params=dict(params), **times
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered schedule of faults."""

    name: str
    faults: tuple[FaultSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def problems(self) -> list[str]:
        """Validation findings for the whole plan (empty = clean)."""
        found = [] if self.name else ["plan has no name"]
        for spec in self.faults:
            found.extend(spec.problems())
        return found

    def validate(self) -> "FaultPlan":
        """Raise :class:`FaultError` listing every problem; returns self."""
        found = self.problems()
        if found:
            raise FaultError(
                f"invalid fault plan {self.name!r}: " + "; ".join(found)
            )
        return self

    def sorted_by_time(self) -> "FaultPlan":
        """The same plan with faults ordered by injection time (stable)."""
        return FaultPlan(
            self.name, tuple(sorted(self.faults, key=lambda s: s.at_s))
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FaultPlan":
        if "name" not in obj:
            raise FaultError("fault plan missing 'name'")
        entries = obj.get("faults", [])
        if not isinstance(entries, list):
            raise FaultError("'faults' must be a list of fault entries")
        return cls(
            name=str(obj["name"]),
            faults=tuple(FaultSpec.from_dict(e) for e in entries),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc.msg}") from exc
        if not isinstance(obj, Mapping):
            raise FaultError("fault plan must be a JSON object")
        return cls.from_dict(obj)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text())

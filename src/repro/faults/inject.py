"""The fault injector: a plan becomes kernel events, deterministically.

:class:`FaultInjector` wires a :class:`~repro.faults.plan.FaultPlan` onto
a running simulation.  Each fault is scheduled as an ordinary kernel event
at its ``at_s`` (so it interleaves with job completions, polls, and
transfers in the one ``(time, seq)`` order every run replays identically),
its effect is applied to the wired subsystem, and — for faults with a
``duration_s`` — the reverse action is scheduled as a second event.
Every injection emits ``fault.inject`` and every automatic repair emits
``fault.recover`` on the trace bus, so a chaos run's JSONL is a complete,
diffable record of what broke and when it healed.

The injector is duck-typed on purpose: it holds whatever subsystem
handles you give it (scheduler, machine, mirrors, PXE, and ``gmetad`` — a
:class:`~repro.monitoring.GmetadTree`, reached through ``gmond_for``) and
raises :class:`~repro.errors.FaultError` at *apply* time if a plan needs
one that is missing — never silently dropping a fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultError, HeadnodeCrashError
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector", "ActiveFault"]


@dataclass
class ActiveFault:
    """One injected fault awaiting (or past) recovery."""

    spec: FaultSpec
    injected_at_s: float
    recovered_at_s: float | None = None

    @property
    def active(self) -> bool:
        return self.recovered_at_s is None


class FaultInjector:
    """Applies fault plans to wired subsystems through the kernel."""

    def __init__(
        self,
        kernel,
        *,
        scheduler=None,
        machine=None,
        gmetad=None,
        mirrors=(),
        pxe=None,
        origins=(),
        proxies=(),
        crash_armed: bool = True,
    ) -> None:
        self.kernel = kernel
        self.scheduler = scheduler
        self.machine = machine
        self.gmetad = gmetad
        self.mirrors = {m.local.repo_id: m for m in mirrors}
        self.pxe = pxe
        #: repro.repod handles: RepoServer origins and SiteProxy caches,
        #: addressed by their ``.name`` (the update-storm vocabulary).
        self.origins = {o.name: o for o in origins}
        self.proxies = {p.name: p for p in proxies}
        #: Whether a scheduled HEADNODE_CRASH actually kills the run.  The
        #: spec stays in the plan either way (so armed and disarmed runs
        #: schedule identical event sequences and stay byte-diffable); a
        #: resumed run restores with the crash disarmed so it fires as a
        #: silent no-op the second time through.
        self.crash_armed = crash_armed
        self.history: list[ActiveFault] = []
        self._handlers = {
            FaultKind.NODE_CRASH: (self._crash_node, self._recover_node),
            FaultKind.PSU_FAIL: (self._crash_node, self._recover_node),
            FaultKind.LINK_FLAP: (self._start_flap, self._stop_flap),
            FaultKind.DISK_FULL: (self._fill_disk, self._free_disk),
            FaultKind.BOOT_TIMEOUT: (self._boot_timeouts, None),
            FaultKind.MIRROR_CORRUPT: (self._corrupt_mirror, None),
            FaultKind.HEARTBEAT_LOSS: (self._lose_heartbeat, self._restore_heartbeat),
            FaultKind.HEADNODE_CRASH: (self._crash_headnode, None),
            FaultKind.ORIGIN_CRASH: (self._crash_origin, self._recover_origin),
            FaultKind.CONN_RESET: (self._start_reset, self._stop_reset),
        }

    # -- wiring helpers ---------------------------------------------------------

    def _need(self, attr: str, spec: FaultSpec):
        value = getattr(self, attr)
        if value is None:
            raise FaultError(
                f"fault {spec.kind.value}@{spec.target} needs a wired "
                f"{attr!r} but none was given to the injector"
            )
        return value

    def _mirror(self, spec: FaultSpec):
        try:
            return self.mirrors[spec.target]
        except KeyError:
            known = ", ".join(sorted(self.mirrors)) or "none"
            raise FaultError(
                f"fault {spec.kind.value}: unknown mirror {spec.target!r} "
                f"(wired: {known})"
            ) from None

    def _hw_node(self, name: str):
        if self.machine is None:
            return None
        for node in self.machine.nodes:
            if node.name == name:
                return node
        return None

    # -- fault handlers (apply, recover) ---------------------------------------

    def _crash_node(self, spec: FaultSpec) -> None:
        scheduler = self._need("scheduler", spec)
        scheduler.crash_node(spec.target, reason=spec.kind.value)
        hw = self._hw_node(spec.target)
        if hw is not None:
            hw.powered_on = False
        if self.gmetad is not None:
            try:
                self.gmetad.gmond_for(spec.target).fail_heartbeat()
            except Exception:
                pass  # node not in the monitoring mesh; nothing to silence

    def _recover_node(self, spec: FaultSpec) -> None:
        scheduler = self._need("scheduler", spec)
        hw = self._hw_node(spec.target)
        if hw is not None:
            hw.powered_on = True
        if self.gmetad is not None:
            try:
                self.gmetad.gmond_for(spec.target).restore_heartbeat()
            except Exception:
                pass
        scheduler.recover_node(spec.target)

    def _start_flap(self, spec: FaultSpec) -> None:
        loss = float(spec.params.get("loss_prob", 0.5))
        if spec.target in self.mirrors:
            self.mirrors[spec.target].set_loss_probability(loss)
        elif spec.target == "pxe":
            pxe = self._need("pxe", spec)
            pxe.inject_boot_timeouts("*", int(spec.params.get("count", 1)))
        else:
            self._mirror(spec)  # raises with the known-mirror list

    def _stop_flap(self, spec: FaultSpec) -> None:
        if spec.target in self.mirrors:
            self.mirrors[spec.target].set_loss_probability(0.0)
        elif spec.target == "pxe" and self.pxe is not None:
            self.pxe.inject_boot_timeouts("*", 0)

    def _fill_disk(self, spec: FaultSpec) -> None:
        self._mirror(spec).set_disk_full(True)

    def _free_disk(self, spec: FaultSpec) -> None:
        self._mirror(spec).set_disk_full(False)

    def _boot_timeouts(self, spec: FaultSpec) -> None:
        pxe = self._need("pxe", spec)
        pxe.inject_boot_timeouts(spec.target, int(spec.params.get("count", 1)))

    def _corrupt_mirror(self, spec: FaultSpec) -> None:
        mirror = self._mirror(spec)
        nevras = spec.params.get("nevras")
        mirror.corrupt_next(set(nevras) if nevras else None)

    def _lose_heartbeat(self, spec: FaultSpec) -> None:
        gmetad = self._need("gmetad", spec)
        gmetad.gmond_for(spec.target).fail_heartbeat()

    def _restore_heartbeat(self, spec: FaultSpec) -> None:
        gmetad = self._need("gmetad", spec)
        gmetad.gmond_for(spec.target).restore_heartbeat()

    def _crash_headnode(self, spec: FaultSpec) -> None:
        # Disarmed: silent no-op.  The armed path never reaches here — it
        # raises from the inject closure *before* fault.inject is emitted
        # (a dying frontend writes no log line).
        pass

    def _origin(self, spec: FaultSpec):
        try:
            return self.origins[spec.target]
        except KeyError:
            known = ", ".join(sorted(self.origins)) or "none"
            raise FaultError(
                f"fault {spec.kind.value}: unknown origin {spec.target!r} "
                f"(wired: {known})"
            ) from None

    def _proxy(self, spec: FaultSpec):
        try:
            return self.proxies[spec.target]
        except KeyError:
            known = ", ".join(sorted(self.proxies)) or "none"
            raise FaultError(
                f"fault {spec.kind.value}: unknown proxy {spec.target!r} "
                f"(wired: {known})"
            ) from None

    def _crash_origin(self, spec: FaultSpec) -> None:
        self._origin(spec).crash()

    def _recover_origin(self, spec: FaultSpec) -> None:
        self._origin(spec).recover()

    def _start_reset(self, spec: FaultSpec) -> None:
        loss = float(spec.params.get("loss_prob", 1.0))
        self._proxy(spec).set_uplink_loss(loss)

    def _stop_reset(self, spec: FaultSpec) -> None:
        self._proxy(spec).set_uplink_loss(0.0)

    # -- application -------------------------------------------------------------

    def apply(self, plan: FaultPlan) -> list[ActiveFault]:
        """Validate the plan and schedule every fault as kernel events.

        Returns the per-fault records (updated in place as injections and
        recoveries fire during the run).
        """
        plan.validate()
        records = []
        for spec in plan.faults:
            records.append(self._schedule(spec))
        return records

    def _schedule(self, spec: FaultSpec) -> ActiveFault:
        record = ActiveFault(spec=spec, injected_at_s=spec.at_s)
        self.history.append(record)

        def inject() -> None:
            if spec.kind is FaultKind.HEADNODE_CRASH and self.crash_armed:
                # The frontend dies NOW: no trace event, no recovery event,
                # no cleanup.  This exception must propagate out of the
                # whole run loop untouched — recovery happens out-of-band
                # from the last checkpoint plus the write-ahead journal.
                raise HeadnodeCrashError(
                    f"head node crashed at t={self.kernel.now_s:.0f}s "
                    f"(fault {spec.kind.value}@{spec.target})"
                )
            self.kernel.trace.emit(
                "fault.inject", t_s=self.kernel.now_s, subsystem="faults",
                fault=spec.kind.value, target=spec.target,
            )
            apply_fn, recover_fn = self._handlers[spec.kind]
            apply_fn(spec)
            if spec.duration_s > 0 and recover_fn is not None:

                def recover() -> None:
                    recover_fn(spec)
                    record.recovered_at_s = self.kernel.now_s
                    self.kernel.trace.emit(
                        "fault.recover", t_s=self.kernel.now_s,
                        subsystem="faults", fault=spec.kind.value,
                        target=spec.target,
                        downtime_s=self.kernel.now_s - record.injected_at_s,
                    )

                self.kernel.at(
                    self.kernel.now_s + spec.duration_s, recover,
                    label=f"fault.recover:{spec.kind.value}:{spec.target}",
                )

        self.kernel.at(
            spec.at_s, inject, label=f"fault.inject:{spec.kind.value}:{spec.target}"
        )
        return record

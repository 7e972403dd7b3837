"""Span recording from outside the program.

The traced run needs to know which layer (``repro`` sub-package) the host
time went to, without editing anything under ``src/``.  :func:`recording`
replaces a fixed, listed set of public callables — :data:`BOUNDARIES` —
with timing wrappers for the duration of a ``with`` block and restores
every attribute on exit, also when the block raises:

* a method is replaced on the class that defines it;
* a module-level function is replaced in every loaded ``repro`` module
  that bound it (``from .depsolver import resolve_install`` makes a second
  name that must be patched too), and in :mod:`bench.workloads`.

A *span* keeps name, layer, start, end, parent and iteration id.  A
boundary crossed more than ~10^4 times per iteration is marked
``aggregate``: it gets the same stack accounting (so self times stay
right) but only a count and a sum, no per-call record.

Self time of a span is its duration minus the time its child spans cover;
a layer's ``self_s`` is the sum over its spans, so the per-layer self
times add up to the wall time covered by root spans.  A layer's
``busy_s`` is inclusive and counts a nested span of the same layer once.

Kernel callbacks are the one place a plain wrapper is not enough: every
subsystem schedules closures on ``SimKernel`` and the kernel runs them, so
the caller on the stack is always ``sim``.  ``SimKernel.at``/``after``
therefore also wrap the callback they are handed, charging its run time
to the layer that scheduled it (as ``<layer>.callback``).

To add a boundary: append a :class:`Boundary` below with the layer that
owns the callable, mark it ``aggregate`` if one iteration crosses it more
than ~10^4 times, and re-run ``python -m bench --trace`` to see that
``harness.trace_overhead_ratio`` did not move much.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "Boundary", "BOUNDARIES", "Recorder", "recording"]

#: The layers are the packages of ``repro`` the four flows pass through.
LAYERS: tuple[str, ...] = (
    "core", "hardware", "network", "rocks", "rpm", "yum", "distro",
    "recovery", "sim", "fleet", "monitoring", "scheduler", "shell",
    "faults", "repod", "cas",
)


@dataclass(frozen=True)
class Boundary:
    """One public callable the traced run wraps.

    ``target`` is ``module:function`` or ``module:Class.method``.
    """

    target: str
    layer: str
    aggregate: bool = False


def _b(layer: str, module: str, *names: str, aggregate: bool = False) -> list[Boundary]:
    return [Boundary(f"repro.{module}:{n}", layer, aggregate) for n in names]


BOUNDARIES: tuple[Boundary, ...] = tuple(
    # core: the paper's two channels, the audit, the site builders
    _b("core", "core.xcbc", "build_xcbc_cluster", "build_xsede_roll")
    + _b("core", "core.xnit", "build_xnit_repository", "publish_release",
         "setup_via_repo_rpm", "setup_via_manual_repo_file", "integrate_host")
    + _b("core", "core.compatibility", "audit_cluster")
    + _b("core", "core.machines", "build_existing_cluster")
    + _b("core", "core.deployments", "rebuild_site_hardware",
         "build_synthetic_fleet")
    # hardware
    + _b("hardware", "hardware.chassis", "populate")
    + _b("hardware", "hardware.node", "assemble_node", aggregate=True)
    + _b("hardware", "hardware.cpu", "calibrated_cpu")
    # network
    + _b("network", "network.topology", "build_cluster_network")
    + _b("network", "network.pxe", "PxeServer.boot_batch")
    + _b("network", "network.pxe", "PxeServer.boot", aggregate=True)
    + _b("network", "network.dhcp", "DhcpServer.offer_batch")
    + _b("network", "network.dhcp", "DhcpServer.offer", aggregate=True)
    # rocks
    + _b("rocks", "rocks.installer", "RocksInstaller.run",
         "RocksInstaller.build_distribution")
    + _b("rocks", "rocks.insert_ethers", "InsertEthers.discover_boot",
         "InsertEthers.discover_wave")
    + _b("rocks", "rocks.rolls_catalog", "optional_rolls")
    # yum
    + _b("yum", "yum.depsolver", "resolve_install", "resolve_update")
    + _b("yum", "yum.client", "YumClient.check_update", "YumClient.update",
         "YumClient.groupinstall")
    + _b("yum", "yum.mirror", "RepoMirror.sync")
    # rpm
    + _b("rpm", "rpm.transaction", "Transaction.plan", "Transaction.commit",
         "Transaction.commit_planned", "Transaction.check_diagnostics")
    + _b("rpm", "rpm.database", "RpmDatabase.fingerprint", aggregate=True)
    # distro: what a package install does to a host
    + _b("distro", "distro.host", "Host.__init__", aggregate=True)
    + _b("distro", "distro.filesystem", "Filesystem.write",
         "Filesystem.remove_owned", aggregate=True)
    + _b("distro", "distro.services", "ServiceManager.register",
         "ServiceManager.enable", "ServiceManager.boot", aggregate=True)
    + _b("distro", "distro.modules_env", "ModuleSystem.install", aggregate=True)
    # recovery: the write-ahead journal under every transaction
    + _b("recovery", "recovery.journal", "Journal.begin", "Journal.intent",
         "Journal.applied", "Journal.commit", aggregate=True)
    # sim: kernel dispatch, scheduling, trace emit and export
    + _b("sim", "sim.kernel", "SimKernel.step", "SimKernel.run_until",
         "SimKernel.run", "SimKernel.at", "SimKernel.after", aggregate=True)
    + _b("sim", "sim.trace", "TraceBus.emit", aggregate=True)
    + _b("sim", "sim.trace", "TraceBus.to_jsonl")
    # fleet
    + _b("fleet", "fleet.table", "FleetTable.nodeset")
    + _b("fleet", "fleet.table", "FleetTable.add_row", "FleetTable.set_flag",
         aggregate=True)
    + _b("fleet", "fleet.nodeset", "NodeSet.split", "NodeSet.fold",
         "fold_names")
    # monitoring
    + _b("monitoring", "monitoring.hierarchy", "monitor_fleet",
         "GmetadTree.poll_cycle", "GmetadTree.dead_hosts")
    # scheduler
    + _b("scheduler", "scheduler.base", "BaseScheduler.submit",
         "BaseScheduler.drain_nodes")
    + _b("scheduler", "scheduler.base", "BaseScheduler.undrain_node",
         aggregate=True)
    # shell
    + _b("shell", "shell.engine", "ShellEngine.run")
    + _b("shell", "shell.rolling", "RollingUpdate.run", "RollingUpdate.resume")
    # faults
    + _b("faults", "faults.retry", "call_with_retry")
    + _b("faults", "faults.retry", "RetryBudget.try_spend",
         "RetryPolicy.delay_for", aggregate=True)
    + _b("faults", "faults.inject", "FaultInjector.apply")
    # repod
    + _b("repod", "repod.storm", "UpdateStormScenario.build",
         "UpdateStormScenario.run")
    + _b("repod", "repod.server", "RepoServer.publish")
    + _b("repod", "repod.server", "RepoServer.request", aggregate=True)
    + _b("repod", "repod.client", "RepoClient.sync", aggregate=True)
    + _b("repod", "repod.proxy", "SiteProxy.request", aggregate=True)
    + _b("repod", "repod.proxy", "SiteProxy.fetch_blocking")
    # cas
    + _b("cas", "cas.stratum", "Stratum0.publish", "Stratum1.replicate")
    + _b("cas", "cas.stratum", "Stratum1.fetch_chunks",
         "SiteChunkCache.fetch_package", "SiteChunkCache.fetch_chunks",
         aggregate=True)
    + _b("cas", "cas.delivery", "LazyDelivery.fetch_package", aggregate=True)
    + _b("cas", "cas.chunks", "chunk_package", aggregate=True)
)

#: ``SimKernel`` methods whose second positional argument is a callback to
#: charge to the scheduling layer.
_CALLBACK_SCHEDULERS = frozenset(
    {"repro.sim.kernel:SimKernel.at", "repro.sim.kernel:SimKernel.after"}
)


class Recorder:
    """Span records, per-boundary tallies and per-layer times of one run."""

    def __init__(self, iteration: int = 0) -> None:
        #: which traced iteration of the run this recorder covers
        self.iteration = iteration
        #: (name, layer, start_s, end_s, parent index or -1, iteration)
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        #: boundary name -> [calls, inclusive seconds]
        self.tallies: dict[str, list] = {}
        #: layer -> [calls, busy_s, self_s, nesting depth]
        self.layers: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
        #: open frames: [child seconds, record index of nearest span, layer]
        self._stack: list[list] = []

    def calls(self, name: str) -> int:
        """How often one boundary was crossed (0 when never)."""
        tally = self.tallies.get(name)
        return tally[0] if tally else 0

    def busy_s(self, name: str) -> float:
        tally = self.tallies.get(name)
        return tally[1] if tally else 0.0

    def self_total_s(self) -> float:
        return sum(acc[2] for acc in self.layers.values())

    # -- wrapper factories ---------------------------------------------------

    def _timed(
        self, fn: Callable, name: str, layer: str, aggregate: bool
    ) -> Callable:
        stack = self._stack
        spans = self.spans
        acc = self.layers[layer]
        tally = self.tallies.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        iteration = self.iteration

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            parent_index = parent[1] if parent is not None else -1
            if aggregate:
                frame = [0.0, parent_index, layer]
            else:
                frame = [0.0, len(spans), layer]
                spans.append(None)  # reserve the index; children point at it
            stack.append(frame)
            acc[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                acc[0] += 1
                acc[2] += took - frame[0]
                acc[3] -= 1
                if not acc[3]:
                    acc[1] += took
                tally[0] += 1
                tally[1] += took
                if parent is not None:
                    parent[0] += took
                if not aggregate:
                    spans[frame[1]] = (
                        name, layer, start, end, parent_index, iteration,
                    )

        return wrapper

    def _scheduling(self, fn: Callable, name: str) -> Callable:
        """``SimKernel.at``/``after``: time the call as ``sim`` and charge
        the callback's eventual run to the layer that scheduled it."""
        stack = self._stack
        by_layer: dict[str, Callable] = {}

        def charged(callback: Callable, layer: str) -> Callable:
            run = by_layer.get(layer)
            if run is None:
                run = by_layer[layer] = self._timed(
                    _invoke, f"{layer}.callback", layer, True
                )
            return functools.partial(run, callback)

        def schedule(kernel: Any, when: float, callback: Callable, **kwargs: Any) -> Any:
            # stack[-1] is this call's own ``sim`` frame (the timing
            # wrapper below pushed it); the scheduler is the frame under it
            if len(stack) > 1 and stack[-2][2] != "sim":
                callback = charged(callback, stack[-2][2])
            return fn(kernel, when, callback, **kwargs)

        return self._timed(functools.wraps(fn)(schedule), name, "sim", True)


def _invoke(callback: Callable) -> Any:
    return callback()


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:attr`` or ``module:Class.attr`` -> (owner, attr, raw value)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner: Any = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every boundary with a timing wrapper; restore on exit."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for boundary in BOUNDARIES:
            owner, attr, original = _resolve(boundary.target)
            if boundary.target in _CALLBACK_SCHEDULERS:
                wrapper = recorder._scheduling(original, boundary.target)
            else:
                wrapper = recorder._timed(
                    original, boundary.target, boundary.layer,
                    boundary.aggregate,
                )
            if isinstance(owner, type):
                holders = [owner]
            else:
                # every loaded module of the program, and the workloads
                # that call into it, that bound this function
                holders = [
                    mod for modname, mod in sorted(sys.modules.items())
                    if mod is not None
                    and (modname.split(".")[0] == "repro"
                         or modname == "bench.workloads")
                    and vars(mod).get(attr) is original
                ]
            for holder in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield recorder
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)

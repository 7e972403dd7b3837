"""One node's kickstart walked from the graph on every host, kept as a
reference oracle.

``RocksInstaller._kickstart_host`` resolves a profile's kickstart once per
plan-cache key (profile, architecture, DB fingerprint, distribution
checksum, graph and its revision), and every other host of that key
queues the record's packages and commits through its plan.  Before that,
each host walked the graph for its packages, depsolved them, queued each
package, committed, then walked the graph again for its services and post
actions.
:func:`kickstart_host` is that sequence, with ``commit()`` standing in for
the plan cache (a plan's first commit is ``commit()``'s path exactly), and
:func:`fresh_host` the host it ran on: one that builds its own base OS.
``test_property_cached_kickstart_equals_a_fresh_walk`` in
``tests/test_rocks.py`` holds the installer equal to it.
"""

from __future__ import annotations

from repro.distro import Host
from repro.rpm import RpmDatabase, Transaction
from repro.yum import RepoSet
from repro.yum.depsolver import resolve_install

__all__ = ["fresh_host", "kickstart_host"]


def fresh_host(node, release, hostname: str) -> Host:
    """A host on ``node`` with a base-OS tree of its own, named
    ``hostname``."""
    host = Host(node, release)
    host.hostname = hostname
    return host


def kickstart_host(host, graph, distribution, profile: str) -> RpmDatabase:
    """Install ``profile``'s package closure onto ``host`` and enable its
    services, walking ``graph`` for each part."""
    db = RpmDatabase(host)
    wanted = graph.resolve_packages(profile)
    resolution = resolve_install(wanted, RepoSet([distribution]), db)
    txn = Transaction(db)
    for pkg in resolution.to_install:
        txn.install(pkg)
    txn.commit()
    for service in graph.resolve_services(profile):
        host.services.enable(service)
    host.services.boot()
    for action in graph.resolve_actions(profile):
        host.fs.write(
            f"/var/log/rocks-post/{action.replace(' ', '-')}",
            f"executed: {action}\n",
        )
    return db

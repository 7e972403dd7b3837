"""Ablation 2 — dependency closure and topological install ordering.

Two properties of the transaction engine are ablated by construction:

* without closure resolution, naming only the leaf package fails — the
  depsolver turns one requested name into the full dependency set;
* the committed install order never places a dependant before its
  dependency, across the whole Table 2 catalogue (checked position by
  position), whereas a naive name-sorted order violates it many times.
"""

from repro.core import xsede_packages
from repro.distro import CENTOS_6_5, Host
from repro.hardware import build_littlefe_modified
from repro.rocks import base_os_packages
from repro.rpm import RpmDatabase, Transaction
from repro.yum import RepoSet, Repository, resolve_install


def closure_for_gromacs():
    repo = Repository("xsede", priority=50)
    repo.add_all(xsede_packages())
    host = Host(build_littlefe_modified().machine.head, CENTOS_6_5)
    db = RpmDatabase(host)
    return resolve_install(["gromacs"], RepoSet([repo]), db)


def _violations(order):
    """Count dependant-before-dependency violations in an install order."""
    position = {p.name: i for i, p in enumerate(order)}
    count = 0
    for pkg in order:
        for req in pkg.requires:
            for provider in order:
                if provider.name != pkg.name and provider.satisfies(req):
                    if position[provider.name] > position[pkg.name]:
                        count += 1
                    break
    return count


def test_ablation_closure(benchmark, save_artifact):
    resolution = benchmark(closure_for_gromacs)
    names = sorted(resolution.install_names)
    save_artifact(
        "ablation_depsolver_closure",
        "requested: gromacs\n"
        "resolved closure: " + ", ".join(names),
    )
    # one name became the full chain
    assert "gromacs" in names and "openmpi" in names and "fftw" in names
    assert "gcc" in names  # openmpi's own dependency, transitively
    assert len(names) >= 5


def test_ablation_install_order(benchmark, save_artifact):
    host = Host(build_littlefe_modified().machine.head, CENTOS_6_5)
    db = RpmDatabase(host)
    txn = Transaction(db)
    catalogue = base_os_packages(CENTOS_6_5) + xsede_packages()
    for pkg in catalogue:
        txn.install(pkg)
    ordered = benchmark.pedantic(txn._install_order, rounds=5, iterations=1)
    naive = sorted(catalogue, key=lambda p: p.name)

    good = _violations(ordered)
    bad = _violations(naive)
    save_artifact(
        "ablation_depsolver_order",
        f"catalogue size: {len(catalogue)}\n"
        f"topological order violations: {good}\n"
        f"naive name-sorted order violations: {bad}",
    )
    assert good == 0
    assert bad > 10  # the naive order is badly broken
    txn.commit()
    assert db.unsatisfied_requirements() == []

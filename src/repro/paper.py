"""The reproduction record: every paper table, figure and ablation, regenerated.

::

    python -m repro.paper                      # print paper vs measured
    python -m repro.paper benchmarks/results   # ... and rewrite the artefacts

``ARTEFACTS`` maps each committed ``benchmarks/results/<name>.txt`` to the
zero-argument function that renders it from the simulation, and ``PAPER``
is the one table of the paper's own numbers: which artefact carries the
measured value, where to read it, and how close it must be.  Nothing here
reads the host clock, so two runs write identical bytes; host speed is
``python3 -m bench``'s business (docs/PERF.md).

Exit codes: 0 every cell inside its tolerance; 1 a cell outside it.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .core import (
    TABLE3_SITES,
    CloudCostModel,
    audit_host,
    build_limulus_cluster,
    build_xcbc_cluster,
    build_xnit_repository,
    compare,
    crossover_utilisation,
    diff_environments,
    integrate_host,
    packages_by_category,
    portability_check,
    publish_release,
    rebuild_site_hardware,
    runaway_student_scenario,
    setup_via_manual_repo_file,
    setup_via_repo_rpm,
    table3_totals,
    xsede_packages,
)
from .distro import CENTOS_6_5, Host
from .errors import ClearanceError, ProvisionError, YumError
from .faults import FaultKind, FaultPlan, FaultSpec, RetryPolicy, call_with_retry
from .faults.chaos import ChaosWorld, run_chaos
from .hardware import (
    ATOM_D510,
    CELERON_G1840,
    GA_Q87TN,
    INTEL_STOCK_LGA1150,
    LIMULUS_QUOTED_PRICE_USD,
    LITTLEFE_QUOTED_PRICE_USD,
    ROSEWILL_RCX_Z775_LP,
    build_limulus_hpc200,
    build_littlefe_modified,
    build_littlefe_original,
    check_cooler_fit,
    render_limulus,
    render_littlefe,
    render_parts_list,
)
from .linpack import (
    HplModelInput,
    benchmark_machine,
    predict_hpl,
    price_performance,
    render_table5_row,
)
from .monitoring import monitor_cluster
from .network import build_cluster_network
from .recovery import CheckpointManager, Snapshot
from .rocks import (
    TABLE1_BASICS,
    TABLE1_OPTIONAL_ROLLS,
    all_standard_rolls,
    base_os_packages,
    install_cluster,
    optional_rolls,
)
from .rocks.sync411 import make_cluster_uniform
from .rpm import Package, RpmDatabase, Transaction
from .scheduler import (
    ClusterResources,
    Job,
    MauiScheduler,
    PowerManagedScheduler,
    TorqueScheduler,
)
from .sim import SimKernel
from .yum import RepoSet, Repository, YumClient, resolve_install

__all__ = [
    "ARTEFACTS",
    "PAPER",
    "Cell",
    "paper_cell",
    "regenerate",
    "fidelity",
    "main",
]

# --------------------------------------------------------------------------
# PAPER: the paper's own numbers, each written once
# --------------------------------------------------------------------------

EXACT, WITHIN_5, WITHIN_10 = 0.0, 0.05, 0.10
_TOLERANCE_NAMES = {EXACT: "exact", WITHIN_5: "within 5 %", WITHIN_10: "within 10 %"}
_NUMBER = r"\d[\d,]*(?:\.\d+)?"


@dataclass(frozen=True)
class Cell:
    """One number the paper prints, and where its measured twin is.

    The measured value is the ``nth`` number (0-based) after ``row`` on the
    line of ``artefact`` that starts with ``row`` — read from the rendered
    text, so the committed artefact is the record the cell is judged on.
    ``tolerance`` is relative; ``EXACT`` means equal as printed.
    """

    artefact: str
    label: str
    paper: float
    tolerance: float
    row: str
    nth: int

    def measured(self, text: str) -> float:
        match = re.search(
            rf"(?m)^{re.escape(self.row)}(?:[^\d\n]*{_NUMBER}){{{self.nth}}}"
            rf"[^\d\n]*({_NUMBER})",
            text,
        )
        if match is None:
            raise LookupError(f"{self.artefact}: no number {self.nth} on {self.row!r}")
        return float(match.group(1).replace(",", ""))

    def holds(self, measured: float) -> bool:
        return abs(measured - self.paper) <= self.tolerance * abs(self.paper)


_T3, _T4, _T5 = "table3_deployments", "table4_cluster_specs", "table5_price_performance"
_KANSAS = next(site for site in TABLE3_SITES if "Kansas" in site.site)

PAPER: tuple[Cell, ...] = (
    # Table 3: the totals row is the paper's; the per-site rows belong to
    # the TABLE3_SITES registry and are compared with the rebuilt hardware.
    Cell(_T3, "total nodes", 304, EXACT, "Total", 0),
    Cell(_T3, "total cores", 2708, EXACT, "Total", 1),
    Cell(_T3, "total Rpeak, published rows summed (TF)", 49.61, EXACT, "Total", 2),
    Cell(_T3, "total Rpeak, rebuilt hardware (TF)", 49.61, EXACT, "Total", 3),
    Cell(_T3, "abstract: 'almost 50 TFLOPS'", 50, WITHIN_5, "Total", 3),
    *(
        Cell(_T3, f"{site.site[:42]}: rebuilt Rpeak (TF)", site.rpeak_tflops,
             EXACT, site.site[:42], 3)
        for site in TABLE3_SITES
    ),
    Cell("scale_kansas", "Kansas nodes, fully built", _KANSAS.nodes, EXACT,
         "nodes installed:", 0),
    Cell("scale_kansas", "Kansas cores", _KANSAS.cores, EXACT, "total cores:", 0),
    Cell("scale_kansas", "Kansas Rpeak (TF)", _KANSAS.rpeak_tflops, EXACT, "Rpeak:", 0),
    # Table 4
    Cell(_T4, "LittleFe nodes", 6, EXACT, "LittleFe", 0),
    Cell(_T4, "LittleFe CPU clock (GHz)", 2.8, EXACT, "LittleFe", 1),
    Cell(_T4, "LittleFe CPUs", 6, EXACT, "LittleFe", 2),
    Cell(_T4, "LittleFe cores", 12, EXACT, "LittleFe", 3),
    Cell(_T4, "Limulus nodes", 4, EXACT, "Limulus HPC200", 0),
    Cell(_T4, "Limulus CPU clock (GHz)", 3.1, EXACT, "Limulus HPC200", 1),
    Cell(_T4, "Limulus CPUs", 4, EXACT, "Limulus HPC200", 2),
    Cell(_T4, "Limulus cores", 16, EXACT, "Limulus HPC200", 3),
    # Table 5.  LittleFe's Rmax was never measured (hardware failure): the
    # paper prints 75 % of Rpeak, the table row replicates that arithmetic,
    # and the HPL model's own prediction is judged against the same number.
    Cell(_T5, "LittleFe Rpeak (GFLOPS)", 537.6, EXACT, "littlefe-iu", 0),
    Cell(_T5, "LittleFe Rmax* (GFLOPS)", 403.2, EXACT, "littlefe-iu", 1),
    Cell(_T5, "LittleFe Rmax, HPL model's own (GFLOPS)", 403.2, WITHIN_10,
         "(model's own LittleFe prediction:", 0),
    Cell(_T5, "LittleFe cost ($)", 3600, EXACT, "littlefe-iu", 2),
    Cell(_T5, "LittleFe $/GFLOPS of Rpeak", 7, EXACT, "littlefe-iu", 3),
    Cell(_T5, "LittleFe $/GFLOPS of Rmax", 9, EXACT, "littlefe-iu", 4),
    Cell(_T5, "Limulus Rpeak (GFLOPS)", 793.6, EXACT, "limulus-hpc200", 0),
    Cell(_T5, "Limulus Rmax (GFLOPS)", 498.3, WITHIN_5, "limulus-hpc200", 1),
    Cell(_T5, "Limulus cost ($)", 5995, EXACT, "limulus-hpc200", 2),
    Cell(_T5, "Limulus $/GFLOPS of Rpeak", 8, EXACT, "limulus-hpc200", 3),
    Cell(_T5, "Limulus $/GFLOPS of Rmax", 12, EXACT, "limulus-hpc200", 4),
    # Section 5.1
    Cell("littlefe_modification", "Atom D510 watts/node", 10.56, EXACT,
         "CPU watts/node", 0),
    Cell("littlefe_modification", "Celeron G1840 watts/node", 43.06, EXACT,
         "CPU watts/node", 1),
)


def paper_cell(artefact: str, label: str) -> Cell:
    """The one ``PAPER`` cell with this artefact and label."""
    (found,) = (c for c in PAPER if (c.artefact, c.label) == (artefact, label))
    return found


# --------------------------------------------------------------------------
# ARTEFACTS: name -> text of benchmarks/results/<name>.txt
# --------------------------------------------------------------------------

ARTEFACTS: dict[str, Callable[[], str]] = {}


def _artefact(render: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """Register ``render`` under its own name; the file is its lines."""
    ARTEFACTS[render.__name__] = lambda: "\n".join(render()).rstrip("\n") + "\n"
    return render


def _head_host() -> Host:
    return Host(build_littlefe_modified().machine.head, CENTOS_6_5)


# -- the paper's tables and figures ----------------------------------------


@_artefact
def table1_xcbc_rolls() -> list[str]:
    """Table 1 — general cluster setup, from the roll catalogue."""
    rolls = all_standard_rolls()
    basics = ", ".join(
        ["Rocks 6.1.1", "Centos 6.5"] + [b for b in TABLE1_BASICS if b != "rocks"]
    )
    lines = [
        "Table 1. Components of current XCBC build Part 1",
        "",
        f"{'Category':<16} Specific packages",
        f"{'Basics':<16} {basics}",
        f"{'Job Management':<16} Torque, SLURM, sge (choose one)",
        "",
        "Rocks optional rolls",
    ]
    for name, description in TABLE1_OPTIONAL_ROLLS.items():
        lines.append(f"{name:<16} {description}")
        lines.append(f"{'':<16}   carries: {', '.join(rolls[name].package_names())}")
    return lines


@_artefact
def table2_xsede_packages() -> list[str]:
    """Table 2 — the XSEDE run-alike catalogue by category."""
    lines = [
        "Table 2. Components of current XCBC build Part 2 - XSEDE",
        "cluster run-alike compatibility",
        "",
    ]
    for category, packages in packages_by_category().items():
        lines += [f"{category}:", "  " + ", ".join(p.name for p in packages), ""]
    return lines


@_artefact
def table3_deployments() -> list[str]:
    """Table 3 — every site's hardware rebuilt, published vs rebuilt Rpeak."""
    machines = {site.site: rebuild_site_hardware(site) for site in TABLE3_SITES}
    lines = [
        "Table 3. Deployed XCBC Clusters (published vs rebuilt)",
        "",
        f"{'Site':<44}{'Nodes':>6}{'Cores':>7}{'Rpeak(TF)':>11}"
        f"{'Rebuilt(TF)':>13}  Adoption / other info",
    ]
    for site in TABLE3_SITES:
        lines.append(
            f"{site.site[:42]:<44}{site.nodes:>6}{site.cores:>7}"
            f"{site.rpeak_tflops:>11.2f}"
            f"{machines[site.site].rpeak_gflops / 1000:>13.2f}"
            f"  {site.adoption.value}; {site.other_info}"
        )
    nodes, cores, tf = table3_totals()
    rebuilt_tf = sum(m.rpeak_gflops for m in machines.values()) / 1000
    lines.append(f"{'Total':<44}{nodes:>6}{cores:>7}{tf:>11.2f}{rebuilt_tf:>13.2f}")
    return lines


@_artefact
def table4_cluster_specs() -> list[str]:
    """Table 4 — both machines assembled from the parts catalogue."""
    lines = [
        "Table 4. Basic characteristics of a Limulus HPC200 cluster and a "
        "LittleFe cluster",
        "",
        f"{'Cluster':<16}{'Nodes':>6}{'CPU clock':>11}{'CPUs':>6}{'Cores':>7}",
    ]
    for name, quote in (("LittleFe", build_littlefe_modified()),
                        ("Limulus HPC200", build_limulus_hpc200())):
        machine = quote.machine
        lines.append(
            f"{name:<16}{machine.node_count:>6}{machine.clock_ghz:>8.1f} GHz"
            f"{machine.cpu_count:>6}{machine.total_cores:>7}"
        )
    return lines


@_artefact
def table5_price_performance() -> list[str]:
    """Table 5 — Rpeak from the hardware model, Rmax from the HPL model."""
    littlefe = build_littlefe_modified().machine
    paper_rmax = paper_cell(_T5, "LittleFe Rmax* (GFLOPS)").paper
    fraction = paper_rmax / paper_cell(_T5, "LittleFe Rpeak (GFLOPS)").paper
    lf_report = benchmark_machine(littlefe, estimate_fraction=fraction)
    lf_model = benchmark_machine(littlefe)
    lm_report = benchmark_machine(build_limulus_hpc200().machine)
    lines = [
        "Table 5. Performance and price/performance (paper-quoted costs;",
        f"* = estimated at {fraction:.0%} of Rpeak, as in the paper's "
        "LittleFe footnote)",
        "",
        f"{'System':<16} {'Rpeak':>7} {'Rmax':>8} {'Cost':<8} "
        f"{'Rpeak $/GF':<12} {'Rmax $/GF':<10}",
    ]
    for report, price in ((lf_report, LITTLEFE_QUOTED_PRICE_USD),
                          (lm_report, LIMULUS_QUOTED_PRICE_USD)):
        lines.append(
            render_table5_row(
                price_performance(report, price), estimated=report.estimated
            )
        )
    lines += [
        "",
        f"(model's own LittleFe prediction: {lf_model.rmax_gflops:.1f} "
        f"GFLOPS, {lf_model.efficiency:.1%} of peak — "
        f"{lf_model.rmax_gflops / paper_rmax - 1:+.1%} vs the paper's estimate)",
    ]
    return lines


@_artefact
def fig1_littlefe_rear() -> list[str]:
    """Figure 1 substitute — per-node supplies and the head's two drops."""
    return [
        "Figure 1 substitute — LittleFe V4 frame, six nodes, rear view",
        "",
        render_littlefe(build_littlefe_modified().machine, view="rear"),
    ]


@_artefact
def fig2_littlefe_front() -> list[str]:
    """Figure 2 substitute — six exposed nodes, coolers and drives."""
    return [
        "Figure 2 substitute — LittleFe V4 frame, six nodes, front view",
        "",
        render_littlefe(build_littlefe_modified().machine, view="front"),
    ]


@_artefact
def fig3_limulus_internals() -> list[str]:
    """Figure 3 substitute — head, three diskless blades, one case supply."""
    return [
        "Figure 3 substitute — Limulus HPC200 deskside internals",
        "",
        render_limulus(build_limulus_hpc200().machine),
    ]


@_artefact
def workflow_xnit_update() -> list[str]:
    """Section 3 — XNIT setup both ways, then the 0.0.8 -> 0.0.9 update."""
    cluster = build_limulus_cluster()
    repo = build_xnit_repository("0.0.8")
    clients = cluster.all_clients()
    setup_via_repo_rpm(clients[0], repo)
    for client in clients[1:]:
        setup_via_manual_repo_file(client, repo)
    for client in clients:
        integrate_host(client, full_toolkit=True)
    publish_release(repo, "0.0.9")
    pending = clients[0].check_update()
    for client in clients:
        client.update()
        integrate_host(client, full_toolkit=True)  # pick up the release's additions
    lines = ["XNIT update workflow (Section 3) — final state", ""]
    for host in cluster.hosts():
        lines += [audit_host(host, cluster.client_for(host).db).render(), ""]
    lines.append(f"updates visible at check-update: {len(pending)}")
    return lines


@_artefact
def littlefe_modification() -> list[str]:
    """Section 5.1 — the engineering decisions as constraint checks."""
    stock = build_littlefe_original()
    modified = build_littlefe_modified()
    lines = [
        "Section 5.1 — modifying LittleFe for XCBC",
        "",
        f"{'':<28}{'stock (Atom D510)':>20}{'modified (G1840)':>20}",
        f"{'CPU watts/node':<28}{ATOM_D510.tdp_watts:>20.2f}"
        f"{CELERON_G1840.tdp_watts:>20.2f}",
        f"{'frame draw (W)':<28}{stock.machine.draw_watts:>20.1f}"
        f"{modified.machine.draw_watts:>20.1f}",
        f"{'Rpeak (GFLOPS)':<28}{stock.machine.rpeak_gflops:>20.1f}"
        f"{modified.machine.rpeak_gflops:>20.1f}",
        f"{'disks':<28}{'none (diskless)':>20}{'mSATA x 6':>20}",
        f"{'power supplies':<28}{'one shared':>20}{'one per node':>20}",
        f"{'BOM (USD)':<28}{stock.bom_usd:>20.0f}{modified.bom_usd:>20.0f}",
        "",
    ]
    try:
        check_cooler_fit(INTEL_STOCK_LGA1150, CELERON_G1840, GA_Q87TN)
        lines.append("stock cooler: FITS (unexpected)")
    except ClearanceError as exc:
        lines.append(f"stock cooler: rejected — {exc}")
    check_cooler_fit(ROSEWILL_RCX_Z775_LP, CELERON_G1840, GA_Q87TN)
    lines.append("Rosewill RCX-Z775-LP: fits (thermal and clearance)")
    try:
        build_xcbc_cluster(stock.machine)
        lines.append("stock LittleFe + XCBC: INSTALLED (unexpected)")
    except ProvisionError:
        lines.append("stock LittleFe + XCBC: rejected (Rocks needs disks)")
    # "the parts list ... included in the LittleFe web site": same build
    lines += ["", render_parts_list(modified)]
    return lines


def _bursty_day(scheduler: PowerManagedScheduler) -> PowerManagedScheduler:
    """A personal-cluster day: three bursts separated by long idle gaps."""
    for burst in range(3):
        scheduler.now_s = burst * 4 * 3600.0
        for i in range(2):
            scheduler.submit(
                Job(f"burst{burst}-job{i}", "scientist", cores=6,
                    walltime_limit_s=3600, runtime_s=1200)
            )
        scheduler.run_to_completion()
    scheduler.now_s = 16 * 3600.0  # account the trailing idle evening
    scheduler._account_energy(scheduler.now_s)
    return scheduler


@_artefact
def limulus_power_mgmt() -> list[str]:
    """Section 5.2 — the same bursty day with power management on and off."""
    managed, baseline = (
        _bursty_day(
            PowerManagedScheduler(build_limulus_hpc200().machine, manage_power=manage)
        )
        for manage in (True, False)
    )
    saved = 1 - managed.energy.total_joules / baseline.energy.total_joules
    wait_managed, wait_baseline = (
        sum(job.wait_time_s for job in run.finished) / len(run.finished)
        for run in (managed, baseline)
    )
    return [
        "Limulus power management (Section 5.2) — bursty personal-use day",
        "",
        f"{'':<26}{'always-on':>12}{'managed':>12}",
        f"{'energy (Wh)':<26}{baseline.energy.total_joules / 3600:>12.1f}"
        f"{managed.energy.total_joules / 3600:>12.1f}",
        f"{'idle energy (Wh)':<26}{baseline.energy.idle_joules / 3600:>12.1f}"
        f"{managed.energy.idle_joules / 3600:>12.1f}",
        f"{'boot events':<26}{baseline.energy.boot_events:>12}"
        f"{managed.energy.boot_events:>12}",
        f"{'node-off hours':<26}{baseline.energy.off_node_seconds / 3600:>12.1f}"
        f"{managed.energy.off_node_seconds / 3600:>12.1f}",
        f"{'mean job wait (s)':<26}{wait_baseline:>12.1f}{wait_managed:>12.1f}",
        "",
        f"energy saved: {saved:.0%}; wait added: "
        f"{wait_managed - wait_baseline:.0f} s/job",
    ]


@_artefact
def convergence_xcbc_vs_xnit() -> list[str]:
    """The abstract's claim — both paths reach the same environment."""
    xcbc = build_xcbc_cluster(build_littlefe_modified().machine).cluster
    limulus = build_limulus_cluster()
    repo = build_xnit_repository()
    for host in limulus.hosts():
        client = limulus.client_for(host)
        setup_via_repo_rpm(client, repo)
        integrate_host(client, full_toolkit=True)
    xnit_db = limulus.client_for(limulus.frontend).db
    diff = diff_environments(xcbc.frontend_db, xnit_db)
    workflow = ["qsub", "qstat", "mdrun", "R", "mpirun", "python", "blastn"]
    portable, _broken = portability_check(xcbc.frontend, limulus.frontend, workflow)
    return [
        "Convergence: XCBC from scratch (LittleFe) vs XNIT retrofit (Limulus)",
        "",
        f"version mismatches on shared packages: {len(diff.version_mismatches)}",
        f"only on XCBC side: {len(diff.only_on_a)} "
        f"(Rocks/roll tooling: {diff.only_on_a[:5]} ...)",
        f"only on XNIT side: {len(diff.only_on_b)} "
        f"(vendor stack: {diff.only_on_b})",
        "",
        audit_host(xcbc.frontend, xcbc.frontend_db).render(),
        "",
        audit_host(limulus.frontend, xnit_db).render(),
        "",
        f"user workflow portability ({len(workflow)} commands): {portable:.0%}",
    ]


@_artefact
def cloud_vs_cluster() -> list[str]:
    """Section 8 — ownership vs rental across utilisation; the runaway bill."""
    utilisations = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8]
    lines = ["Cluster capex vs cloud opex (4-year lifetime, $0.05/core-hour)", ""]
    header = f"{'utilisation':<14}" + "".join(f"{u:>10.0%}" for u in utilisations)
    for quote, label in ((build_littlefe_modified(), "LittleFe"),
                         (build_limulus_hpc200(), "Limulus HPC200")):
        series = [
            compare(quote.machine, quote.quoted_usd, utilisation=u)
            for u in utilisations
        ]
        crossover = crossover_utilisation(quote.machine, quote.quoted_usd)
        lines += [
            f"-- {label} (crossover at {crossover:.0%} utilisation)",
            header,
            f"{'cluster ($)':<14}" + "".join(f"{c.cluster_usd:>10.0f}" for c in series),
            f"{'cloud ($)':<14}" + "".join(f"{c.cloud_usd:>10.0f}" for c in series),
            "",
        ]
    uncapped, _ = runaway_student_scenario(cores=64, days=30)
    _, billed = runaway_student_scenario(
        cores=64, days=30, cloud=CloudCostModel(monthly_cap_usd=500.0)
    )
    lines.append(
        f"runaway student (64 cores x 30 days): ${uncapped:,.0f} uncapped; "
        f"${billed:,.0f} with a $500/month cap"
    )
    return lines


# -- ablations of the design choices (DESIGN.md §5) ------------------------


def _python_client(use_priorities: bool) -> YumClient:
    """XSEDE repo + a base repo whose 'python' is newer but non-run-alike."""
    xsede = Repository("xsede", priority=50)
    xsede.add_all(xsede_packages())
    base = Repository("centos-base", priority=90)
    # the distro rebased python: numerically newer, not the XSEDE build
    base.add(Package(name="python", version="2.7.99", release="0.el6",
                     commands=("python",)))
    client = YumClient(
        _head_host(), repos=RepoSet([xsede, base], use_priorities=use_priorities)
    )
    client.install("python")
    return client


@_artefact
def ablation_priorities() -> list[str]:
    """yum-plugin-priorities on vs off: the base OS shadows the XSEDE build."""
    catalogue = [p for p in xsede_packages() if p.name == "python"]
    versions, audits = [], []
    for client in (_python_client(True), _python_client(False)):
        versions.append(client.db.get("python").evr_string)
        audits.append(audit_host(client.host, client.db, catalogue=catalogue).overall)
    return [
        "Ablation: yum-plugin-priorities",
        "",
        f"{'':<30}{'plugin on':>16}{'plugin off':>16}",
        f"{'python resolved to':<30}{versions[0]:>16}{versions[1]:>16}",
        f"{'run-alike audit':<30}{audits[0]:>15.0%}{audits[1]:>15.0%}",
        "",
        "without the plugin the base OS shadows the XSEDE build; the cluster",
        "drifts from Stampede even though every version is 'newer'",
    ]


@_artefact
def ablation_priorities_churn() -> list[str]:
    """A correctly installed host churns on the next update without the plugin."""
    client = _python_client(True)
    protected = client.check_update()
    client.repos.use_priorities = False
    churn = client.check_update()
    return [
        f"with plugin: {len(protected)} pending; without: "
        + ", ".join(str(u) for u in churn)
    ]


@_artefact
def ablation_depsolver_closure() -> list[str]:
    """One requested name becomes the full dependency chain."""
    repo = Repository("xsede", priority=50)
    repo.add_all(xsede_packages())
    resolution = resolve_install(
        ["gromacs"], RepoSet([repo]), RpmDatabase(_head_host())
    )
    return [
        "requested: gromacs",
        "resolved closure: " + ", ".join(sorted(resolution.install_names)),
    ]


def _order_violations(order: list[Package]) -> int:
    """Dependant-before-dependency placements in an install order."""
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


@_artefact
def ablation_depsolver_order() -> list[str]:
    """The committed order never puts a dependant first; name order does."""
    txn = Transaction(RpmDatabase(_head_host()))
    catalogue = base_os_packages(CENTOS_6_5) + xsede_packages()
    for pkg in catalogue:
        txn.install(pkg)
    naive = sorted(catalogue, key=lambda p: p.name)
    return [
        f"catalogue size: {len(catalogue)}",
        f"topological order violations: {_order_violations(txn._install_order())}",
        f"naive name-sorted order violations: {_order_violations(naive)}",
    ]


@_artefact
def ablation_backfill() -> list[str]:
    """Maui's EASY backfill vs plain-Torque FIFO on one mixed campus trace."""
    machine = build_littlefe_modified().machine
    stats = []
    for scheduler in (TorqueScheduler(ClusterResources(machine)),
                      MauiScheduler(ClusterResources(machine))):
        scheduler.submit(Job("wide-md", "alice", cores=8,
                             walltime_limit_s=7200, runtime_s=3600))
        scheduler.submit(Job("huge-assembly", "bob", cores=10,
                             walltime_limit_s=7200, runtime_s=1800))
        for i in range(8):
            scheduler.submit(Job(f"small-{i}", "carol", cores=2,
                                 walltime_limit_s=1200, runtime_s=300))
        stats.append(scheduler.run_to_completion())
    fifo, maui = stats
    cores = 10
    return [
        "Ablation: EASY backfill (Torque+Maui) vs strict FIFO (bare Torque)",
        "",
        f"{'':<22}{'FIFO':>12}{'Maui backfill':>15}",
        f"{'makespan (s)':<22}{fifo.makespan_s:>12.0f}{maui.makespan_s:>15.0f}",
        f"{'mean wait (s)':<22}{fifo.mean_wait_s:>12.0f}{maui.mean_wait_s:>15.0f}",
        f"{'utilisation':<22}{fifo.utilization(cores):>11.0%}"
        f"{maui.utilization(cores):>14.0%}",
    ]


@_artefact
def ablation_hpl_sensitivity() -> list[str]:
    """HPL efficiency vs node count on GigE and 10GigE, Limulus-class nodes."""
    node_counts = [1, 2, 4, 8, 16, 32]
    lines = [
        "Ablation: HPL efficiency vs node count and interconnect",
        "(i7-4770S-class nodes, 16 GiB each, N sized to 80 % of memory)",
        "",
        f"{'nodes':<8}" + "".join(f"{n:>8}" for n in node_counts),
    ]
    for label, bandwidth in (("GigE", 117.5e6), ("10GigE", 1.175e9)):
        series = [
            predict_hpl(
                HplModelInput(
                    total_cores=4 * nodes,
                    per_core_gflops=49.6,
                    node_count=nodes,
                    memory_bytes=nodes * 16 * 1024**3,
                    interconnect_bandwidth_bytes_s=bandwidth,
                    interconnect_latency_s=60e-6,
                    kernel_eff=0.88,
                )
            ).efficiency
            for nodes in node_counts
        ]
        lines.append(f"{label:<8}" + "".join(f"{e:>8.1%}" for e in series))
    return lines


@_artefact
def ablation_placement() -> list[str]:
    """Packed vs spread rank placement: what fullest-first allocation buys."""
    from .mpi import MpiWorld, run_allreduce_job

    machine = build_littlefe_modified().machine
    fabric = build_cluster_network(machine).fabric
    names = [n.name for n in machine.compute_nodes]
    lines = [
        "Ablation: rank placement (packed vs spread), iterate+allreduce x5",
        "",
        f"{'ranks':<7}{'packed comm (ms)':>18}{'spread comm (ms)':>18}"
        f"{'penalty':>10}",
    ]
    for ranks in (2, 4, 8):
        packed, spread = (
            run_allreduce_job(MpiWorld(fabric, hosts), iterations=5, elements=16384)
            for hosts in (
                [names[i // 2] for i in range(ranks)],  # fill each 2-core node
                [names[i % len(names)] for i in range(ranks)],
            )
        )
        penalty = spread.communication_s / max(packed.communication_s, 1e-12)
        lines.append(
            f"{ranks:<7}{packed.communication_s * 1e3:>18.2f}"
            f"{spread.communication_s * 1e3:>18.2f}{penalty:>9.1f}x"
        )
    return lines


@_artefact
def mpi_fabric_microbench() -> list[str]:
    """Ping-pong and allreduce on both fabrics — the HPL interconnect terms."""
    from .mpi import MpiWorld, allreduce_sweep, ping_pong

    lines = ["MPI microbenchmarks (cross-node, GigE fabric)", ""]
    for quote, label in ((build_littlefe_modified(), "LittleFe"),
                         (build_limulus_hpc200(), "Limulus")):
        machine = quote.machine
        hosts = [n.name for n in machine.nodes for _ in range(n.cores)]
        world = MpiWorld(build_cluster_network(machine).fabric, hosts)
        # cross-node ranks: first rank of node 0 and first rank of node 1
        points = ping_pong(world, src=0, dst=machine.nodes[0].cores,
                           sizes=[8, 1024, 65536, 1 << 20])
        world.reset_clocks()
        sweep = allreduce_sweep(world, [64, 4096])
        lines += [
            f"-- {label} ping-pong",
            f"{'bytes':>10}{'rtt (us)':>12}{'MB/s':>10}",
            *(f"{p.nbytes:>10}{p.round_trip_s * 1e6:>12.1f}"
              f"{p.bandwidth_bytes_s / 1e6:>10.1f}" for p in points),
            "   allreduce: " + ", ".join(
                f"{count} doubles -> {t * 1e3:.2f} ms" for count, t in sweep
            ),
            "",
        ]
    return lines


# -- Table 1's payload, exercised ------------------------------------------


@_artefact
def ganglia_dashboard() -> list[str]:
    """The ganglia roll: a monitored day with a node failure mid-run."""
    machine = build_littlefe_modified().machine
    cluster = install_cluster(machine, rolls=[optional_rolls()["ganglia"]])
    scheduler = MauiScheduler(ClusterResources(machine))
    gmetad = monitor_cluster(cluster, scheduler=scheduler)
    gmetad.run_cycles(2)  # idle baseline
    # Half an hour, so the whole day fits the archives' one-hour ring
    # (240 slots x 15 s) and the mid-day samples are not overwritten.
    scheduler.submit(Job("md-sweep", "alice", cores=8,
                         walltime_limit_s=7200, runtime_s=1800))
    loaded = gmetad.poll_cycle()
    machine.compute_nodes[-1].powered_on = False  # a node fails mid-day
    degraded = gmetad.poll_cycle()
    machine.compute_nodes[-1].powered_on = True
    scheduler.run_to_completion()
    recovered = gmetad.run_cycles(2)
    return [
        gmetad.render_dashboard(),
        "",
        f"load timeline: idle->running {loaded.load_total:.0f} cores, "
        f"degraded {degraded.hosts_up}/{degraded.hosts_total} up, "
        f"recovered {recovered.hosts_up}/{recovered.hosts_total} up",
    ]


@_artefact
def htcondor_throughput() -> list[str]:
    """The htcondor roll: a 200-task sweep, with and without scavenging."""
    from .htc import ClassAd, HtcJob, pool_from_cluster

    desktops = [f"lab-desktop-{i}" for i in range(4)]
    pools, drained = [], []
    for scavenge in (False, True):
        cluster = install_cluster(
            build_littlefe_modified().machine, rolls=[optional_rolls()["htcondor"]]
        )
        pool = pool_from_cluster(cluster)
        for name in desktops if scavenge else ():
            pool.add_desktop(name, memory_mb=8192)
        for i in range(200):
            pool.submit(
                HtcJob(
                    ad=ClassAd(f"sweep-{i}", attributes={"RequestMemory": 256}),
                    owner=f"user{i % 3}",
                    runtime_cycles=2,
                )
            )
        cycles = 0
        while pool.queue:
            # owners come and go: every 10 cycles, desktops get used for 2
            if scavenge and cycles % 10 in (0, 8) and cycles > 0:
                for name in desktops:
                    pool.set_owner_present(name, cycles % 10 == 8)
            pool.step()
            cycles += 1
        pools.append(pool)
        drained.append(cycles)
    dedicated, scavenged = pools
    return [
        "HTCondor pool: 200-task sweep on the XCBC LittleFe",
        "",
        f"{'':<28}{'dedicated':>12}{'+4 desktops':>13}",
        f"{'slots':<28}{dedicated.slot_count():>12}{scavenged.slot_count():>13}",
        f"{'cycles to drain':<28}{drained[0]:>12}{drained[1]:>13}",
        f"{'evictions':<28}{dedicated.evictions:>12}{scavenged.evictions:>13}",
        "",
        "scavenged desktops shorten the sweep despite owner interruptions",
        "(evicted vanilla jobs restart from scratch — the restart tax)",
    ]


@_artefact
def campus_bridging_data() -> list[str]:
    """Campus bridging end to end: software + accounts + data."""
    from .grid import GffsNamespace, GridEndpoint, build_stampede_mini, transfer

    campus = build_xcbc_cluster(build_littlefe_modified("campus").machine).cluster
    sync, _nfs = make_cluster_uniform(campus)
    stampede = build_stampede_mini(nodes=3)
    # the researcher exists cluster-wide and has data in the shared home
    campus.frontend.users.add_user("researcher")
    sync.push()  # 411 replicates the new account to every node
    for i in range(5):
        campus.frontend.fs.write(
            f"/home/researcher/md/frame{i}.trr", f"trajectory-{i}" * 50
        )
    stampede.frontend.fs.mkdir("/scratch/researcher", exist_ok=True)
    result = transfer(
        GridEndpoint("campus#lf", campus.frontend),
        GridEndpoint("xsede#stampede", stampede.frontend),
        "/home/researcher/md", "/scratch/researcher/md", parallelism=4,
    )
    ns = GffsNamespace()
    ns.link("/resources/campus/home", campus.frontend, "/home")
    ns.link("/resources/stampede/scratch", stampede.frontend, "/scratch")
    portable, _broken = portability_check(
        campus.frontend, stampede.frontend,
        ["mdrun", "R", "python", "mpirun", "module"],
    )
    return [
        "Campus bridging: campus XCBC cluster <-> Stampede-mini",
        "",
        f"dataset moved: {result.files} files, {result.bytes_moved} bytes, "
        f"{result.elapsed_s * 1000:.0f} ms over the WAN "
        f"({result.effective_bandwidth_bytes_s / 1e6:.1f} MB/s effective)",
        f"checksum retries: {len(result.retried_files)}",
        f"application-command portability: {portable:.0%}",
        f"GFFS view: /resources -> {ns.ls('/resources')}",
    ]


@_artefact
def pfs_striping_curve() -> list[str]:
    """Table 3's Lustre storage: the ``lfs setstripe`` tuning curve."""
    from .pfs import montana_hyalite_storage

    client_counts = [1, 4, 16, 64]
    fs = montana_hyalite_storage()
    lines = [
        "Lustre striping tuning: 2 TB dataset on Hyalite (300 TB, 20 OSTs)",
        "I/O time in seconds (lower is better)",
        "",
        f"{'stripes':<9}" + "".join(f"{c:>10} cl" for c in client_counts),
    ]
    for stripes in (1, 2, 4, 8, 16):
        path = f"/hyalite/dataset-s{stripes}"
        fs.create(path, 2 * 10**12, stripe_count=stripes)
        lines.append(
            f"{stripes:<9}"
            + "".join(f"{fs.io_time_s(path, clients=c):>12.0f}" for c in client_counts)
        )
    return lines


# -- scale and resilience: simulated facts only -----------------------------


@_artefact
def scale_kansas() -> list[str]:
    """Table 3's largest row built completely (bench ``xcbc_build`` times it)."""
    machine = rebuild_site_hardware(_KANSAS)
    report = build_xcbc_cluster(machine, include_optional_rolls=False)
    fabric = report.cluster.network.fabric
    node_names = [n.name for n in machine.nodes]
    # Probe an evenly strided spread of node pairs, plus the last node, so
    # the worst case reflects cross-leaf paths at any node count.
    probes = node_names[1 :: max(1, len(node_names) // 8)]
    if node_names[-1] not in probes:
        probes.append(node_names[-1])
    worst = max(
        fabric.path_cost(a, b).hops
        for i, a in enumerate(probes)
        for b in probes[i + 1 :]
    )
    return [
        "Scale: University of Kansas (Table 3's largest row), fully built",
        "",
        f"nodes installed:      {len(report.cluster.hosts())}",
        f"total cores:          {machine.total_cores}",
        f"Rpeak:                {machine.rpeak_gflops / 1000:.2f} TF",
        f"switches (leaf/spine): {len(fabric.switch_names())}",
        f"worst-case hops:      {worst}",
        f"uniform packages:     {report.uniform_package_count}",
        f"DHCP leases:          {len(report.cluster.network.dhcp.leases())}",
    ]


def _holds(*reports) -> str:
    return "all hold" if all(r.ok for r in reports) else "VIOLATED"


@_artefact
def fault_injection() -> list[str]:
    """What ``repro.faults`` does under load, in counts."""
    cycles, calls = 400, 2_000
    churn = run_chaos(
        FaultPlan(
            "churn",
            tuple(
                FaultSpec(FaultKind.NODE_CRASH, f"littlefe-iu-n{1 + i % 5}",
                          at_s=10.0 + 20.0 * i, duration_s=10.0)
                for i in range(cycles)
            ),
        ),
        seed=1, cluster="littlefe", job_count=4, with_mirror=False,
    ).report

    kernel = SimKernel(seed=2)
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, jitter=0.1)
    attempts = 0

    def flaky() -> None:
        nonlocal attempts
        attempts += 1
        if attempts % 3:  # two failures, then a success
            raise YumError("transient")

    for _ in range(calls):
        call_with_retry(kernel, flaky, policy=policy, op="paper.flaky")

    clean = run_chaos(FaultPlan("none"), seed=3, cluster="littlefe")
    chaotic = run_chaos(seed=3, cluster="littlefe")
    return [
        "Fault injection, the retry path and the resilience tax, in counts",
        "",
        f"crash/recover churn (littlefe, 4 jobs, seed 1): {cycles} faults planned",
        f"  injected:         {churn.faults_injected} "
        f"(+ {churn.faults_recovered} recoveries)",
        f"  requeues:         {churn.requeues}",
        f"  invariants:       {_holds(churn)}",
        "",
        f"retry/backoff path (seed 2): {calls} calls, each 2 failures + 1 success",
        f"  attempts:         {attempts}",
        f"  retry events:     {kernel.trace.count('fault.retry')}",
        "",
        "chaos run vs fault-free baseline (littlefe, 12 jobs, seed 3)",
        f"  fault-free:       {clean.kernel.events_processed} events",
        f"  with faults:      {chaotic.kernel.events_processed} events",
        f"  requeues:         {chaotic.report.requeues}",
        f"  retries:          {chaotic.report.retries}",
        f"  invariants:       {_holds(clean.report, chaotic.report)}",
    ]


@_artefact
def checkpoint_restore() -> list[str]:
    """A full-stack snapshot mid-run, restored and replayed to the end."""
    seed, cut_steps = 11, 150
    world = ChaosWorld({"seed": seed, "job_count": 8})
    for _ in range(cut_steps):
        world.step()
    snapshot = CheckpointManager(world).capture()
    blob = snapshot.to_json()
    restored = CheckpointManager.restore(Snapshot.from_json(blob))
    restored.run()
    world.run()
    same = restored.kernel.trace.to_jsonl() == world.kernel.trace.to_jsonl()
    return [
        f"Checkpoint/restore (chaos seed={seed}, cut at step {cut_steps})",
        "",
        f"{'snapshot size':<28}{len(blob.encode()) / 1024:>10.1f} KiB",
        f"{'events at checkpoint':<28}{snapshot.events_processed:>10d}",
        f"{'restored run vs original':<28}"
        f"{'byte-identical' if same else 'DIVERGED':>18}",
    ]


# --------------------------------------------------------------------------
# the report
# --------------------------------------------------------------------------


def regenerate() -> dict[str, str]:
    """Every artefact's text, in ``ARTEFACTS`` order."""
    return {name: render() for name, render in ARTEFACTS.items()}


def fidelity(texts: dict[str, str]) -> tuple[str, list[Cell]]:
    """The paper-vs-measured table for ``texts``, and the cells out of tolerance."""
    width = max(len(cell.label) for cell in PAPER)
    lines = [
        "Reproduction fidelity: the paper's numbers vs the regenerated artefacts",
        "",
        f"{'artefact':<26}{'cell':<{width + 2}}{'paper':>9}{'measured':>10}"
        "  tolerance    verdict",
    ]
    failed = []
    for cell in PAPER:
        measured = cell.measured(texts[cell.artefact])
        ok = cell.holds(measured)
        if not ok:
            failed.append(cell)
        lines.append(
            f"{cell.artefact:<26}{cell.label:<{width + 2}}{cell.paper:>9g}"
            f"{measured:>10g}  {_TOLERANCE_NAMES[cell.tolerance]:<13}"
            f"{'ok' if ok else 'OUTSIDE'}"
        )
    counts = ", ".join(
        f"{sum(cell.tolerance == tolerance for cell in PAPER)} {name}"
        for tolerance, name in _TOLERANCE_NAMES.items()
    )
    lines += ["", f"{len(PAPER)} cells ({counts}); {len(failed)} outside tolerance"]
    return "\n".join(lines) + "\n", failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.paper",
        description="Regenerate every paper table, figure and ablation and "
        "compare the paper's numbers with the measured ones.",
    )
    parser.add_argument(
        "directory", nargs="?", type=pathlib.Path,
        help="write <name>.txt per artefact and fidelity.txt here",
    )
    args = parser.parse_args(argv)

    texts = regenerate()
    table, failed = fidelity(texts)
    print(table, end="")
    if args.directory is not None:
        args.directory.mkdir(parents=True, exist_ok=True)
        for name, text in {**texts, "fidelity": table}.items():
            (args.directory / f"{name}.txt").write_text(text, encoding="utf-8")
    for cell in failed:
        print(f"outside tolerance: {cell.artefact}: {cell.label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The training curriculum (Section 6).

"A curriculum module entitled 'Building and administering a Beowulf-style
cluster with LittleFe and the XSEDE-compatible Basic Cluster build' is
available from the LittleFe web site."  Bare-metal installs done *as part
of the curriculum* mean "students experience installing clusters and
software and monitoring" (Section 8).

:class:`CurriculumModule` is an ordered list of hands-on steps, each of
which actually executes against the simulation — when a student skips the
disk-install step, the Rocks step genuinely fails with the same error a
real class would hit.  :class:`TrainingSession` runs a cohort through the
module and produces a transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ReproError, TrainingError

__all__ = [
    "StepOutcome",
    "CurriculumStep",
    "CurriculumModule",
    "TrainingSession",
    "littlefe_xcbc_module",
    "limulus_xnit_module",
]


@dataclass
class StepOutcome:
    """One step's result for one cohort run."""

    step: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CurriculumStep:
    """One hands-on exercise.

    ``action`` receives the session's shared workspace dict and returns a
    human-readable detail string; raising :class:`ReproError` (any
    simulation error) marks the step failed with the error text — the
    teaching moment.
    """

    name: str
    objective: str
    action: Callable[[dict], str]


@dataclass(frozen=True)
class CurriculumModule:
    """An ordered curriculum."""

    title: str
    steps: tuple[CurriculumStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise TrainingError(f"module {self.title!r} has no steps")


class TrainingSession:
    """One cohort working through a module on shared (simulated) hardware."""

    def __init__(self, module: CurriculumModule, *, students: int = 8) -> None:
        if students <= 0:
            raise TrainingError("a session needs at least one student")
        self.module = module
        self.students = students
        self.workspace: dict = {}
        self.outcomes: list[StepOutcome] = []

    def run(self) -> list[StepOutcome]:
        """Execute every step in order; a failed step does not stop the rest."""
        for step in self.module.steps:
            try:
                detail = step.action(self.workspace)
                self.outcomes.append(StepOutcome(step.name, True, detail))
            except ReproError as exc:
                self.outcomes.append(StepOutcome(step.name, False, str(exc)))
        return self.outcomes

    @property
    def passed_all(self) -> bool:
        return bool(self.outcomes) and all(o.passed for o in self.outcomes)

    def transcript(self) -> str:
        lines = [f"Curriculum: {self.module.title} ({self.students} students)"]
        for o in self.outcomes:
            mark = "PASS" if o.passed else "FAIL"
            lines.append(f"  [{mark}] {o.step}: {o.detail}")
        return "\n".join(lines)


def littlefe_xcbc_module(*, forget_disks: bool = False) -> CurriculumModule:
    """The Section 6 module, executable.

    ``forget_disks=True`` injects the classic student mistake: building the
    stock (diskless) LittleFe and then attempting the Rocks-based XCBC
    install — which fails exactly the way Section 5.1 explains.
    """

    def assemble(ws: dict) -> str:
        from ..hardware.builder import build_littlefe_modified, build_littlefe_original

        quote = build_littlefe_original() if forget_disks else build_littlefe_modified()
        ws["machine"] = quote.machine
        return (
            f"assembled {quote.machine.node_count} nodes, "
            f"{quote.machine.total_cores} cores, BOM ${quote.bom_usd:.0f}"
        )

    def wire(ws: dict) -> str:
        from ..network.topology import build_cluster_network

        ws["network"] = build_cluster_network(ws["machine"])
        return f"dual-homed head node; {len(ws['network'].private_hosts())} hosts on the private switch"

    def install(ws: dict) -> str:
        from .xcbc import build_xcbc_cluster

        report = build_xcbc_cluster(ws["machine"])
        ws["cluster"] = report.cluster
        return (
            f"XCBC {report.roll_version} installed; "
            f"{report.uniform_package_count} uniform packages"
        )

    def submit_job(ws: dict) -> str:
        from ..scheduler import ClusterResources, Job, MauiScheduler

        scheduler = MauiScheduler(ClusterResources(ws["machine"]))
        job = scheduler.submit(
            Job("hello-mpi", "student", cores=4, walltime_limit_s=600, runtime_s=30)
        )
        stats = scheduler.run_to_completion()
        return f"job {job.name} completed; makespan {stats.makespan_s:.0f}s"

    def run_linpack(ws: dict) -> str:
        from ..linpack import benchmark_machine

        report = benchmark_machine(ws["machine"])
        return (
            f"HPL model: N={report.n}, Rmax {report.rmax_gflops:.1f} of "
            f"Rpeak {report.rpeak_gflops:.1f} GFLOPS "
            f"({report.efficiency:.0%})"
        )

    return CurriculumModule(
        title="Building and administering a Beowulf-style cluster with "
        "LittleFe and the XSEDE-compatible Basic Cluster build",
        steps=(
            CurriculumStep(
                "assemble-hardware",
                "Build the LittleFe frame: boards, CPUs, coolers, power",
                assemble,
            ),
            CurriculumStep(
                "wire-network",
                "Cable the dual-homed head node and private switch",
                wire,
            ),
            CurriculumStep(
                "install-xcbc",
                "Install Rocks with the XSEDE roll from scratch",
                install,
            ),
            CurriculumStep(
                "submit-first-job",
                "Submit and watch an MPI job through Torque/Maui",
                submit_job,
            ),
            CurriculumStep(
                "run-linpack",
                "Size and run HPL; compare Rmax against Rpeak",
                run_linpack,
            ),
        ),
    )


def limulus_xnit_module(*, skip_priorities_plugin: bool = False) -> CurriculumModule:
    """Section 6's other hands-on path: retrofitting a delivered cluster.

    "Using the Limulus HPC200, one can take the running cluster, and with
    XNIT add software, change the schedulers, and easily document the
    approach to make it reproducible" — each clause is a step, and the whole
    session is recorded into a playbook students take home.

    ``skip_priorities_plugin=True`` injects the classic mistake: enabling
    the repository without yum-plugin-priorities, letting the base OS shadow
    the XSEDE builds; the audit step catches the drift.
    """

    def unbox(ws: dict) -> str:
        from .machines import build_limulus_cluster

        ws["cluster"] = build_limulus_cluster("class-limulus")
        ws["client"] = ws["cluster"].client_for(ws["cluster"].frontend)
        return (
            f"delivered machine: {ws['cluster'].machine.total_cores} cores, "
            f"vendor stack {', '.join(ws['cluster'].vendor_stack)}"
        )

    def enable_repo(ws: dict) -> str:
        from ..rpm.package import Package
        from ..yum.repository import Repository
        from .playbook import RecordingSession
        from .xnit import build_xnit_repository

        repo = build_xnit_repository()
        if skip_priorities_plugin:
            # the mistake: hand-edit the .repo file, forget the plugin, and
            # leave a base repo carrying a shadowing python build enabled
            base = Repository("sl-base", priority=90)
            base.add(Package(name="python", version="2.7.99", release="0.el6",
                             commands=("python",)))
            client = ws["client"]
            client.repos.use_priorities = False
            client.repos.add_repo(base)
            client.repos.add_repo(repo)
            ws["session"] = RecordingSession(client, repo, title="class retrofit")
            return "repository enabled WITHOUT yum-plugin-priorities"
        ws["session"] = RecordingSession(ws["client"], repo, title="class retrofit")
        ws["session"].setup_repo_manual()
        return "yum-plugin-priorities installed; xsede.repo written"

    def add_software(ws: dict) -> str:
        ws["session"].install("python", comment="the run-alike interpreter")
        ws["session"].install("gromacs", comment="the class MD workload")
        return "python + gromacs (and their chains) installed"

    def change_scheduler(ws: dict) -> str:
        ws["session"].install("torque", "maui", comment="change the schedulers")
        return "torque/maui installed beside the vendor Grid Engine"

    def audit(ws: dict) -> str:
        from ..errors import CompatibilityError
        from .compatibility import audit_host
        from .packages_xsede import xsede_packages

        client = ws["client"]
        report = audit_host(
            ws["cluster"].frontend,
            client.db,
            catalogue=[
                p
                for p in xsede_packages()
                if p.name in ("python", "gromacs", "torque", "maui")
            ],
        )
        if report.overall < 1.0 - 1e-9:
            missing = [
                item
                for dim in report.dimensions
                for item in dim.missing
            ]
            raise CompatibilityError(
                f"run-alike drift detected (audit {report.overall:.0%}): "
                f"missing {missing} — did you install yum-plugin-priorities?"
            )
        return f"audit clean: {report.overall:.0%} on the installed subset"

    def document(ws: dict) -> str:
        playbook = ws["session"].playbook
        ws["cluster"].frontend.fs.write(
            "/root/retrofit-playbook.json", playbook.to_json()
        )
        return (
            f"playbook with {len(playbook.steps)} steps written to "
            f"/root/retrofit-playbook.json"
        )

    return CurriculumModule(
        title="Retrofitting a running cluster with XNIT "
        "(Limulus HPC200 edition)",
        steps=(
            CurriculumStep("unbox", "Inspect the delivered cluster", unbox),
            CurriculumStep("enable-repo", "Enable the XSEDE Yum repository", enable_repo),
            CurriculumStep("add-software", "Install capabilities with yum", add_software),
            CurriculumStep("change-scheduler", "Add torque/maui via XNIT", change_scheduler),
            CurriculumStep("audit", "Audit run-alike compatibility", audit),
            CurriculumStep("document", "Write the reproducible playbook", document),
        ),
    )

"""The standard Rocks rolls of Table 1, plus the base roll and OS packages.

Table 1 lists what a current XCBC build draws from stock Rocks:

* Basics — Rocks 6.1.1, CentOS 6.5, modules, apache-ant, fdepend, gmake,
  gnu-make, scons;
* Job management — "Torque, SLURM, sge (choose one)";
* Optional rolls — area51, bio, fingerprint, htcondor, ganglia, hpc, kvm,
  perl, python, Web-server, Zfs-linux.

Every roll here is a real :class:`~repro.rocks.roll.Roll` with packages that
materialise commands/services/modulefiles, so an installed cluster has an
inspectable surface (the Table 1 bench regenerates the table from these
definitions — the single source of truth).
"""

from __future__ import annotations

from ..distro.distribution import DistroRelease
from ..rpm.package import Capability, Package, Requirement
from .kickstart import Profile
from .roll import Roll, RollGraphFragment

__all__ = [
    "base_os_packages",
    "base_roll",
    "job_management_rolls",
    "optional_rolls",
    "all_standard_rolls",
    "TABLE1_BASICS",
    "TABLE1_OPTIONAL_ROLLS",
]

#: The Table 1 "Basics" row, verbatim.
TABLE1_BASICS = (
    "rocks",
    "modules",
    "apache-ant",
    "fdepend",
    "gmake",
    "gnu-make",
    "scons",
)

#: The Table 1 optional-roll rows: name -> description (verbatim from the paper).
TABLE1_OPTIONAL_ROLLS = {
    "area51": "Security-related packages for analyzing the integrity of files and the kernel",
    "bio": "Bioinformatics utilities",
    "fingerprint": "Fingerprint application dependencies",
    "htcondor": "HTCondor high-throughput computing workload management system",
    "ganglia": "Cluster monitoring system",
    "hpc": "Tools for running parallel applications",
    "kvm": "Support for building Kernel-Based Virtual Machine (KVM) virtual machines on cluster nodes",
    "perl": "Perl RPM, CPAN support utilities, and various CPAN modules",
    "python": "Python 2.7 and Python 3.x",
    "web-server": "Rocks web server roll",
    "zfs-linux": "Zetabyte File System (ZFS) drivers for Linux",
}


def base_os_packages(release: DistroRelease) -> list[Package]:
    """The stock packages a fresh OS install carries (CentOS base set)."""
    version = release.version
    pkgs = []
    for name in release.base_packages:
        commands: tuple[str, ...] = ()
        services: tuple[str, ...] = ()
        if name == "bash":
            commands = ("sh",)
        elif name == "coreutils":
            commands = ("ls", "cp", "mv", "cat", "chmod")
        elif name == "rpm":
            commands = ("rpm",)
        elif name == "yum":
            commands = ("yum",)
        elif name == "openssh":
            commands = ("ssh", "scp")
        elif name == "openssh-server":
            services = ("sshd",)
        elif name == "net-tools":
            commands = ("ifconfig", "netstat")
        elif name == "cronie":
            commands = ("crontab",)
            services = ("crond",)
        elif name == "util-linux":
            commands = ("mount", "fdisk")
        pkgs.append(
            Package(
                name=name,
                version=version if name != "kernel" else release.kernel_version,
                category="os-base",
                summary=f"{release.name} base package",
                commands=commands,
                services=services,
            )
        )
    return pkgs


def base_roll() -> Roll:
    """The mandatory Rocks base roll: rocks commands, modules, build tools."""
    packages = (
        Package(
            name="rocks",
            version="6.1.1",
            category="Basics",
            summary="Rocks cluster distribution core",
            commands=("rocks", "insert-ethers"),
            services=("rocks-dhcpd", "httpd"),
        ),
        Package(
            name="modules",
            version="3.2.10",
            category="Basics",
            summary="Environment modules",
            commands=("module", "modulecmd"),
        ),
        Package(
            name="apache-ant",
            version="1.8.4",
            category="Basics",
            summary="Java build tool",
            commands=("ant",),
            requires=(Requirement("java-1.7.0-openjdk"),),
        ),
        Package(
            name="fdepend",
            version="1.0",
            category="Basics",
            summary="Fortran dependency generator",
            commands=("fdepend",),
        ),
        Package(
            name="gmake",
            version="3.81",
            category="Basics",
            summary="GNU make (gmake spelling)",
            commands=("gmake",),
            provides=(Capability("make-engine", "3.81"),),
        ),
        Package(
            name="gnu-make",
            version="3.81",
            category="Basics",
            summary="GNU make",
            commands=("make",),
            provides=(Capability("make-engine", "3.81"),),
        ),
        Package(
            name="scons",
            version="2.3.0",
            category="Basics",
            summary="SCons build tool",
            commands=("scons",),
            requires=(Requirement("python-base"),),
        ),
        Package(
            name="java-1.7.0-openjdk",
            version="1.7.0.75",
            category="Basics",
            summary="OpenJDK 7 runtime",
            commands=("java",),
        ),
        Package(
            name="rocks-411",
            version="6.1.1",
            category="Basics",
            summary="Rocks 411 secure information service",
            services=("411",),
        ),
    )
    fragments = (
        RollGraphFragment(
            node_name="base-common",
            packages=("rocks", "modules", "gnu-make", "gmake"),
            attach_to=(Profile.FRONTEND, Profile.COMPUTE),
        ),
        RollGraphFragment(
            node_name="base-build-tools",
            packages=("apache-ant", "java-1.7.0-openjdk", "fdepend", "scons"),
            attach_to=(Profile.FRONTEND, Profile.COMPUTE),
        ),
        RollGraphFragment(
            node_name="base-frontend-services",
            packages=("rocks-411",),
            attach_to=(Profile.FRONTEND,),
            enable_services=("rocks-dhcpd", "httpd", "411"),
            post_actions=("configure dual-homed network", "start kickstart server"),
        ),
    )
    return Roll(
        name="base",
        version="6.1.1",
        summary="Rocks base: cluster core, modules, build tools",
        packages=packages,
        fragments=fragments,
        optional=False,
    )


def job_management_rolls() -> dict[str, Roll]:
    """The "choose one" job-management rolls: torque, slurm, sge.

    The torque roll carries Maui (Table 2 lists maui+torque as XCBC's
    scheduler pairing).  The three conflict with one another.
    """
    torque_pkgs = (
        Package(
            name="torque",
            version="4.2.10",
            category="Scheduler and Resource Manager",
            summary="Torque resource manager",
            commands=("qsub", "qstat", "qdel", "pbsnodes"),
            services=("pbs_server", "pbs_mom"),
            conflicts=(Requirement("slurm"), Requirement("sge")),
        ),
        Package(
            name="maui",
            version="3.3.1",
            category="Scheduler and Resource Manager",
            summary="Maui scheduler",
            commands=("showq", "checkjob", "setqos"),
            services=("maui",),
            requires=(Requirement("torque"),),
        ),
    )
    slurm_pkgs = (
        Package(
            name="slurm",
            version="14.03.0",
            category="Scheduler and Resource Manager",
            summary="SLURM workload manager",
            commands=("sbatch", "squeue", "scancel", "sinfo", "srun"),
            services=("slurmctld", "slurmd"),
            conflicts=(Requirement("torque"), Requirement("sge")),
        ),
        Package(
            name="munge",
            version="0.5.11",
            category="Scheduler and Resource Manager",
            summary="MUNGE authentication for SLURM",
            services=("munged",),
        ),
    )
    sge_pkgs = (
        Package(
            name="sge",
            version="8.1.8",
            category="Scheduler and Resource Manager",
            summary="Son of Grid Engine",
            commands=("qsub", "qstat", "qdel", "qconf"),
            services=("sge_qmaster", "sge_execd"),
            conflicts=(Requirement("torque"), Requirement("slurm")),
        ),
    )

    def scheduler_roll(name: str, pkgs: tuple[Package, ...], services: tuple[str, ...]) -> Roll:
        return Roll(
            name=name,
            version="6.1.1",
            summary=f"{name} job management roll",
            packages=pkgs,
            fragments=(
                RollGraphFragment(
                    node_name=f"{name}-server",
                    packages=tuple(p.name for p in pkgs),
                    attach_to=(Profile.FRONTEND,),
                    enable_services=services[:1] + services[2:],
                ),
                RollGraphFragment(
                    node_name=f"{name}-client",
                    packages=(pkgs[0].name,) + tuple(p.name for p in pkgs[1:] if p.services and p.name == "munge"),
                    attach_to=(Profile.COMPUTE,),
                    enable_services=services[1:2],
                ),
            ),
        )

    return {
        "torque": scheduler_roll("torque", torque_pkgs, ("pbs_server", "pbs_mom", "maui")),
        "slurm": scheduler_roll("slurm", slurm_pkgs, ("slurmctld", "slurmd", "munged")),
        "sge": scheduler_roll("sge", sge_pkgs, ("sge_qmaster", "sge_execd")),
    }


def _simple_roll(
    name: str,
    version: str,
    summary: str,
    package_defs: list[Package],
    *,
    frontend_only: bool = False,
    services: tuple[str, ...] = (),
) -> Roll:
    attach = (Profile.FRONTEND,) if frontend_only else (Profile.FRONTEND, Profile.COMPUTE)
    return Roll(
        name=name,
        version=version,
        summary=summary,
        packages=tuple(package_defs),
        fragments=(
            RollGraphFragment(
                node_name=f"{name}-packages",
                packages=tuple(p.name for p in package_defs),
                attach_to=attach,
                enable_services=services,
            ),
        ),
    )


def optional_rolls() -> dict[str, Roll]:
    """The Table 1 optional rolls, each with representative packages."""
    rolls: dict[str, Roll] = {}
    rolls["area51"] = _simple_roll(
        "area51", "6.1.1", TABLE1_OPTIONAL_ROLLS["area51"],
        [
            Package(name="tripwire", version="2.4.2", category="area51",
                    summary="File integrity checker", commands=("tripwire",)),
            Package(name="chkrootkit", version="0.49", category="area51",
                    summary="Rootkit detector", commands=("chkrootkit",)),
        ],
    )
    rolls["bio"] = _simple_roll(
        "bio", "6.1.1", TABLE1_OPTIONAL_ROLLS["bio"],
        [
            Package(name="hmmer-roll", version="3.1", category="bio",
                    summary="Profile HMM search", commands=("hmmsearch-roll",)),
            Package(name="ncbi-blast-roll", version="2.2.29", category="bio",
                    summary="BLAST sequence search", commands=("blastn-roll",)),
            Package(name="clustalw", version="2.1", category="bio",
                    summary="Multiple sequence alignment", commands=("clustalw2",)),
        ],
    )
    rolls["fingerprint"] = _simple_roll(
        "fingerprint", "6.1.1", TABLE1_OPTIONAL_ROLLS["fingerprint"],
        [
            Package(name="fingerprint", version="1.1", category="fingerprint",
                    summary="Application dependency fingerprinting",
                    commands=("fingerprint",)),
        ],
    )
    rolls["htcondor"] = _simple_roll(
        "htcondor", "6.1.1", TABLE1_OPTIONAL_ROLLS["htcondor"],
        [
            Package(name="htcondor", version="8.2.2", category="htcondor",
                    summary="High-throughput computing",
                    commands=("condor_submit", "condor_q"),
                    services=("condor_master",)),
        ],
        services=("condor_master",),
    )
    rolls["ganglia"] = _simple_roll(
        "ganglia", "6.1.1", TABLE1_OPTIONAL_ROLLS["ganglia"],
        [
            Package(name="ganglia-gmond", version="3.6.0", category="ganglia",
                    summary="Ganglia monitoring daemon", services=("gmond",)),
            Package(name="ganglia-gmetad", version="3.6.0", category="ganglia",
                    summary="Ganglia meta daemon", services=("gmetad",),
                    requires=(Requirement("ganglia-gmond"),)),
        ],
        services=("gmond",),
    )
    rolls["hpc"] = _simple_roll(
        "hpc", "6.1.1", TABLE1_OPTIONAL_ROLLS["hpc"],
        [
            Package(name="rocks-openmpi", version="1.6.2", category="hpc",
                    summary="OpenMPI (Rocks build)",
                    commands=("mpirun-rocks",),
                    libraries=("librocksmpi.so.1",)),
            Package(name="mpi-tests", version="6.1.1", category="hpc",
                    summary="Ping-pong and stream benchmarks",
                    commands=("mpi-ping-pong", "stream"),
                    requires=(Requirement("rocks-openmpi"),)),
            Package(name="iozone", version="3.424", category="hpc",
                    summary="Filesystem benchmark", commands=("iozone",)),
        ],
    )
    rolls["kvm"] = _simple_roll(
        "kvm", "6.1.1", TABLE1_OPTIONAL_ROLLS["kvm"],
        [
            Package(name="qemu-kvm", version="0.12.1", category="kvm",
                    summary="KVM hypervisor", commands=("qemu-kvm",),
                    services=("libvirtd",)),
            Package(name="libvirt", version="0.10.2", category="kvm",
                    summary="Virtualisation API", commands=("virsh",),
                    requires=(Requirement("qemu-kvm"),)),
        ],
    )
    rolls["perl"] = _simple_roll(
        "perl", "6.1.1", TABLE1_OPTIONAL_ROLLS["perl"],
        [
            Package(name="perl", version="5.10.1", category="perl",
                    summary="Perl interpreter", commands=("perl",)),
            Package(name="perl-CPAN", version="1.9402", category="perl",
                    summary="CPAN support utilities", commands=("cpan",),
                    requires=(Requirement("perl"),)),
            Package(name="perl-BioPerl", version="1.6.9", category="perl",
                    summary="CPAN module: BioPerl",
                    requires=(Requirement("perl"),)),
        ],
    )
    rolls["python"] = _simple_roll(
        "python", "6.1.1", TABLE1_OPTIONAL_ROLLS["python"],
        [
            Package(name="python27", version="2.7.8", category="python",
                    summary="Python 2.7", commands=("python2.7",),
                    modulefile="python27/2.7.8"),
            Package(name="python3", version="3.4.1", category="python",
                    summary="Python 3.x", commands=("python3",),
                    modulefile="python3/3.4.1"),
        ],
    )
    rolls["web-server"] = _simple_roll(
        "web-server", "6.1.1", TABLE1_OPTIONAL_ROLLS["web-server"],
        [
            Package(name="httpd-roll", version="2.2.15", category="web-server",
                    summary="Apache httpd (Rocks web server)",
                    services=("httpd-web",)),
            Package(name="wordpress", version="3.9", category="web-server",
                    summary="Rocks site frontend",
                    requires=(Requirement("httpd-roll"),)),
        ],
        frontend_only=True,
        services=("httpd-web",),
    )
    rolls["zfs-linux"] = _simple_roll(
        "zfs-linux", "6.1.1", TABLE1_OPTIONAL_ROLLS["zfs-linux"],
        [
            Package(name="zfs", version="0.6.3", category="zfs-linux",
                    summary="ZFS on Linux", commands=("zpool", "zfs"),
                    services=("zfs-import",)),
            Package(name="spl", version="0.6.3", category="zfs-linux",
                    summary="Solaris porting layer"),
        ],
        frontend_only=True,
    )
    return rolls


def all_standard_rolls() -> dict[str, Roll]:
    """base + job management + every optional roll, keyed by name."""
    rolls = {"base": base_roll()}
    rolls.update(job_management_rolls())
    rolls.update(optional_rolls())
    return rolls

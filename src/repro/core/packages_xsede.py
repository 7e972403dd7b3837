"""The Table 2 catalogue: every package of the XSEDE "run-alike" layer.

Table 2 lists the XCBC components "specific to XSEDE cluster run-alike
compatibility", kept consistent with Stampede: same versions, libraries in
the same places, commands that work the same way.  This module is the
single source of truth for that catalogue — the Table 2 bench regenerates
the table from it, the XSEDE roll packages it, and the XNIT repository
publishes it.

Categories follow the table verbatim:

* ``Compilers, libraries, and programming``
* ``Scientific Applications``
* ``Miscellaneous Tools``
* ``Scheduler and Resource Manager``
* ``XSEDE Tools``

Package definitions are compact spec tuples expanded into
:class:`~repro.rpm.package.Package` objects; dependencies stay within this
catalogue plus the OS base so every install closure resolves.
"""

from __future__ import annotations

from ..rpm.package import Flag, Package, Requirement

__all__ = [
    "CATEGORY_COMPILERS",
    "CATEGORY_SCIENCE",
    "CATEGORY_MISC",
    "CATEGORY_SCHEDULER",
    "CATEGORY_XSEDE",
    "TABLE2_CATEGORIES",
    "xsede_packages",
    "xsede_package_names",
    "packages_by_category",
    "XNIT_EXTRAS",
    "xnit_extra_packages",
]

CATEGORY_COMPILERS = "Compilers, libraries, and programming"
CATEGORY_SCIENCE = "Scientific Applications"
CATEGORY_MISC = "Miscellaneous Tools"
CATEGORY_SCHEDULER = "Scheduler and Resource Manager"
CATEGORY_XSEDE = "XSEDE Tools"

TABLE2_CATEGORIES = (
    CATEGORY_COMPILERS,
    CATEGORY_SCIENCE,
    CATEGORY_MISC,
    CATEGORY_SCHEDULER,
    CATEGORY_XSEDE,
)

# Spec tuple: (name, version, category, requires, commands, libraries, module)
# requires entries are "name" or "name>=ver" strings.
_SPECS: list[tuple[str, str, str, tuple[str, ...], tuple[str, ...], tuple[str, ...], str]] = [
    # --- Compilers, libraries, and programming --------------------------------
    ("gcc", "4.4.7", CATEGORY_COMPILERS, (), ("gcc", "g++"), ("libgcc_s.so.1",), ""),
    ("gcc-gfortran", "4.4.7", CATEGORY_COMPILERS, ("gcc",), ("gfortran",), (), ""),
    ("compat-gcc-34-g77", "3.4.6", CATEGORY_COMPILERS, (), ("g77",), (), ""),
    ("charm", "6.5.1", CATEGORY_COMPILERS, ("gcc",), ("charmrun",), ("libcharm.so",), "charm/6.5.1"),
    ("fftw2", "2.1.5", CATEGORY_COMPILERS, (), (), ("libfftw2.so.2",), ""),
    ("fftw", "3.3.3", CATEGORY_COMPILERS, (), ("fftw-wisdom",), ("libfftw3.so.3",), "fftw3/3.3.3"),
    ("gmp", "4.3.1", CATEGORY_COMPILERS, (), (), ("libgmp.so.3",), ""),
    ("mpfr", "2.4.1", CATEGORY_COMPILERS, ("gmp",), (), ("libmpfr.so.1",), ""),
    ("hdf5", "1.8.13", CATEGORY_COMPILERS, (), ("h5dump",), ("libhdf5.so.8",), "hdf5/1.8.13"),
    ("java-1.7.0-openjdk", "1.7.0.79", CATEGORY_COMPILERS, (), ("java", "javac"), (), ""),
    ("openmpi", "1.6.4", CATEGORY_COMPILERS, ("gcc",), ("mpirun", "mpicc", "mpif90"), ("libmpi.so.1",), "openmpi/1.6.4"),
    ("mpich2", "1.9", CATEGORY_COMPILERS, ("gcc",), ("mpiexec.hydra",), ("libmpich.so.3",), "mpich2/1.9"),
    ("mpi4py-common", "1.3.1", CATEGORY_COMPILERS, ("python",), (), (), ""),
    ("mpi4py-openmpi", "1.3.1", CATEGORY_COMPILERS, ("mpi4py-common", "openmpi"), (), (), ""),
    ("mpi4py-tools", "1.3.1", CATEGORY_COMPILERS, ("mpi4py-common",), (), (), ""),
    ("psm", "3.3", CATEGORY_COMPILERS, (), (), ("libpsm_infinipath.so.1",), ""),
    ("numactl", "2.0.9", CATEGORY_COMPILERS, (), ("numactl",), ("libnuma.so.1",), ""),
    ("librdmacm", "1.0.17", CATEGORY_COMPILERS, (), (), ("librdmacm.so.1",), ""),
    ("libibverbs", "1.1.7", CATEGORY_COMPILERS, (), (), ("libibverbs.so.1",), ""),
    ("papi", "5.1.1", CATEGORY_COMPILERS, (), ("papi_avail",), ("libpapi.so.5",), "papi/5.1.1"),
    ("python", "2.7.9", CATEGORY_COMPILERS, (), ("python", "python2.7-xsede"), ("libpython2.7.so.1.0",), "python/2.7.9"),
    ("tcl", "8.5.7", CATEGORY_COMPILERS, (), ("tclsh",), ("libtcl8.5.so",), ""),
    ("R-core", "3.1.2", CATEGORY_COMPILERS, (), ("R", "Rscript"), ("libR.so",), "R/3.1.2"),
    ("R", "3.1.2", CATEGORY_COMPILERS, ("R-core",), (), (), ""),
    ("R-core-devel", "3.1.2", CATEGORY_COMPILERS, ("R-core",), (), (), ""),
    ("R-devel", "3.1.2", CATEGORY_COMPILERS, ("R-core-devel",), (), (), ""),
    ("R-java", "3.1.2", CATEGORY_COMPILERS, ("R-core", "java-1.7.0-openjdk"), (), (), ""),
    ("R-java-devel", "3.1.2", CATEGORY_COMPILERS, ("R-java",), (), (), ""),
    ("libRmath", "3.1.2", CATEGORY_COMPILERS, (), (), ("libRmath.so",), ""),
    ("libRmath-devel", "3.1.2", CATEGORY_COMPILERS, ("libRmath",), (), (), ""),
    # --- Scientific Applications ------------------------------------------------
    ("GotoBLAS2", "1.13", CATEGORY_SCIENCE, (), (), ("libgoto2.so",), ""),
    ("atlas", "3.8.4", CATEGORY_SCIENCE, (), (), ("libatlas.so.3",), ""),
    ("arpack", "3.1.3", CATEGORY_SCIENCE, ("gcc-gfortran",), (), ("libarpack.so.2",), ""),
    ("PLAPACK", "3.2", CATEGORY_SCIENCE, ("openmpi",), (), ("libPLAPACK.so",), ""),
    ("scalapack-common", "2.0.2", CATEGORY_SCIENCE, ("openmpi",), (), ("libscalapack.so.2",), ""),
    ("PnetCDF", "1.4.1", CATEGORY_SCIENCE, ("openmpi",), ("ncmpidump",), ("libpnetcdf.so",), ""),
    ("netcdf", "4.3.2", CATEGORY_SCIENCE, ("hdf5",), ("ncdump",), ("libnetcdf.so.7",), "netcdf/4.3.2"),
    ("nco", "4.4.4", CATEGORY_SCIENCE, ("netcdf",), ("ncks",), (), ""),
    ("ncl", "6.2.0", CATEGORY_SCIENCE, ("netcdf", "ncl-common"), ("ncl",), (), "ncl/6.2.0"),
    ("ncl-common", "6.2.0", CATEGORY_SCIENCE, (), (), (), ""),
    ("numpy", "1.8.2", CATEGORY_SCIENCE, ("python", "atlas"), (), (), ""),
    ("octave", "3.8.2", CATEGORY_SCIENCE, ("atlas", "fftw"), ("octave",), (), "octave/3.8.2"),
    ("boost", "1.55.0", CATEGORY_SCIENCE, (), (), ("libboost_system.so.1.55.0",), "boost/1.55.0"),
    ("petsc", "3.5.2", CATEGORY_SCIENCE, ("openmpi", "atlas"), (), ("libpetsc.so.3.5",), "petsc/3.5.2"),
    ("slepc", "3.5.3", CATEGORY_SCIENCE, ("petsc",), (), ("libslepc.so.3.5",), ""),
    ("sundials", "2.5.0", CATEGORY_SCIENCE, (), (), ("libsundials_cvode.so.1",), ""),
    ("sprng", "2.0", CATEGORY_SCIENCE, ("openmpi",), (), ("libsprng.so",), ""),
    ("glpk", "4.52", CATEGORY_SCIENCE, ("gmp",), ("glpsol",), ("libglpk.so.36",), ""),
    ("elemental", "0.84", CATEGORY_SCIENCE, ("openmpi",), (), ("libelemental.so",), ""),
    ("espresso-ab", "5.0.3", CATEGORY_SCIENCE, ("openmpi", "fftw"), ("pw.x",), (), "espresso/5.0.3"),
    ("gromacs", "4.6.5", CATEGORY_SCIENCE, ("openmpi", "fftw", "gromacs-libs", "gromacs-common"), ("mdrun", "grompp"), (), "gromacs/4.6.5"),
    ("gromacs-common", "4.6.5", CATEGORY_SCIENCE, (), (), (), ""),
    ("gromacs-libs", "4.6.5", CATEGORY_SCIENCE, (), (), ("libgmx.so.8",), ""),
    ("lammps", "20140628", CATEGORY_SCIENCE, ("openmpi", "fftw", "lammps-common"), ("lmp_openmpi",), (), "lammps/20140628"),
    ("lammps-common", "20140628", CATEGORY_SCIENCE, (), (), (), ""),
    ("meep", "1.2.1", CATEGORY_SCIENCE, ("openmpi", "hdf5"), ("meep",), (), "meep/1.2.1"),
    ("valgrind", "3.9.0", CATEGORY_SCIENCE, (), ("valgrind",), (), ""),
    ("gnuplot", "4.6.5", CATEGORY_SCIENCE, ("gnuplot-common", "gd", "libXpm"), ("gnuplot",), (), ""),
    ("gnuplot-common", "4.6.5", CATEGORY_SCIENCE, (), (), (), ""),
    ("gd", "2.0.35", CATEGORY_SCIENCE, ("giflib",), (), ("libgd.so.2",), ""),
    ("libXpm", "3.5.10", CATEGORY_SCIENCE, (), (), ("libXpm.so.4",), ""),
    ("plplot", "5.10.0", CATEGORY_SCIENCE, (), (), ("libplplot.so.12",), ""),
    ("lua", "5.1.4", CATEGORY_SCIENCE, (), ("lua",), ("liblua-5.1.so",), ""),
    ("libgfortran", "4.4.7", CATEGORY_SCIENCE, (), (), ("libgfortran.so.3",), ""),
    ("libgomp", "4.4.7", CATEGORY_SCIENCE, (), (), ("libgomp.so.1",), ""),
    ("libtool-ltdl", "2.2.6", CATEGORY_SCIENCE, (), (), ("libltdl.so.7",), ""),
    ("libmspack", "0.4", CATEGORY_SCIENCE, (), (), ("libmspack.so.0",), ""),
    ("libgtextutils", "0.6.1", CATEGORY_SCIENCE, (), (), ("libgtextutils.so.0",), ""),
    ("sparsehash-devel", "2.0.2", CATEGORY_SCIENCE, (), (), (), ""),
    ("saga", "2.1.2", CATEGORY_SCIENCE, ("boost",), (), ("libsaga_core.so",), ""),
    ("wxBase3", "3.0.1", CATEGORY_SCIENCE, (), (), ("libwx_baseu-3.0.so.0",), ""),
    ("wxGTK3", "3.0.1", CATEGORY_SCIENCE, ("wxBase3",), (), ("libwx_gtk3u_core-3.0.so.0",), ""),
    # bioinformatics block
    ("BEDTools", "2.19.1", CATEGORY_SCIENCE, (), ("bedtools",), (), ""),
    ("SHRiMP", "2.2.3", CATEGORY_SCIENCE, (), ("gmapper",), (), ""),
    ("shrimp", "2.2.3b", CATEGORY_SCIENCE, ("SHRiMP",), (), (), ""),
    ("Abyss", "1.5.2", CATEGORY_SCIENCE, ("openmpi", "boost", "sparsehash-devel"), ("abyss-pe",), (), ""),
    ("autodocksuite", "4.2.5", CATEGORY_SCIENCE, (), ("autodock4",), (), ""),
    ("bowtie", "1.0.1", CATEGORY_SCIENCE, (), ("bowtie",), (), ""),
    ("bwa", "0.7.10", CATEGORY_SCIENCE, (), ("bwa",), (), ""),
    ("ncbi-blast", "2.2.29", CATEGORY_SCIENCE, (), ("blastn", "blastp"), (), "blast/2.2.29"),
    ("mpiblast", "1.6.0", CATEGORY_SCIENCE, ("openmpi", "ncbi-blast"), ("mpiblast",), (), ""),
    ("hmmer", "3.1b1", CATEGORY_SCIENCE, (), ("hmmsearch", "hmmscan"), (), ""),
    ("mrbayes", "3.2.2", CATEGORY_SCIENCE, ("openmpi",), ("mb",), (), ""),
    ("gatk", "3.2.2", CATEGORY_SCIENCE, ("java-1.7.0-openjdk",), ("gatk",), (), ""),
    ("picard-tools", "1.119", CATEGORY_SCIENCE, ("java-1.7.0-openjdk",), ("picard",), (), ""),
    ("Samtools", "0.1.19", CATEGORY_SCIENCE, (), ("samtools",), (), ""),
    ("sratoolkit", "2.3.5", CATEGORY_SCIENCE, (), ("fastq-dump",), (), ""),
    ("trinity", "20140717", CATEGORY_SCIENCE, ("bowtie", "Samtools", "java-1.7.0-openjdk"), ("Trinity",), (), ""),
    # I/O characterisation
    ("darshan-util", "2.3.0", CATEGORY_SCIENCE, (), ("darshan-parser",), (), ""),
    ("darshan-runtime-openmpi", "2.3.0", CATEGORY_SCIENCE, ("openmpi", "darshan-util"), (), ("libdarshan-openmpi.so",), ""),
    ("darshan-runtime-mpich", "2.3.0", CATEGORY_SCIENCE, ("mpich2", "darshan-util"), (), ("libdarshan-mpich.so",), ""),
    # --- Miscellaneous Tools ----------------------------------------------------
    ("ant", "1.7.1", CATEGORY_MISC, ("java-1.7.0-openjdk",), ("ant-xsede",), (), ""),
    ("scone", "1.0", CATEGORY_MISC, ("python",), ("scone",), (), ""),
    ("giflib", "4.1.6", CATEGORY_MISC, (), (), ("libgif.so.4",), ""),
    ("libesmtp", "1.0.4", CATEGORY_MISC, (), (), ("libesmtp.so.5",), ""),
    ("libicu", "4.2.1", CATEGORY_MISC, (), (), ("libicuuc.so.42",), ""),
    ("pulseaudio-libs", "0.9.21", CATEGORY_MISC, ("libsndfile", "libasyncns"), (), ("libpulse.so.0",), ""),
    ("libasyncns", "0.8", CATEGORY_MISC, (), (), ("libasyncns.so.0",), ""),
    ("libsndfile", "1.0.20", CATEGORY_MISC, ("libvorbis", "flac"), (), ("libsndfile.so.1",), ""),
    ("libvorbis", "1.2.3", CATEGORY_MISC, ("libogg",), (), ("libvorbis.so.0",), ""),
    ("flac", "1.2.1", CATEGORY_MISC, ("libogg",), (), ("libFLAC.so.8",), ""),
    ("libogg", "1.1.4", CATEGORY_MISC, (), (), ("libogg.so.0",), ""),
    ("libXtst", "1.2.2", CATEGORY_MISC, (), (), ("libXtst.so.6",), ""),
    ("rhino", "1.7", CATEGORY_MISC, ("java-1.7.0-openjdk", "jline"), ("rhino",), (), ""),
    ("jpackage-utils", "1.7.5", CATEGORY_MISC, (), (), (), ""),
    ("jline", "0.9.94", CATEGORY_MISC, ("java-1.7.0-openjdk",), (), (), ""),
    ("tzdata-java", "2015a", CATEGORY_MISC, (), (), (), ""),
    ("wxBase", "2.8.12", CATEGORY_MISC, (), (), ("libwx_baseu-2.8.so.0",), ""),
    ("wxGTK", "2.8.12", CATEGORY_MISC, ("wxBase",), (), ("libwx_gtk2u_core-2.8.so.0",), ""),
    ("wxGTK-devel", "2.8.12", CATEGORY_MISC, ("wxGTK",), ("wx-config",), (), ""),
    ("xorg-x11-fonts-Type1", "7.2", CATEGORY_MISC, ("xorg-x11-fonts-utils",), (), (), ""),
    ("xorg-x11-fonts-utils", "7.2", CATEGORY_MISC, (), ("mkfontdir",), (), ""),
    # --- Scheduler and Resource Manager ---------------------------------------------
    ("torque", "4.2.10", CATEGORY_SCHEDULER, (), ("qsub", "qstat", "qdel", "pbsnodes"), (), ""),
    ("maui", "3.3.1", CATEGORY_SCHEDULER, ("torque",), ("showq", "checkjob"), (), ""),
    # --- XSEDE Tools ---------------------------------------------------------------
    ("globus-connect-server", "2.0.30", CATEGORY_XSEDE, (), ("globus-connect-server-setup", "globus-url-copy"), (), ""),
    ("genesis2", "2.7.1", CATEGORY_XSEDE, ("java-1.7.0-openjdk",), ("grid",), (), ""),
    ("gffs", "2.7.1", CATEGORY_XSEDE, ("genesis2",), ("gffs-ls",), (), ""),
]


#: Daemons registered by catalogue packages at install time (the real RPMs
#: drop init scripts; yum does not start them — the admin enables/boots).
_SERVICES: dict[str, tuple[str, ...]] = {
    "torque": ("pbs_server", "pbs_mom"),
    "maui": ("maui",),
    "globus-connect-server": ("gridftp",),
}


def _parse_req(text: str) -> Requirement:
    for op in (">=", "<=", "=", ">", "<"):
        if op in text:
            name, _, ver = text.partition(op)
            return Requirement(name.strip(), Flag(op), ver.strip())
    return Requirement(text.strip())


def _expand(
    spec: tuple[str, str, str, tuple[str, ...], tuple[str, ...], tuple[str, ...], str],
) -> Package:
    name, version, category, requires, commands, libraries, module = spec
    return Package(
        name=name,
        version=version,
        category=category,
        summary=f"{name} (XSEDE run-alike build)",
        requires=tuple(_parse_req(r) for r in requires),
        commands=commands,
        libraries=libraries,
        services=_SERVICES.get(name, ()),
        modulefile=module,
        # XSEDE convention: application trees under /opt/<name>
        files=(f"/opt/{name}/.keep",) if module else (),
    )


#: The catalogue, expanded once at import; a ``Package`` is frozen, so every
#: caller can share these objects.
_CATALOGUE: tuple[Package, ...] = tuple(_expand(spec) for spec in _SPECS)


def xsede_packages() -> list[Package]:
    """Every Table 2 package as a built RPM (release 1)."""
    return list(_CATALOGUE)


def xsede_package_names() -> list[str]:
    """Catalogue names, table order."""
    return [spec[0] for spec in _SPECS]


def packages_by_category() -> dict[str, list[Package]]:
    """The catalogue grouped the way Table 2 prints it."""
    grouped: dict[str, list[Package]] = {c: [] for c in TABLE2_CATEGORIES}
    for pkg in xsede_packages():
        grouped[pkg.category].append(pkg)
    return grouped


#: Software XNIT carries beyond the basic XCBC build ("XNIT also includes
#: software not included in the basic XCBC build ... increased over time in
#: response to community requests", Section 1).
XNIT_EXTRAS: list[tuple[str, str, tuple[str, ...], tuple[str, ...], str]] = [
    # (name, version, requires, commands, module)
    ("paraview", "4.1.0", ("openmpi",), ("pvserver", "pvbatch"), "paraview/4.1.0"),
    ("visit", "2.7.3", ("openmpi",), ("visit",), "visit/2.7.3"),
    ("scipy", "0.14.0", ("numpy",), (), ""),
    ("ipython", "2.3.0", ("python",), ("ipython",), ""),
    ("git", "1.8.2", (), ("git",), ""),
    ("cmake", "2.8.12", (), ("cmake", "ctest"), "cmake/2.8.12"),
    ("swift-lang", "0.95", ("java-1.7.0-openjdk",), ("swift",), ""),
    ("tau", "2.23.1", ("papi", "openmpi"), ("tau_exec", "pprof"), "tau/2.23.1"),
    ("hpctoolkit", "5.3.2", ("papi",), ("hpcrun", "hpcviewer"), ""),
    ("nwchem", "6.5", ("openmpi", "GotoBLAS2"), ("nwchem",), "nwchem/6.5"),
]


def xnit_extra_packages() -> list[Package]:
    """The XNIT-only additions as built RPMs (category 'XNIT Extras')."""
    out = []
    for name, version, requires, commands, module in XNIT_EXTRAS:
        out.append(
            Package(
                name=name,
                version=version,
                category="XNIT Extras",
                summary=f"{name} (XNIT community addition)",
                requires=tuple(_parse_req(r) for r in requires),
                commands=commands,
                modulefile=module,
                files=(f"/opt/{name}/.keep",) if module else (),
            )
        )
    return out

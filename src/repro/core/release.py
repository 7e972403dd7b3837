"""XCBC release history (Section 2).

"There have been two major XSEDE Rocks Rolls released since the 2014
report.  Version 0.0.8 saw a major OS release update from Centos 6.3 to 6.5
and 27 scientific and supporting packages have been added, including
GenomeAnalysisTK, gromacs, mpiblast, and others.  The 0.0.9 release from
November 2014 saw 41 additions, including TrinityRNASeq, R, significant
Java updates, and other scientific and supporting packages."

This module encodes that history executably: each release names its OS
base, its package additions (exactly 27 and 41 — tested), and its version
bumps (the "significant Java updates" are a bump of the base-resident JDK,
which is why java appears in no addition list).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distro.distribution import CENTOS_6_3, CENTOS_6_5, DistroRelease
from ..errors import ReproError
from ..rpm.package import Package
from .packages_xsede import xsede_packages

__all__ = [
    "XcbcRelease",
    "ADDED_IN_0_0_8",
    "ADDED_IN_0_0_9",
    "RELEASES",
    "get_xcbc_release",
    "packages_for_release",
    "CURRENT_RELEASE",
]

#: The 27 additions of 0.0.8 (GenomeAnalysisTK ships as the ``gatk`` RPM).
ADDED_IN_0_0_8: tuple[str, ...] = (
    "gatk", "gromacs", "gromacs-common", "gromacs-libs", "mpiblast",
    "ncbi-blast", "hmmer", "bowtie", "bwa", "Samtools", "BEDTools",
    "SHRiMP", "shrimp", "Abyss", "autodocksuite", "mrbayes",
    "picard-tools", "sratoolkit", "libgtextutils", "sparsehash-devel",
    "boost", "sprng", "sundials", "glpk", "elemental", "espresso-ab",
    "meep",
)

#: The 41 additions of 0.0.9 (TrinityRNASeq ships as the ``trinity`` RPM;
#: the R stack and the wx/gnuplot/java-library supporting set).
ADDED_IN_0_0_9: tuple[str, ...] = (
    "trinity", "R", "R-core", "R-core-devel", "R-devel", "R-java",
    "R-java-devel", "libRmath", "libRmath-devel", "rhino", "jline",
    "jpackage-utils", "tzdata-java", "ant", "scone", "giflib",
    "libesmtp", "libicu", "pulseaudio-libs", "libasyncns", "libsndfile",
    "libvorbis", "flac", "libogg", "libXtst", "wxBase", "wxGTK",
    "wxGTK-devel", "wxBase3", "wxGTK3", "xorg-x11-fonts-Type1",
    "xorg-x11-fonts-utils", "gnuplot", "gnuplot-common", "gd", "libXpm",
    "plplot", "saga", "libmspack", "lua", "valgrind",
)

#: Version bumps per release for packages that predate it (the Java
#: updates the 0.0.9 notes call out).
_VERSION_BY_RELEASE: dict[str, dict[str, str]] = {
    "0.0.7": {"java-1.7.0-openjdk": "1.7.0.55"},
    "0.0.8": {"java-1.7.0-openjdk": "1.7.0.65"},
    "0.0.9": {},  # catalogue versions are the 0.0.9 state
}


@dataclass(frozen=True)
class XcbcRelease:
    """One XSEDE roll release."""

    version: str
    date: str
    os_release: DistroRelease
    added: tuple[str, ...]
    notes: str


RELEASES: tuple[XcbcRelease, ...] = (
    XcbcRelease(
        version="0.0.7",
        date="2014-03",
        os_release=CENTOS_6_3,
        added=(),  # the baseline set; additions are relative to this
        notes="2014 baseline release (XSEDE '14 report)",
    ),
    XcbcRelease(
        version="0.0.8",
        date="2014-07",
        os_release=CENTOS_6_5,
        added=ADDED_IN_0_0_8,
        notes="OS update CentOS 6.3 -> 6.5; 27 package additions "
        "(GenomeAnalysisTK, gromacs, mpiblast, ...)",
    ),
    XcbcRelease(
        version="0.0.9",
        date="2014-11",
        os_release=CENTOS_6_5,
        added=ADDED_IN_0_0_9,
        notes="41 additions (TrinityRNASeq, R, significant Java updates, ...)",
    ),
)

#: The paper describes 0.0.9 contents as "the current XCBC release (0.9)".
CURRENT_RELEASE = RELEASES[-1]


def get_xcbc_release(version: str) -> XcbcRelease:
    """Look up a release by version string."""
    for release in RELEASES:
        if release.version == version:
            return release
    known = ", ".join(r.version for r in RELEASES)
    raise ReproError(f"unknown XCBC release {version!r}; known: {known}")



def packages_for_release(version: str) -> list[Package]:
    """The full catalogue as of a release.

    Membership is cumulative (a release carries everything previous ones
    did plus its additions); versions reflect any per-release overrides, so
    diffing two releases' outputs shows both additions and updates.
    """
    release = get_xcbc_release(version)
    index = RELEASES.index(release)
    removed_later: set[str] = set()
    for later in RELEASES[index + 1 :]:
        removed_later.update(later.added)
    overrides = _VERSION_BY_RELEASE[version]
    out: list[Package] = []
    for pkg in xsede_packages():
        if pkg.name in removed_later:
            continue  # not yet added as of this release
        if pkg.name in overrides:
            pkg = Package(
                name=pkg.name,
                version=overrides[pkg.name],
                release=pkg.release,
                category=pkg.category,
                summary=pkg.summary,
                requires=pkg.requires,
                commands=pkg.commands,
                libraries=pkg.libraries,
                modulefile=pkg.modulefile,
                files=pkg.files,
            )
        out.append(pkg)
    return out

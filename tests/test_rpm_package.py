"""Package model tests: capabilities, conflicts, obsoletes, spec round-trip."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import RpmError
from repro.rpm import (
    Capability,
    Flag,
    Package,
    Requirement,
    build_spec,
    parse_spec,
)
from repro.rpm.version import EVR


def pkg(name="demo", version="1.0", **kw):
    return Package(name=name, version=version, **kw)


class TestIdentity:
    def test_nevra_without_epoch(self):
        assert pkg("gromacs", "4.6.5", release="2").nevra == "gromacs-4.6.5-2.x86_64"

    def test_nevra_with_epoch(self):
        assert pkg("openssl", "1.0.1", epoch=1).nevra == "openssl-1:1.0.1-1.x86_64"

    def test_empty_name_rejected(self):
        with pytest.raises(RpmError):
            Package(name="", version="1.0")

    def test_empty_version_rejected(self):
        with pytest.raises(RpmError):
            Package(name="x", version="")

    def test_is_newer_than(self):
        assert pkg(version="2.0").is_newer_than(pkg(version="1.9"))
        with pytest.raises(RpmError):
            pkg("a").is_newer_than(pkg("b"))



def _warm(p):
    """Touch every once-per-instance derived value."""
    return p.evr, p.evr_string, p.nevra, p._all_provides, p.satisfies(Requirement(p.name))


class TestDerivedIdentityIsCachedSafely:
    """evr / evr_string / nevra / the provides list are computed once and kept
    on the instance — outside the dataclass fields, so nothing that works on
    fields (``==``, ``hash``, ``repr``, ``replace``) can see or carry them."""

    BASE = dict(name="openmpi", version="1.6.5", release="2", epoch=1,
                provides=(Capability("mpi-impl", "1.6"),))

    def test_computed_once(self):
        p = Package(**self.BASE)
        assert p.evr is p.evr
        assert p.nevra is p.nevra
        assert p._all_provides is p._all_provides

    def test_replace_recomputes_every_derived_value(self):
        p = Package(**self.BASE)
        _warm(p)
        q = dataclasses.replace(
            p, version="1.8.1", release="1", epoch=0,
            provides=(Capability("mpi-impl", "1.8"),),
        )
        assert q.evr == EVR(0, "1.8.1", "1") and q.evr_string == "1.8.1-1"
        assert q.nevra == "openmpi-1.8.1-1.x86_64"
        assert q._all_provides == (
            Capability("openmpi", "1.8.1-1"), Capability("mpi-impl", "1.8"),
        )
        assert q.satisfies(Requirement("mpi-impl", Flag.GE, "1.8"))
        assert not p.satisfies(Requirement("mpi-impl", Flag.GE, "1.8"))
        assert p.nevra == "openmpi-1:1.6.5-2.x86_64"  # the original is untouched

    def test_equality_hash_and_repr_ignore_warm_caches(self):
        cold, warm = Package(**self.BASE), Package(**self.BASE)
        cold_repr = repr(cold)
        _warm(warm)
        assert cold == warm and warm == cold and warm == dataclasses.replace(warm)
        assert hash(cold) == hash(warm)
        assert len({cold, warm}) == 1
        assert repr(warm) == cold_repr
        assert "evr" not in repr(warm) and "nevra" not in repr(warm)
        assert {f.name for f in dataclasses.fields(warm)} == {
            f.name for f in dataclasses.fields(cold)
        }

    @pytest.mark.parametrize("warm_first", [False, True])
    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_pickle_and_deepcopy_round_trip(self, clone, warm_first):
        p = Package(**self.BASE, requires=(Requirement("glibc"),))
        if warm_first:
            _warm(p)
        q = clone(p)
        assert q == p and q is not p and hash(q) == hash(p)
        assert _warm(q) == _warm(p)
        for req in (
            Requirement("openmpi", Flag.EQ, "1:1.6.5"),
            Requirement("openmpi", Flag.GE, "2.0"),
            Requirement("mpi-impl", Flag.LT, "1.7"),
            Requirement("slurm"),
        ):
            assert q.satisfies(req) == p.satisfies(req)

class TestCapabilities:
    def test_implicit_self_provide(self):
        p = pkg("fftw", "3.3.3")
        assert p.satisfies(Requirement("fftw"))
        assert p.satisfies(Requirement("fftw", Flag.GE, "3.0"))
        assert not p.satisfies(Requirement("fftw", Flag.GE, "3.4"))

    def test_explicit_provides(self):
        p = pkg("gnu-make", provides=(Capability("make-engine", "3.81"),))
        assert p.satisfies(Requirement("make-engine", Flag.EQ, "3.81"))
        assert p.satisfies(Requirement("make-engine"))

    def test_unversioned_provide_matches_versioned_requirement(self):
        p = pkg("mta", provides=(Capability("smtp-daemon"),))
        assert p.satisfies(Requirement("smtp-daemon", Flag.GE, "2.0"))

    @pytest.mark.parametrize(
        "flag, version, expected",
        [
            (Flag.EQ, "1.0", True),
            (Flag.LT, "1.1", True),
            (Flag.LT, "1.0", False),
            (Flag.LE, "1.0", True),
            (Flag.GT, "0.9", True),
            (Flag.GT, "1.0", False),
            (Flag.GE, "1.0", True),
        ],
    )
    def test_all_comparison_flags(self, flag, version, expected):
        p = pkg(version="1.0")
        assert p.satisfies(Requirement("demo", flag, version)) is expected

    def test_requirement_flag_version_consistency(self):
        with pytest.raises(RpmError):
            Requirement("x", Flag.GE, "")
        with pytest.raises(RpmError):
            Requirement("x", Flag.ANY, "1.0")


class TestConflictsObsoletes:
    def test_mutual_conflict_detection(self):
        torque = pkg("torque", conflicts=(Requirement("slurm"),))
        slurm = pkg("slurm")
        assert torque.conflicts_with(slurm)
        assert slurm.conflicts_with(torque)  # symmetric check

    def test_versioned_conflict(self):
        a = pkg("a", conflicts=(Requirement("b", Flag.LT, "2.0"),))
        assert a.conflicts_with(pkg("b", "1.9"))
        assert not a.conflicts_with(pkg("b", "2.0"))

    def test_obsoletes_by_name_and_version(self):
        new = pkg("gromacs5", obsoletes=(Requirement("gromacs", Flag.LT, "5.0"),))
        assert new.obsoletes_package(pkg("gromacs", "4.6.5"))
        assert not new.obsoletes_package(pkg("gromacs", "5.0.1"))


class TestPayload:
    def test_default_paths(self):
        p = pkg(
            "gromacs",
            commands=("mdrun",),
            libraries=("libgmx.so.8",),
            files=("/opt/gromacs/.keep",),
        )
        assert "/usr/bin/mdrun" in p.default_paths()
        assert "/usr/lib64/libgmx.so.8" in p.default_paths()
        assert "/opt/gromacs/.keep" in p.default_paths()


class TestSpecDialect:
    SPEC = """\
# molecular dynamics
Name: gromacs
Version: 4.6.5
Release: 2
Summary: Molecular dynamics package
Category: Scientific Applications
Requires: openmpi >= 1.6
Requires: fftw
Provides: gromacs-engine = 4.6.5
Conflicts: gromacs-mpich
Command: mdrun
Library: libgmx.so.8
Module: gromacs/4.6.5
"""

    def test_parse(self):
        p = parse_spec(self.SPEC)
        assert p.nevra == "gromacs-4.6.5-2.x86_64"
        assert Requirement("openmpi", Flag.GE, "1.6") in p.requires
        assert p.modulefile == "gromacs/4.6.5"

    def test_roundtrip(self):
        p = parse_spec(self.SPEC)
        assert parse_spec(build_spec(p)) == p

    def test_unknown_directive_rejected(self):
        with pytest.raises(RpmError, match="unknown directive"):
            parse_spec("Name: x\nVersion: 1\nColour: blue\n")

    def test_missing_name_rejected(self):
        with pytest.raises(RpmError, match="Name and Version"):
            parse_spec("Version: 1.0\n")

    def test_duplicate_field_rejected(self):
        with pytest.raises(RpmError, match="duplicate"):
            parse_spec("Name: x\nName: y\nVersion: 1\n")

    def test_malformed_dependency_rejected(self):
        with pytest.raises(RpmError, match="malformed"):
            parse_spec("Name: x\nVersion: 1\nRequires: a >= \n")

    def test_provides_with_range_rejected(self):
        with pytest.raises(RpmError, match="provides"):
            parse_spec("Name: x\nVersion: 1\nProvides: y >= 2\n")

"""Filesystem-tree tests, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distro import FileKind, Filesystem, normpath, parent_dirs
from repro.errors import FilesystemError


class TestNormpath:
    def test_collapses_doubles_and_dots(self):
        assert normpath("//usr///bin/./gcc") == "/usr/bin/gcc"

    def test_strips_trailing_slash(self):
        assert normpath("/usr/bin/") == "/usr/bin"

    def test_root(self):
        assert normpath("/") == "/"

    def test_relative_rejected(self):
        with pytest.raises(FilesystemError):
            normpath("usr/bin")

    def test_dotdot_rejected(self):
        with pytest.raises(FilesystemError):
            normpath("/usr/../etc")

    def test_parent_dirs(self):
        assert list(parent_dirs("/usr/lib64/libm.so")) == ["/usr", "/usr/lib64"]


class TestFilesystemBasics:
    def test_write_creates_ancestors(self):
        fs = Filesystem()
        fs.write("/opt/gromacs/bin/mdrun", "x", mode=0o755)
        assert fs.is_dir("/opt/gromacs/bin")
        assert fs.get("/opt/gromacs/bin/mdrun").executable

    def test_read_back(self):
        fs = Filesystem()
        fs.write("/etc/motd", "welcome")
        assert fs.read("/etc/motd") == "welcome"

    def test_read_missing_raises(self):
        fs = Filesystem()
        with pytest.raises(FilesystemError, match="no such file"):
            fs.read("/etc/motd")

    def test_write_over_directory_rejected(self):
        fs = Filesystem()
        fs.mkdir("/etc", exist_ok=True)
        with pytest.raises(FilesystemError, match="directory"):
            fs.write("/etc", "nope")

    def test_mkdir_exist_ok_semantics(self):
        fs = Filesystem()
        fs.mkdir("/var/log")
        with pytest.raises(FilesystemError):
            fs.mkdir("/var/log")
        fs.mkdir("/var/log", exist_ok=True)

    def test_listdir_immediate_children_only(self):
        fs = Filesystem()
        fs.write("/usr/bin/gcc", "")
        fs.write("/usr/lib64/libc.so", "")
        fs.write("/usr/bin/tools/extra", "")
        assert fs.listdir("/usr") == ["bin", "lib64"]
        assert fs.listdir("/usr/bin") == ["gcc", "tools"]

    def test_listdir_on_file_rejected(self):
        fs = Filesystem()
        fs.write("/a", "")
        with pytest.raises(FilesystemError, match="not a directory"):
            fs.listdir("/a")

    def test_symlink_resolution_on_read(self):
        fs = Filesystem()
        fs.write("/usr/bin/python2.7", "interp", mode=0o755)
        fs.symlink("/usr/bin/python", "/usr/bin/python2.7")
        assert fs.read("/usr/bin/python") == "interp"

    def test_symlink_over_existing_rejected(self):
        fs = Filesystem()
        fs.write("/a", "")
        with pytest.raises(FilesystemError):
            fs.symlink("/a", "/b")

    def test_symlink_under_a_file_rejected(self):
        fs = Filesystem()
        fs.write("/etc/f", "x")
        with pytest.raises(FilesystemError, match="ancestor is not a directory"):
            fs.symlink("/etc/f/link", "/usr/bin/x")
        assert fs.get("/etc/f").kind is FileKind.FILE
        assert not fs.exists("/etc/f/link")

    def test_remove_nonempty_dir_rejected(self):
        fs = Filesystem()
        fs.write("/opt/app/file", "")
        with pytest.raises(FilesystemError, match="not empty"):
            fs.remove("/opt/app")

    def test_remove_root_rejected(self):
        fs = Filesystem()
        with pytest.raises(FilesystemError):
            fs.remove("/")


class TestOwnership:
    def test_owned_by_lists_package_paths(self):
        fs = Filesystem()
        fs.write("/usr/bin/gcc", "", owner="gcc")
        fs.write("/usr/bin/g++", "", owner="gcc")
        fs.write("/usr/bin/ls", "", owner="coreutils")
        assert fs.owned_by("gcc") == ["/usr/bin/g++", "/usr/bin/gcc"]

    def test_remove_owned_spares_shared_directories(self):
        fs = Filesystem()
        fs.mkdir("/opt/shared", owner="a")
        fs.write("/opt/shared/a-file", "", owner="a")
        fs.write("/opt/shared/b-file", "", owner="b")
        fs.remove_owned("a")
        assert not fs.exists("/opt/shared/a-file")
        assert fs.exists("/opt/shared/b-file")
        assert fs.is_dir("/opt/shared")  # still needed by b

    def test_remove_owned_removes_empty_owned_dirs(self):
        fs = Filesystem()
        fs.mkdir("/opt/solo", owner="a")
        fs.write("/opt/solo/f", "", owner="a")
        removed = fs.remove_owned("a")
        assert removed == 2
        assert not fs.exists("/opt/solo")


# --- property-based invariants --------------------------------------------------

path_segments = st.lists(
    st.text(alphabet="abcdefgh123", min_size=1, max_size=6), min_size=1, max_size=4
)


@given(path_segments)
@settings(max_examples=60)
def test_normpath_idempotent(segments):
    path = "/" + "/".join(segments)
    assert normpath(normpath(path)) == normpath(path)


@given(path_segments)
@settings(max_examples=60)
def test_write_then_ancestors_are_dirs(segments):
    fs = Filesystem()
    path = "/" + "/".join(segments)
    fs.write(path, "content")
    for ancestor in parent_dirs(path):
        assert fs.is_dir(ancestor)
    assert fs.read(path) == "content"


@given(st.lists(path_segments, min_size=1, max_size=6))
@settings(max_examples=40)
def test_remove_owned_leaves_no_orphans(path_lists):
    """After erasing a package's files, no node owned by it remains and the
    tree still satisfies every-ancestor-is-a-directory."""
    fs = Filesystem()
    for i, segments in enumerate(path_lists):
        owner = "pkg-a" if i % 2 == 0 else "pkg-b"
        path = "/files/" + "/".join(segments)
        try:
            fs.write(path, "", owner=owner)
        except FilesystemError:
            continue  # generated path collides with an existing file/dir
    fs.remove_owned("pkg-a")
    assert fs.owned_by("pkg-a") == []
    for node in fs.walk():
        for ancestor in parent_dirs(node.path):
            assert fs.is_dir(ancestor)

"""ClusterShell tests: the training-facing command-line surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import ClusterShell, ShellResult
from repro.core import build_xcbc_cluster, build_xnit_repository
from repro.hardware import build_littlefe_modified
from repro.scheduler import ClusterResources, MauiScheduler


@pytest.fixture
def shell(xcbc_littlefe):
    cluster = xcbc_littlefe.cluster
    return ClusterShell(
        cluster,
        scheduler=MauiScheduler(ClusterResources(cluster.machine)),
        repositories={"xsede": build_xnit_repository()},
    )


class TestBasics:
    def test_hostname(self, shell):
        assert shell.run("hostname").output == "littlefe-iu-n0"

    def test_ssh_hops_between_nodes(self, shell):
        assert shell.run("ssh compute-0-0").ok
        assert shell.run("hostname").output == "compute-0-0"
        assert not shell.run("ssh nonexistent-host").ok

    def test_which_and_cat(self, shell):
        assert shell.run("which mdrun").output == "/usr/bin/mdrun"
        assert shell.run("cat /etc/redhat-release").output.strip() == "CentOS 6.5"

    def test_unknown_command_fails_like_bash(self, shell):
        result = shell.run("frobnicate --now")
        assert not result.ok
        assert "command not found" in result.output

    def test_history_records_everything(self, shell):
        shell.run("hostname")
        shell.run("bogus")
        assert len(shell.history) == 2
        assert shell.history[0].ok and not shell.history[1].ok

    def test_empty_command_rejected(self, shell):
        from repro.errors import CommandError

        with pytest.raises(CommandError):
            shell.run("   ")


class TestRpmYum:
    def test_rpm_q(self, shell):
        assert shell.run("rpm -q gromacs").output.startswith("gromacs-4.6.5")
        assert not shell.run("rpm -q nonexistent").ok

    def test_rpm_qa_lists_everything(self, shell):
        output = shell.run("rpm -qa").output
        assert "gromacs-4.6.5-1.x86_64" in output
        assert len(output.splitlines()) > 100

    def test_yum_repolist(self, shell):
        output = shell.run("yum repolist").output
        assert "xsede" in output

    def test_yum_install_extra(self, shell):
        result = shell.run("yum install tau")
        assert result.ok and "Complete!" in result.output
        assert shell.run("rpm -q tau").ok

    def test_yum_check_update_quiet_when_current(self, shell):
        assert shell.run("yum check-update").output == ""

    def test_yum_bad_verb(self, shell):
        assert not shell.run("yum frobnicate").ok


class TestRocksModuleBatch:
    def test_rocks_list_host(self, shell):
        output = shell.run("rocks list host").output
        assert "compute-0-4" in output
        assert "frontend" in output

    def test_rocks_list_roll(self, shell):
        output = shell.run("rocks list roll").output
        assert "xsede" in output and "base" in output

    def test_module_cycle(self, shell):
        assert "openmpi/1.6.4" in shell.run("module avail").output
        assert shell.run("module load openmpi/1.6.4").ok
        assert "openmpi/1.6.4" in shell.run("module list").output
        assert shell.run("module unload openmpi").ok
        assert "No Modulefiles" in shell.run("module list").output

    def test_qsub_qstat(self, shell):
        result = shell.run("qsub -N test-job -u alice -c 4 -t 30 -w 600")
        assert result.ok
        assert "." in result.output  # job-id.frontend format
        qstat = shell.run("qstat").output
        assert "test-job" in qstat and "R" in qstat

    def test_qsub_without_scheduler_fails(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        assert not shell.run("qsub -N x").ok

    def test_module_on_compute_node_too(self, shell):
        # the run-alike surface is per-node: module state on compute-0-1 is
        # independent of the frontend session
        shell.run("ssh compute-0-1")
        assert shell.run("module load gromacs/4.6.5").ok
        assert "gromacs/4.6.5" in shell.run("module list").output
        shell.run("ssh littlefe-iu-n0")
        assert "No Modulefiles" in shell.run("module list").output

    def test_useradd(self, shell):
        result = shell.run("useradd student1")
        assert result.ok and "uid" in result.output
        assert shell.cluster.frontend.users.has_user("student1")

    def test_df_shows_root(self, shell):
        assert "/dev/sda1" in shell.run("df").output


class TestBadInput:
    """A typed line either runs or is a failed result; it never raises."""

    #: every verb the shell dispatches, plus one it does not
    VERBS = sorted(
        name[len("_cmd_"):].replace("_", "-")
        for name in vars(ClusterShell) if name.startswith("_cmd_")
    ) + ["frobnicate"]
    WORDS = [
        "-w", "-f", "-t", "-c", "-N", "-u", "-b", "-q", "-qa", "--fold",
        "--json", "--fail-on", "install", "update", "list", "host", "load",
        "compute-0-[0-1]", "hostname", "gromacs",
        # non-numeric and non-finite values for the numeric flags
        "abc", "nan", "inf", "-inf", "1e999", "0", "-1", "4",
        # quoting, closed and unterminated
        "'", '"', "\\", "'a b'", '"a b"', "a'b",
    ]

    @pytest.fixture(scope="class")
    def own_shell(self):
        # its own cluster: the drawn lines install, submit and add users
        cluster = build_xcbc_cluster(build_littlefe_modified().machine).cluster
        return ClusterShell(
            cluster,
            scheduler=MauiScheduler(ClusterResources(cluster.machine)),
            repositories={"xsede": build_xnit_repository()},
        )

    @pytest.mark.parametrize("line", [
        'echo "unterminated', "clush -f abc -w compute-0-0 hostname",
        "clush -t x -w compute-0-0 hostname", "qsub -c abc",
        "clush -t nan -w compute-0-0 hostname", "qsub -t nan -w inf",
    ])
    def test_reported_crashes_are_failed_results(self, own_shell, line):
        result = own_shell.run(line)
        assert not result.ok and result.output

    @settings(max_examples=150, deadline=None)
    @given(
        verb=st.sampled_from(VERBS),
        words=st.lists(st.sampled_from(WORDS), max_size=6),
    )
    def test_property_every_line_returns_a_result(self, own_shell, verb, words):
        line = " ".join([verb, *words])
        assert isinstance(own_shell.run(line), ShellResult)

"""cluster-lint command-line tests: file loading, formats, flags, exit codes."""

import io
import json
import textwrap

import pytest

from repro.analyze.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main


BROKEN = textwrap.dedent(
    """
    from repro.analyze import ClusterDefinition
    from repro.network.dhcp import DhcpPlan

    def cluster_definition():
        return ClusterDefinition(
            name="busted",
            dhcp_plan=DhcpPlan(pool_start=40, pool_end=20),
        )
    """
)

CLEAN = textwrap.dedent(
    """
    from repro.analyze import ClusterDefinition
    from repro.network.dhcp import DhcpPlan

    def cluster_definition():
        return ClusterDefinition(name="fine", dhcp_plan=DhcpPlan())
    """
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken_def.py"
    path.write_text(BROKEN)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean_def.py"
    path.write_text(CLEAN)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, clean_file):
        code, output = run_cli(clean_file)
        assert code == EXIT_CLEAN
        assert "0 error(s)" in output

    def test_error_finding_exits_one(self, broken_file):
        code, output = run_cli(broken_file)
        assert code == EXIT_FINDINGS
        assert "NET404" in output

    def test_fail_on_never_reports_but_passes(self, broken_file):
        code, output = run_cli(broken_file, "--fail-on", "never")
        assert code == EXIT_CLEAN
        assert "NET404" in output

    def test_missing_file_is_usage_error(self):
        code, output = run_cli("does/not/exist.py")
        assert code == EXIT_USAGE

    def test_no_files_is_usage_error(self):
        code, output = run_cli()
        assert code == EXIT_USAGE

    def test_unknown_rule_code_is_usage_error(self, clean_file):
        code, output = run_cli(clean_file, "--only", "XX000")
        assert code == EXIT_USAGE
        assert "XX000" in output

    def test_file_without_definition_is_usage_error(self, tmp_path):
        path = tmp_path / "plain.py"
        path.write_text("x = 1\n")
        code, output = run_cli(str(path))
        assert code == EXIT_USAGE
        assert "neither" in output


class TestFlags:
    def test_json_format(self, broken_file):
        code, output = run_cli(broken_file, "--format", "json")
        assert code == EXIT_FINDINGS
        doc = json.loads(output)
        assert doc["schema"] == "repro.analyze.run/v1"
        assert doc["results"][0]["counts"]["error"] == 1

    def test_disable_silences_rule(self, broken_file):
        code, output = run_cli(broken_file, "--disable", "NET404")
        assert code == EXIT_CLEAN

    def test_only_narrows_rules(self, broken_file):
        code, output = run_cli(broken_file, "--only", "KS101")
        assert code == EXIT_CLEAN

    def test_list_rules(self):
        code, output = run_cli("--list-rules")
        assert code == EXIT_CLEAN
        for expected in ("KS101", "RC202", "RPM301", "NET401", "SCH501",
                         "HW601", "TX705"):
            assert expected in output

    def test_module_definition_object(self, tmp_path):
        path = tmp_path / "obj_def.py"
        path.write_text(textwrap.dedent(
            """
            from repro.analyze import ClusterDefinition
            DEFINITION = ClusterDefinition(name="by-object")
            """
        ))
        code, output = run_cli(str(path))
        assert code == EXIT_CLEAN
        assert "by-object" in output


class TestBaselineWorkflow:
    def test_write_then_apply(self, tmp_path, broken_file):
        baseline = tmp_path / "baseline.json"
        code, output = run_cli(broken_file, "--write-baseline", str(baseline))
        assert code == EXIT_CLEAN
        assert "1 suppression(s)" in output

        code, output = run_cli(broken_file, "--baseline", str(baseline))
        assert code == EXIT_CLEAN
        assert "1 baseline-suppressed" in output

    def test_bad_baseline_is_usage_error(self, tmp_path, broken_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, output = run_cli(broken_file, "--baseline", str(bad))
        assert code == EXIT_USAGE

    def test_baseline_does_not_hide_new_findings(self, tmp_path, broken_file):
        baseline = tmp_path / "baseline.json"
        run_cli(broken_file, "--write-baseline", str(baseline))
        # A different definition (new location) must still fail.
        other = tmp_path / "other_def.py"
        other.write_text(BROKEN.replace('"10.1.1"', '"10.9.9"').replace(
            'name="busted"', 'name="other"'
        ))
        # same fingerprint shape but force a new finding location by a
        # different network prefix
        other.write_text(textwrap.dedent(
            """
            from repro.analyze import ClusterDefinition
            from repro.network.dhcp import DhcpPlan

            def cluster_definition():
                return ClusterDefinition(
                    name="other",
                    dhcp_plan=DhcpPlan(
                        network_prefix="10.9.9", pool_start=40, pool_end=20
                    ),
                )
            """
        ))
        code, _ = run_cli(str(other), "--baseline", str(baseline))
        assert code == EXIT_FINDINGS

    def test_python_dash_m_entry_point(self, broken_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.analyze", broken_file],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "NET404" in proc.stdout

    def test_stale_entry_warns_on_load(self, tmp_path, broken_file):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "schema": "repro.analyze.baseline/v1",
            "suppressions": [
                {"fingerprint": "ZZ999@old.py:3", "reason": "retired rule"},
            ],
        }))
        code, output = run_cli(broken_file, "--baseline", str(stale))
        assert code == EXIT_FINDINGS  # NET404 still gates
        assert "ZZ999@old.py:3" in output
        assert "stale" in output

    def test_prune_baseline_drops_stale_keeps_live(self, tmp_path, broken_file):
        baseline = tmp_path / "baseline.json"
        run_cli(broken_file, "--write-baseline", str(baseline))
        doc = json.loads(baseline.read_text())
        doc["suppressions"].append(
            {"fingerprint": "ZZ999@old.py:3", "reason": "retired rule"}
        )
        baseline.write_text(json.dumps(doc))

        code, output = run_cli(
            broken_file, "--baseline", str(baseline), "--prune-baseline"
        )
        assert code == EXIT_CLEAN  # the live suppression still applies
        assert "pruned 1 stale suppression(s)" in output
        pruned = json.loads(baseline.read_text())
        fingerprints = [s["fingerprint"] for s in pruned["suppressions"]]
        assert "ZZ999@old.py:3" not in fingerprints
        assert len(fingerprints) == 1

    def test_prune_baseline_without_baseline_is_usage_error(self, broken_file):
        code, output = run_cli(broken_file, "--prune-baseline")
        assert code == EXIT_USAGE

"""simlint tests: the SL source rules, fixture corpus, config, and CLI.

Every rule is exercised both ways — a known-bad fixture it must flag and a
near-miss it must stay silent on (tests/fixtures/simlint/).  The corpus is
the contract: a rule change that starts flagging the near-miss (or stops
flagging the bad shape) fails here before it pollutes CI.
"""

import io
import json
import pathlib
import subprocess
import sys

import pytest

from repro.analyze.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main, main_simlint
from repro.analyze.diagnostic import Severity
from repro.analyze.passes.source_traceorder import check_trace
from repro.analyze.registry import RULES, AnalysisConfig, Baseline
from repro.analyze.source import SimlintConfig, analyze_source, iter_source_files

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures" / "simlint"

#: Everything-gates config so WARNING rules (SL301) show up in exit codes.
ALL = AnalysisConfig(fail_on=Severity.INFO)


def codes_for(path, config=ALL, **kwargs):
    result = analyze_source([path], config=config, **kwargs)
    return sorted({d.code for d in result.diagnostics})


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# fixture corpus: every rule fires on its bad shape, stays silent on the
# near-miss


BAD_FIXTURES = [
    ("bad_syntax.py", "SL000"),
    ("bad_wallclock.py", "SL101"),
    ("bad_random.py", "SL102"),
    ("bad_env.py", "SL103"),
    ("bad_unordered_trace.py", "SL104"),
    ("bad_epoch_skip.py", "SL201"),
    ("bad_memo.py", "SL202"),
    ("bad_same_time.py", "SL301"),
]

OK_FIXTURES = [
    "ok_syntax.py",
    "ok_wallclock.py",
    "ok_random.py",
    "ok_env.py",
    "ok_unordered_trace.py",
    "ok_epoch_skip.py",
    "ok_memo.py",
    "ok_same_time.py",
]


class TestFixtureCorpus:
    @pytest.mark.parametrize("name,code", BAD_FIXTURES)
    def test_bad_fixture_fires_exactly_its_rule(self, name, code):
        assert codes_for(FIXTURES / name) == [code]

    @pytest.mark.parametrize("name", OK_FIXTURES)
    def test_near_miss_stays_silent(self, name):
        assert codes_for(FIXTURES / name) == []

    def test_every_sl_rule_is_covered_by_the_corpus(self):
        sl_rules = {c for c in RULES.codes() if c.startswith("SL")}
        dynamic = {"SL302", "SL303"}  # exercised via trace fixtures below
        covered = {code for _name, code in BAD_FIXTURES}
        assert sl_rules - dynamic == covered

    def test_wallclock_sites_are_individually_reported(self):
        result = analyze_source([FIXTURES / "bad_wallclock.py"], config=ALL)
        # time.time, aliased perf_counter, datetime.now
        assert len(result.diagnostics) == 3

    def test_unordered_trace_flags_all_four_flows(self):
        # set literal, set() call, set-typed attribute, helper summary
        result = analyze_source(
            [FIXTURES / "bad_unordered_trace.py"], config=ALL
        )
        assert len(result.diagnostics) == 4

    def test_epoch_skip_names_the_field_and_method(self):
        result = analyze_source([FIXTURES / "bad_epoch_skip.py"], config=ALL)
        messages = [d.message for d in result.diagnostics]
        assert any("sneaky_remove" in m and "_by_name" in m for m in messages)
        assert any("maybe_install" in m for m in messages)


# ---------------------------------------------------------------------------
# the dynamic trace checks (SL302/SL303)


class TestCheckTrace:
    def read(self, name):
        return (FIXTURES / name).read_text()

    def test_canonical_trace_is_clean(self):
        assert check_trace(self.read("trace_good.jsonl")) == []

    def test_duplicate_seq_is_sl303(self):
        diags = check_trace(self.read("trace_bad_dup_seq.jsonl"))
        assert [d.code for d in diags] == ["SL303"]

    def test_non_canonical_serialisation_is_sl302(self):
        diags = check_trace(self.read("trace_bad_noncanonical.jsonl"))
        assert [d.code for d in diags] == ["SL302"]

    def test_missing_envelope_field_is_sl303(self):
        diags = check_trace(self.read("trace_bad_envelope.jsonl"))
        assert [d.code for d in diags] == ["SL303"]

    def test_invalid_json_is_sl303(self):
        diags = check_trace('{"seq": 0, "t": 1.0}\nnot json\n')
        assert [d.code for d in diags] == ["SL303"]

    def test_real_kernel_trace_survives_permutation(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel(seed=7)
        for i in range(3):
            kernel.at(
                1.0,
                lambda i=i: kernel.trace.emit(
                    "job.submit", t_s=kernel.now_s, subsystem="sched",
                    job=f"j{i}", user="u", cores=1,
                ),
            )
        kernel.at(
            2.0,
            lambda: kernel.trace.emit(
                "job.submit", t_s=kernel.now_s, subsystem="sched",
                job="late", user="u", cores=2,
            ),
        )
        kernel.run()
        assert check_trace(kernel.trace.to_jsonl()) == []


# ---------------------------------------------------------------------------
# [tool.simlint] configuration


class TestSimlintConfig:
    def test_from_pyproject_reads_per_path_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.simlint.per-path]\n"pkg/bench/*" = ["SL101"]\n'
        )
        config = SimlintConfig.from_pyproject(pyproject)
        assert config.disabled_for("pkg/bench/timer.py") == {"SL101"}
        assert config.disabled_for("pkg/core/timer.py") == frozenset()

    def test_missing_file_is_empty_config(self, tmp_path):
        config = SimlintConfig.from_pyproject(tmp_path / "absent.toml")
        assert config.per_path == {}

    def test_unknown_rule_code_is_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.simlint.per-path]\n"x/*" = ["ZZ999"]\n')
        with pytest.raises(ValueError, match="ZZ999"):
            SimlintConfig.from_pyproject(pyproject)

    def test_opted_out_rule_is_suppressed_for_matching_path_only(self):
        simlint = SimlintConfig(
            per_path={"**/bad_wallclock.py": frozenset({"SL101"})}
        )
        silenced = codes_for(FIXTURES / "bad_wallclock.py", simlint=simlint)
        still_on = codes_for(FIXTURES / "bad_random.py", simlint=simlint)
        assert silenced == []
        assert still_on == ["SL102"]


# ---------------------------------------------------------------------------
# the tree itself: src/repro lints clean under the shipped configuration
# (and the violations simlint surfaced stay pinned to their pre-opt-out
# shape — satellite regression tests)


class TestSourceTree:
    def test_src_repro_lints_clean_under_shipped_config(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        result = analyze_source(
            ["src/repro"],
            config=ALL,
            simlint=SimlintConfig.from_pyproject("pyproject.toml"),
        )
        assert result.diagnostics == []

    def test_linpack_wallclock_reads_still_fire_without_optout(
        self, monkeypatch
    ):
        # The opt-out documents a *deliberate* violation; this pins the
        # pre-opt-out shape so silently losing the finding (rule decay) or
        # the read itself (benchmark rewrite) both surface here.
        monkeypatch.chdir(ROOT)
        result = analyze_source(["src/repro/linpack/hpl.py"], config=ALL)
        locations = {d.location for d in result.diagnostics}
        assert {d.code for d in result.diagnostics} == {"SL101"}
        assert locations == {
            "src/repro/linpack/hpl.py:58",
            "src/repro/linpack/hpl.py:61",
        }

    def test_iter_source_files_is_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = iter_source_files([tmp_path, tmp_path / "a.py"])
        assert files == [tmp_path / "a.py", tmp_path / "b.py", sub / "c.py"]


# ---------------------------------------------------------------------------
# CLI: --source mode, sarif, --check-trace, baselines


class TestSourceCli:
    def test_source_mode_flags_bad_fixture(self):
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            str(FIXTURES / "bad_wallclock.py"),
        )
        assert code == EXIT_FINDINGS
        assert "SL101" in output

    def test_simlint_entry_point_is_source_mode(self):
        out = io.StringIO()
        code = main_simlint(
            ["--pyproject", "/dev/null", str(FIXTURES / "ok_wallclock.py")],
            stdout=out,
        )
        assert code == EXIT_CLEAN
        assert "simlint" in out.getvalue()

    def test_sarif_format_has_rules_results_and_locations(self):
        code, output = run_cli(
            "--source", "--format", "sarif", "--pyproject", "/dev/null",
            str(FIXTURES / "bad_random.py"),
        )
        assert code == EXIT_FINDINGS
        doc = json.loads(output)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["SL102"]
        first = run["results"][0]
        assert first["ruleId"] == "SL102"
        physical = first["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("bad_random.py")
        assert physical["region"]["startLine"] > 0

    def test_check_trace_gates_on_bad_trace(self):
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            "--check-trace", str(FIXTURES / "trace_bad_dup_seq.jsonl"),
            str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_FINDINGS
        assert "SL303" in output

    def test_check_trace_clean_trace_passes(self):
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            "--check-trace", str(FIXTURES / "trace_good.jsonl"),
            str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_CLEAN

    def test_check_trace_requires_source_mode(self):
        code, output = run_cli("--check-trace", "whatever.jsonl", "x.py")
        assert code == EXIT_USAGE
        assert "--source" in output

    def test_missing_trace_file_is_usage_error(self):
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            "--check-trace", "does/not/exist.jsonl",
            str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_USAGE

    def test_bad_pyproject_config_is_usage_error(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.simlint.per-path]\n"x/*" = ["ZZ999"]\n')
        code, output = run_cli(
            "--source", "--pyproject", str(pyproject),
            str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_USAGE
        assert "ZZ999" in output

    def test_write_then_apply_baseline_in_source_mode(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        bad = str(FIXTURES / "bad_wallclock.py")
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null", bad,
            "--write-baseline", str(baseline),
        )
        assert code == EXIT_CLEAN
        assert "3 suppression(s)" in output

        code, output = run_cli(
            "--source", "--pyproject", "/dev/null", bad,
            "--baseline", str(baseline),
        )
        assert code == EXIT_CLEAN
        assert "3 baseline-suppressed" in output

    def test_default_target_is_src_repro(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        code, output = run_cli("--source")
        assert code == EXIT_CLEAN
        assert "simlint:" in output

    def test_python_dash_m_source_mode(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.analyze", "--source",
                "--pyproject", "/dev/null",
                str(FIXTURES / "bad_env.py"),
            ],
            capture_output=True, text=True, cwd=ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_FINDINGS
        assert "SL103" in proc.stdout


# ---------------------------------------------------------------------------
# stale-baseline handling


class TestStaleBaseline:
    def stale_baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = Baseline(
            suppressions={
                "ZZ999@gone.py:1": "rule retired long ago",
                "SL101@tests/fixtures/simlint/bad_wallclock.py:9": "kept",
            }
        )
        path.write_text(baseline.to_text())
        return path

    def test_stale_fingerprints_detects_retired_codes(self):
        baseline = Baseline(
            suppressions={"ZZ999@x.py:1": "", "SL101@y.py:2": ""}
        )
        assert baseline.stale_fingerprints() == ["ZZ999@x.py:1"]

    def test_cli_warns_on_stale_entry(self, tmp_path):
        path = self.stale_baseline(tmp_path)
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            "--baseline", str(path), str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_CLEAN
        assert "ZZ999@gone.py:1" in output
        assert "stale" in output

    def test_prune_baseline_rewrites_the_file(self, tmp_path):
        path = self.stale_baseline(tmp_path)
        code, output = run_cli(
            "--source", "--pyproject", "/dev/null",
            "--baseline", str(path), "--prune-baseline",
            str(FIXTURES / "ok_syntax.py"),
        )
        assert code == EXIT_CLEAN
        assert "pruned 1 stale suppression(s)" in output
        reloaded = Baseline.from_text(path.read_text())
        assert list(reloaded.suppressions) == [
            "SL101@tests/fixtures/simlint/bad_wallclock.py:9"
        ]

    def test_prune_requires_baseline_flag(self):
        code, output = run_cli(
            "--source", "--prune-baseline", str(FIXTURES / "ok_syntax.py")
        )
        assert code == EXIT_USAGE
        assert "--baseline" in output

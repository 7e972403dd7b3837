"""Engine behaviour: configuration, baselines, ordering, JSON schema, and
the integration points (from_cluster, xcbc_cluster_definition, the shell's
cluster-lint command)."""

import json

import pytest

from repro.analyze import (
    AnalysisConfig,
    Baseline,
    ClusterDefinition,
    Diagnostic,
    RULES,
    Severity,
    analyze,
)
from repro.analyze.engine import ANALYSIS_SCHEMA
from repro.analyze.registry import BASELINE_SCHEMA
from repro.cli import ClusterShell
from repro.errors import ReproError
from repro.core.xcbc import build_xcbc_cluster, xcbc_cluster_definition
from repro.network.dhcp import DhcpPlan
from repro.rocks import GraphNode, KickstartGraph, Profile


def broken_definition():
    """One definition with findings at every severity."""
    g = KickstartGraph()
    g.add_node(GraphNode(Profile.FRONTEND))
    g.add_node(GraphNode(Profile.COMPUTE))
    g.add_node(GraphNode("orphan"))  # KS102 warning
    from repro.yum.repoconfig import RepoStanza

    return ClusterDefinition(
        name="broken",
        graph=g,
        repo_stanzas=(
            RepoStanza(repo_id="x", name="x", baseurl="u"),  # RC204 info
        ),
        dhcp_plan=DhcpPlan(pool_start=40, pool_end=20),  # NET404 error
    )


class TestEngine:
    def test_severity_ordering_in_output(self):
        result = analyze(broken_definition())
        ranks = [d.severity.rank for d in result.diagnostics]
        assert ranks == sorted(ranks)
        assert {d.code for d in result.diagnostics} == {"KS102", "RC204", "NET404"}

    def test_fail_on_threshold(self):
        definition = broken_definition()
        assert analyze(definition).failed  # has an error
        warn_gate = analyze(
            definition, config=AnalysisConfig(fail_on=Severity.WARNING)
        )
        assert warn_gate.failed
        only_info = analyze(
            definition, config=AnalysisConfig(only=frozenset({"RC204"}))
        )
        assert not only_info.failed  # info never trips the default gate

    def test_only_and_disable(self):
        definition = broken_definition()
        only = analyze(definition, config=AnalysisConfig(only=frozenset({"NET404"})))
        assert {d.code for d in only.diagnostics} == {"NET404"}
        disabled = analyze(
            definition, config=AnalysisConfig(disabled=frozenset({"NET404"}))
        )
        assert "NET404" not in {d.code for d in disabled.diagnostics}
        assert "KS102" in {d.code for d in disabled.diagnostics}

    def test_unknown_code_from_pass_raises(self):
        with pytest.raises(KeyError):
            RULES.get("ZZ999")

    def test_baseline_suppression(self):
        definition = broken_definition()
        first = analyze(definition)
        baseline = Baseline()
        for diag in first.diagnostics:
            baseline.add(diag, "seed debt")
        second = analyze(definition, baseline=baseline)
        assert not second.diagnostics
        assert len(second.suppressed) == len(first.diagnostics)
        assert not second.failed

    def test_baseline_round_trip(self):
        diag = Diagnostic(
            code="KS102", severity=Severity.WARNING, message="m",
            location="kickstart:node/orphan",
        )
        baseline = Baseline()
        baseline.add(diag, "known")
        text = baseline.to_text()
        parsed = Baseline.from_text(text)
        assert parsed.suppressions == {"KS102@kickstart:node/orphan": "known"}
        assert json.loads(text)["schema"] == BASELINE_SCHEMA

    def test_baseline_rejects_foreign_schema(self):
        with pytest.raises(ReproError, match="not a baseline"):
            Baseline.from_text('{"schema": "something/else"}')

    @pytest.mark.parametrize(
        "text",
        ["", "not json", "[]", "null", '"x"', "{}",
         json.dumps({"schema": BASELINE_SCHEMA, "suppressions": 5}),
         json.dumps({"schema": BASELINE_SCHEMA, "suppressions": [{}]}),
         json.dumps({"schema": BASELINE_SCHEMA,
                     "suppressions": [{"fingerprint": ["x"]}]})],
    )
    def test_malformed_baseline_raises_repro_error(self, text):
        with pytest.raises(ReproError):
            Baseline.from_text(text)

    def test_json_document_schema(self):
        result = analyze(broken_definition())
        doc = result.to_dict()
        assert doc["schema"] == ANALYSIS_SCHEMA
        assert doc["definition"] == "broken"
        assert set(doc["counts"]) == {"error", "warning", "info", "suppressed"}
        assert doc["counts"]["error"] == 1
        for entry in doc["diagnostics"]:
            assert set(entry) == {
                "code", "severity", "subsystem", "location", "message", "hint"
            }
        json.loads(result.render_json())  # must be valid JSON

    def test_render_text_has_summary_and_hints(self):
        result = analyze(broken_definition())
        text = result.render_text()
        assert text.splitlines()[0].startswith("broken: 1 error(s)")
        assert "hint:" in text

    def test_str_of_diagnostic_is_message_only(self):
        result = analyze(broken_definition())
        for diag in result.diagnostics:
            assert str(diag) == diag.message
            assert diag.code not in str(diag)


class TestRuleCatalogue:
    def test_minimum_breadth(self):
        # The issue's acceptance floor: >= 10 codes across >= 5 subsystems.
        assert len(RULES.codes()) >= 10
        assert len({r.subsystem for r in RULES.all_rules()}) >= 5

    def test_codes_are_stable_format(self):
        for rule in RULES.all_rules():
            prefix = rule.code.rstrip("0123456789")
            assert prefix.isalpha() and prefix.isupper()
            assert rule.summary
            assert rule.subsystem


class TestIntegration:
    def test_xcbc_preflight_is_clean(self, littlefe_machine):
        definition = xcbc_cluster_definition(littlefe_machine)
        result = analyze(definition)
        assert not result.diagnostics, result.render_text()

    def test_preflight_without_deploying_installs_nothing(self, littlefe_machine):
        definition = xcbc_cluster_definition(littlefe_machine)
        assert definition.graph is not None
        assert definition.package_universe()
        # The machine's nodes have no hosts built for them: pre-flight only.
        assert definition.machine is littlefe_machine

    def test_from_cluster_round_trip(self, xcbc_littlefe):
        definition = ClusterDefinition.from_cluster(xcbc_littlefe.cluster)
        result = analyze(definition)
        assert not result.diagnostics, result.render_text()
        assert definition.required_repo_ids == ("rocks-dist",)

    def test_shell_cluster_lint(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        result = shell.run("cluster-lint")
        assert result.ok
        assert "0 error(s)" in result.output

    def test_shell_cluster_lint_json(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        result = shell.run("cluster-lint --json")
        doc = json.loads(result.output)
        assert doc["schema"] == ANALYSIS_SCHEMA

    def test_shell_cluster_lint_bad_flag(self, xcbc_littlefe):
        shell = ClusterShell(xcbc_littlefe.cluster)
        result = shell.run("cluster-lint --frobnicate")
        assert not result.ok

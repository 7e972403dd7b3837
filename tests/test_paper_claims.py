"""The reproduction record, asserted: ``repro.paper`` regenerates every
committed artefact byte for byte and every paper number sits inside its
tolerance.

One session-scoped regeneration feeds the whole file.  Paper numbers are
written in ``repro.paper.PAPER`` only; the named tests below say which of
its cells back which sentence of the paper, and keep the behaviour checks
no table cell can express.
"""

import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro import paper
from repro.core import (
    audit_host,
    build_xcbc_cluster,
    build_xnit_repository,
    diff_environments,
    xsede_package_names,
)
from repro.errors import ProvisionError

ROOT = pathlib.Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"
T3, T4, T5 = "table3_deployments", "table4_cluster_specs", "table5_price_performance"


@pytest.fixture(scope="session")
def texts():
    return paper.regenerate()


def measured(texts, artefact, label):
    return paper.paper_cell(artefact, label).measured(texts[artefact])


def assert_cells_hold(texts, artefact, prefix):
    """Every PAPER cell of ``artefact`` whose label starts with ``prefix``."""
    cells = [
        c for c in paper.PAPER
        if c.artefact == artefact and c.label.startswith(prefix)
    ]
    assert cells, f"no PAPER cell {artefact}: {prefix}*"
    for cell in cells:
        assert cell.holds(cell.measured(texts[artefact])), cell.label


class TestRecord:
    def test_committed_files_are_the_artefacts_plus_fidelity(self):
        committed = {path.name for path in RESULTS.iterdir()}
        assert committed == {f"{name}.txt" for name in (*paper.ARTEFACTS, "fidelity")}

    @pytest.mark.parametrize("name", list(paper.ARTEFACTS))
    def test_artefact_regenerates_byte_identical(self, name, texts):
        assert texts[name].encode() == (RESULTS / f"{name}.txt").read_bytes()

    def test_fidelity_file_is_the_generated_table(self, texts):
        table, failed = paper.fidelity(texts)
        assert failed == []
        assert table.encode() == (RESULTS / "fidelity.txt").read_bytes()

    @pytest.mark.parametrize(
        "cell", paper.PAPER, ids=lambda cell: f"{cell.artefact}:{cell.label}"
    )
    def test_cell_within_tolerance(self, cell, texts):
        value = cell.measured(texts[cell.artefact])
        assert cell.holds(value), f"paper {cell.paper}, measured {value}"

    def test_hash_seed_does_not_change_a_byte(self, tmp_path):
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.paper", str(tmp_path / seed)],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(ROOT / "src")},
                stdout=subprocess.DEVNULL,
            )
            for seed in ("0", "1")
        ]
        assert [run.wait(timeout=300) for run in runs] == [0, 0]
        trees = [
            {path.name: path.read_bytes() for path in (tmp_path / seed).iterdir()}
            for seed in ("0", "1")
        ]
        assert trees[0] == trees[1]
        assert trees[0] == {path.name: path.read_bytes() for path in RESULTS.iterdir()}

    def test_cell_outside_tolerance_fails_the_run_and_is_named(
        self, texts, monkeypatch, capsys
    ):
        victim = paper.PAPER[0]
        forced = dataclasses.replace(victim, paper=victim.paper * 2)
        monkeypatch.setattr(paper, "PAPER", (forced, *paper.PAPER[1:]))
        monkeypatch.setattr(paper, "regenerate", lambda: texts)
        assert paper.main([]) == 1
        captured = capsys.readouterr()
        assert f"{victim.artefact}: {victim.label}" in captured.err
        assert "OUTSIDE" in captured.out


class TestAbstractClaims:
    def test_xcbc_is_all_at_once_from_scratch(self, xcbc_littlefe):
        """One call takes bare validated hardware to a working cluster."""
        cluster = xcbc_littlefe.cluster
        assert cluster.frontend.services.is_running("pbs_server")
        assert all(
            host.services.is_running("pbs_mom") for host in cluster.hosts()[1:]
        )

    def test_xnit_installs_in_portions(self, xnit_limulus):
        """Specific tools can be installed without rebuilding."""
        client = xnit_limulus.client_for(xnit_limulus.frontend)
        # the vendor stack from before integration is still there
        assert client.db.has("limulus-manage")

    def test_both_approaches_converge(self, xcbc_littlefe, xnit_limulus):
        """The abstract's central claim, as an executable assertion."""
        diff = diff_environments(
            xcbc_littlefe.cluster.frontend_db,
            xnit_limulus.client_for(xnit_limulus.frontend).db,
        )
        assert diff.converged
        xcbc_audit = audit_host(
            xcbc_littlefe.cluster.frontend, xcbc_littlefe.cluster.frontend_db
        )
        xnit_audit = audit_host(
            xnit_limulus.frontend,
            xnit_limulus.client_for(xnit_limulus.frontend).db,
        )
        assert xcbc_audit.overall == pytest.approx(xnit_audit.overall)
        assert xcbc_audit.overall == pytest.approx(1.0)


class TestTable3:
    def test_published_totals(self, texts):
        assert_cells_hold(texts, T3, "total ")

    def test_almost_50_tflops_claim(self, texts):
        # "Clusters making use of XCBC or XNIT total almost 50 TFLOPS"
        assert_cells_hold(texts, T3, "abstract: 'almost 50 TFLOPS'")


class TestTable4:
    def test_row_littlefe(self, texts):
        assert_cells_hold(texts, T4, "LittleFe ")

    def test_row_limulus(self, texts):
        assert_cells_hold(texts, T4, "Limulus ")


class TestTable5:
    def test_littlefe_row(self, texts):
        # Rpeak, the 75 %-of-peak Rmax* and both $/GFLOPS columns exactly;
        # the HPL model's genuine prediction near the paper's estimate
        assert_cells_hold(texts, T5, "LittleFe ")
        assert re.search(r"(?m)^littlefe-iu.*\*", texts[T5])  # flagged estimated

    def test_limulus_row(self, texts):
        assert_cells_hold(texts, T5, "Limulus ")

    def test_half_teraflops_deskside_under_4000(self, texts):
        # "A half-TeraFLOPS deskside cluster for under $4,000"
        assert_cells_hold(texts, T5, "LittleFe Rpeak")
        assert_cells_hold(texts, T5, "LittleFe cost")

    def test_three_quarter_teraflops_commercial(self, texts):
        # "a roughly $6,000, three-quarter-TeraFLOPS deskside system"
        assert_cells_hold(texts, T5, "Limulus Rpeak")
        assert_cells_hold(texts, T5, "Limulus cost")

    def test_littlefe_cheaper_per_gflops(self, texts):
        # Section 8: "the LittleFe modified design we present offers
        # performance comparable to the Limulus HPC200 at a lower price point"
        for column in ("$/GFLOPS of Rpeak", "$/GFLOPS of Rmax"):
            assert measured(texts, T5, f"LittleFe {column}") < measured(
                texts, T5, f"Limulus {column}"
            )


class TestSection5Engineering:
    def test_rocks_needs_disks_story(self, original_littlefe_quote, littlefe_quote):
        """Stock LittleFe (diskless) fails XCBC; modified build passes."""
        with pytest.raises(ProvisionError):
            build_xcbc_cluster(original_littlefe_quote.machine)
        report = build_xcbc_cluster(littlefe_quote.machine)
        assert len(report.cluster.hosts()) == littlefe_quote.machine.node_count

    def test_atom_vs_celeron_power_ratio(self, texts):
        # the 4x per-node power jump that forced per-node PSUs
        assert_cells_hold(texts, "littlefe_modification", "Atom D510 watts")
        assert_cells_hold(texts, "littlefe_modification", "Celeron G1840 watts")


class TestRepositoryScale:
    def test_xnit_superset_of_xcbc(self):
        repo = build_xnit_repository()
        catalogue = set(xsede_package_names())
        assert catalogue <= repo.names()
        assert repo.names() - catalogue  # strictly more

    def test_dozens_of_packages_claim(self):
        # "the XNIT Yum repository as a source of RPMs for dozens of useful
        # software packages"
        assert build_xnit_repository().package_count() > 100

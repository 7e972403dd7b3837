"""Extension-feature tests: architecture enforcement (the Raspberry Pi
argument), the Limulus/XNIT curriculum, and the 2020 capacity projection."""

import pytest

from repro.core import (
    TrainingSession,
    capacity_goal_projection,
    limulus_xnit_module,
)
from repro.distro import CENTOS_6_5, Host
from repro.errors import DeploymentError, DependencyError, TransactionError
from repro.hardware import (
    BCM2835,
    DDR3_4G_SODIMM,
    GIGE_ONBOARD,
    NodeRole,
    assemble_node,
)
from repro.hardware.motherboard import MotherboardModel
from repro.rpm import Package, RpmDatabase, Transaction


def raspberry_pi_host(name="pi-0"):
    """A Raspberry Pi as a cluster node (Section 8's counterexample)."""
    board = MotherboardModel(
        model="Raspberry Pi Model B board",
        form_factor="mini-ITX",  # close enough for the chassis check
        socket=None,
        dimm_slots=1,
        msata_slots=0,
        sata_ports=1,  # the SD card slot, effectively
        nics=(GIGE_ONBOARD,),
        cpu_clearance_mm=20.0,
        power_watts=1.0,
        price_usd=0.0,
    )
    from repro.hardware.storage import LAPTOP_HDD_500

    node = assemble_node(
        name,
        role=NodeRole.COMPUTE,
        board=board,
        cpu=BCM2835,
        dimms=(DDR3_4G_SODIMM,),
        storage=(LAPTOP_HDD_500,),
        cooler=None,
    )
    return Host(node, CENTOS_6_5)


class TestArchitectureEnforcement:
    def test_x86_host_reports_arch(self, frontend_host):
        assert frontend_host.arch == "x86_64"

    def test_pi_reports_arm(self):
        assert raspberry_pi_host().arch == "armv6l"

    def test_x86_rpm_refuses_to_install_on_pi(self):
        """Section 8: Pi clusters can't run the XSEDE software stack."""
        pi = raspberry_pi_host()
        db = RpmDatabase(pi)
        from repro.core import xsede_packages

        gromacs = next(p for p in xsede_packages() if p.name == "gromacs")
        txn = Transaction(db)
        txn.install(gromacs)
        with pytest.raises((TransactionError, DependencyError), match="x86_64"):
            txn.commit()
        assert len(db) == 0

    def test_noarch_installs_anywhere(self):
        pi = raspberry_pi_host()
        db = RpmDatabase(pi)
        docs = Package(name="xsede-docs", version="1.0", arch="noarch")
        Transaction(db).install(docs).commit()
        assert db.has("xsede-docs")

    def test_native_arm_package_installs(self):
        pi = raspberry_pi_host()
        db = RpmDatabase(pi)
        raspbian = Package(name="python-rpi", version="2.7.3", arch="armv6l",
                           commands=("python",))
        Transaction(db).install(raspbian).commit()
        assert pi.has_command("python")

    def test_x86_machines_accept_x86(self, xcbc_littlefe):
        # the whole XCBC build already ran on x86_64 — re-assert explicitly
        assert xcbc_littlefe.cluster.frontend.arch == "x86_64"


class TestLimulusCurriculum:
    def test_happy_path_all_steps_pass(self):
        session = TrainingSession(limulus_xnit_module(), students=6)
        session.run()
        assert session.passed_all, session.transcript()
        assert len(session.outcomes) == 6

    def test_playbook_written_and_loadable(self):
        from repro.core import Playbook

        session = TrainingSession(limulus_xnit_module())
        session.run()
        frontend = session.workspace["cluster"].frontend
        text = frontend.fs.read("/root/retrofit-playbook.json")
        playbook = Playbook.from_json(text)
        actions = [s.action for s in playbook.steps]
        assert actions == [
            "setup-repo-manual", "install", "install", "install"
        ]

    def test_forgotten_plugin_caught_by_audit(self):
        session = TrainingSession(
            limulus_xnit_module(skip_priorities_plugin=True)
        )
        session.run()
        by_step = {o.step: o for o in session.outcomes}
        assert not by_step["audit"].passed
        assert "yum-plugin-priorities" in by_step["audit"].detail
        # earlier steps succeeded: the mistake is silent until audited
        assert by_step["add-software"].passed

    def test_recorded_playbook_replays_on_fresh_hardware(self):
        from repro.core import (
            Playbook,
            build_limulus_cluster,
            build_xnit_repository,
            diff_environments,
            replay,
        )

        session = TrainingSession(limulus_xnit_module())
        session.run()
        source = session.workspace["cluster"]
        text = source.frontend.fs.read("/root/retrofit-playbook.json")

        fresh = build_limulus_cluster("take-home")
        client = fresh.client_for(fresh.frontend)
        replay(Playbook.from_json(text), client, build_xnit_repository())
        diff = diff_environments(
            source.client_for(source.frontend).db, client.db
        )
        assert not (diff.only_on_a or diff.only_on_b or diff.version_mismatches)


class TestCapacityProjection:
    def test_paper_goal_requires_10x(self):
        factor, annual = capacity_goal_projection()
        assert factor == pytest.approx(10.08, abs=0.05)
        assert 0.6 < annual < 0.75  # ~67%/year

    def test_goal_year_validation(self):
        with pytest.raises(DeploymentError):
            capacity_goal_projection(start_year=2020, goal_year=2015)

"""Node/chassis assembly tests: the Section 5.1 engineering constraints."""

import pytest

from repro.errors import AssemblyError
from repro.hardware import (
    ATOM_D510,
    CELERON_G1840,
    CRUCIAL_M550_128_MSATA,
    DDR3_4G_SODIMM,
    DDR3_8G_UDIMM,
    GA_Q87TN,
    I7_4770S,
    INTEL_STOCK_LGA1150,
    LAPTOP_HDD_500,
    LIMULUS_DESKSIDE,
    LIMULUS_NODE_BOARD,
    LITTLEFE_V4_FRAME,
    NodeRole,
    PICO_PSU_160,
    ROSEWILL_RCX_Z775_LP,
    assemble_node,
    populate,
)


def q87_node(name="n0", role=NodeRole.COMPUTE, **overrides):
    """A valid modified-LittleFe node, overridable per test."""
    spec = dict(
        role=role,
        board=GA_Q87TN,
        cpu=CELERON_G1840,
        dimms=(DDR3_4G_SODIMM, DDR3_4G_SODIMM),
        storage=(CRUCIAL_M550_128_MSATA,),
        cooler=ROSEWILL_RCX_Z775_LP,
        psu=PICO_PSU_160,
    )
    spec.update(overrides)
    return assemble_node(name, **spec)


class TestNodeAssembly:
    def test_valid_node_assembles(self):
        node = q87_node()
        assert node.cores == 2
        assert node.memory_bytes == 8 * 1024**3
        assert not node.diskless

    def test_socket_mismatch_rejected(self):
        from repro.hardware import XEON_E5_2670

        with pytest.raises(AssemblyError, match="LGA-2011"):
            q87_node(cpu=XEON_E5_2670)

    def test_soldered_board_rejects_socketed_cpu(self):
        from repro.hardware import LITTLEFE_ATOM_BOARD

        with pytest.raises(AssemblyError, match="soldered"):
            q87_node(board=LITTLEFE_ATOM_BOARD, cooler=None, storage=())

    def test_too_many_dimms_rejected(self):
        with pytest.raises(AssemblyError, match="DIMM"):
            q87_node(dimms=(DDR3_4G_SODIMM,) * 3)  # GA-Q87TN has 2 slots

    def test_no_dimms_rejected(self):
        with pytest.raises(AssemblyError, match="DIMM"):
            q87_node(dimms=())

    def test_msata_slot_limit(self):
        with pytest.raises(AssemblyError, match="mSATA"):
            q87_node(storage=(CRUCIAL_M550_128_MSATA, CRUCIAL_M550_128_MSATA))

    def test_chassis_drive_uses_sata_port_not_msata(self):
        node = q87_node(storage=(CRUCIAL_M550_128_MSATA, LAPTOP_HDD_500))
        assert node.storage_bytes == 128 * 10**9 + 500 * 10**9

    def test_socketed_cpu_requires_cooler(self):
        with pytest.raises(AssemblyError, match="cooler"):
            q87_node(cooler=None)

    def test_stock_cooler_rejected_in_littlefe_slot(self):
        from repro.errors import ClearanceError

        with pytest.raises(ClearanceError):
            q87_node(cooler=INTEL_STOCK_LGA1150)

    def test_frontend_must_be_dual_homed(self):
        from repro.hardware import LITTLEFE_ATOM_BOARD

        with pytest.raises(AssemblyError, match="dual-homed"):
            assemble_node(
                "head",
                role=NodeRole.FRONTEND,
                board=LITTLEFE_ATOM_BOARD,
                cpu=ATOM_D510,
                dimms=(DDR3_4G_SODIMM,),
            )

    def test_unknown_role_rejected(self):
        with pytest.raises(AssemblyError, match="role"):
            q87_node(role="gpu-node")

    def test_node_power_includes_all_components(self):
        node = q87_node()
        # cpu + board + 2 dimms + ssd + 2 nics + cooler
        expected = 43.06 + 12.0 + 6.0 + 3.0 + 2.0 + 1.6
        assert node.draw_watts == pytest.approx(expected)

    def test_idle_power_below_full_draw(self):
        node = q87_node()
        assert 0 < node.idle_watts < node.draw_watts

    def test_macs_are_unique_and_local(self):
        a, b = q87_node("a"), q87_node("b")
        assert a.mac_address != b.mac_address
        assert a.mac_address.startswith("02:")


def six_littlefe_nodes():
    return [
        q87_node(
            f"lf-n{i}",
            role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
        )
        for i in range(6)
    ]


class TestChassisPopulation:
    def test_littlefe_frame_takes_six_nodes(self):
        machine = populate("lf", LITTLEFE_V4_FRAME, six_littlefe_nodes())
        assert machine.node_count == 6
        assert machine.total_cores == 12

    def test_seventh_node_rejected(self):
        nodes = six_littlefe_nodes() + [q87_node("extra")]
        with pytest.raises(AssemblyError, match="slots"):
            populate("lf", LITTLEFE_V4_FRAME, nodes)

    def test_machine_needs_exactly_one_frontend(self):
        nodes = [q87_node(f"n{i}") for i in range(3)]
        with pytest.raises(AssemblyError, match="frontend"):
            populate("lf", LITTLEFE_V4_FRAME, nodes)

    def test_micro_atx_board_rejected_by_littlefe_frame(self):
        node = assemble_node(
            "big",
            role=NodeRole.FRONTEND,
            board=LIMULUS_NODE_BOARD,
            cpu=I7_4770S,
            dimms=(DDR3_8G_UDIMM,),
            storage=(LAPTOP_HDD_500,),
            cooler=INTEL_STOCK_LGA1150,
            psu=PICO_PSU_160,
        )
        with pytest.raises(AssemblyError, match="form factor|does not fit"):
            populate("lf", LITTLEFE_V4_FRAME, [node])

    def test_shared_psu_chassis_rejects_per_node_psus(self):
        def limulus_node(i):
            return assemble_node(
                f"lm-n{i}",
                role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
                board=LIMULUS_NODE_BOARD,
                cpu=I7_4770S,
                dimms=(DDR3_8G_UDIMM, DDR3_8G_UDIMM),
                cooler=INTEL_STOCK_LGA1150,
                storage=(LAPTOP_HDD_500,) if i == 0 else (),
                psu=PICO_PSU_160,  # wrong: the case powers everything
            )

        with pytest.raises(AssemblyError, match="own PSUs"):
            populate("lm", LIMULUS_DESKSIDE, [limulus_node(i) for i in range(2)])

    def test_per_node_psu_chassis_requires_them(self):
        nodes = [
            q87_node(
                f"n{i}",
                role=NodeRole.FRONTEND if i == 0 else NodeRole.COMPUTE,
                psu=None,
            )
            for i in range(2)
        ]
        with pytest.raises(AssemblyError, match="need their own"):
            populate("lf", LITTLEFE_V4_FRAME, nodes)

    def test_rpeak_aggregates(self):
        machine = populate("lf", LITTLEFE_V4_FRAME, six_littlefe_nodes())
        assert machine.rpeak_gflops == pytest.approx(537.6)

    def test_heterogeneous_clock_detected(self):
        nodes = six_littlefe_nodes()
        machine = populate("lf", LITTLEFE_V4_FRAME, nodes)
        assert machine.clock_ghz == pytest.approx(2.8)

    def test_powered_off_nodes_drop_from_draw(self):
        machine = populate("lf", LITTLEFE_V4_FRAME, six_littlefe_nodes())
        full = machine.draw_watts
        machine.nodes[-1].powered_on = False
        assert machine.draw_watts < full

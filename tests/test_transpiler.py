import math

import pytest

from qcra import simkit, transpiler
from qcra.simkit import Circuit, Gate
from qcra.transpiler import CouplingMap, contralto_3q, decompose_cnot, verify_truth_table


class TestCouplingMapInput:
    def test_unknown_qubit_is_named(self):
        with pytest.raises(ValueError, match=r"unknown qubit 'XX'; the map has D3, A6, C4"):
            contralto_3q().index("XX")

    def test_route_names_an_unknown_layout_qubit(self):
        with pytest.raises(ValueError, match="unknown qubit 'XX'"):
            transpiler.route(Circuit(2, [Gate.cnot(0, 1)]), contralto_3q(), initial_layout=["D3", "XX"])

    def test_rejects_more_qubits_than_the_simulator_takes(self):
        names = [f"Q{i}" for i in range(simkit.MAX_QUBITS + 1)]
        with pytest.raises(ValueError, match=f"13 qubits, more than {simkit.MAX_QUBITS}"):
            CouplingMap(names, [])
        assert len(CouplingMap(names[:-1], []).qubit_names) == simkit.MAX_QUBITS


class TestCzPhaseModel:
    def test_inject_cz_phase_on_contralto(self):
        cmap = contralto_3q()  # wires D3, A6, C4
        out = transpiler.inject_cz_phase(Circuit(3, [Gate.cz(0, 1), Gate.cz(2, 0)]), cmap)
        assert [(g.kind, g.qubits) for g in out.gates] == [
            ("cz", (0, 1)), ("rz", (1,)), ("cz", (2, 0)), ("rz", (0,))]
        assert math.degrees(out.gates[1].angle) == pytest.approx(135.0)  # tuned A6
        assert math.degrees(out.gates[3].angle) == pytest.approx(90.0)  # tuned D3

    def test_inject_cz_phase_rejects_an_uncoupled_pair(self):
        with pytest.raises(ValueError, match="not a coupled pair"):
            transpiler.inject_cz_phase(Circuit(3, [Gate.cz(1, 2)]), contralto_3q())

    def test_cz_phase_ignores_operand_order(self):
        cmap = contralto_3q()
        assert transpiler.cz_phase(cmap, 0, 2) == transpiler.cz_phase(cmap, 2, 0) == (0, math.radians(90.0))

    @pytest.mark.parametrize("phi_deg, c_deg", [(135, 0), (135, -135), (90, 0), (90, 30)])
    def test_truth_table_score_closed_form(self, phi_deg, c_deg):
        phi, c = math.radians(phi_deg), math.radians(c_deg)
        gates = decompose_cnot(0, 1, c)
        # RZ commutes with CZ: on the target the phases add inside H..H,
        # on the control they only rephase basis states.
        assert verify_truth_table(gates, 0, 1, 1, phi) == pytest.approx(math.cos((phi + c) / 2) ** 2, abs=1e-12)
        assert verify_truth_table(gates, 0, 1, 0, phi) == pytest.approx(math.cos(c / 2) ** 2, abs=1e-12)

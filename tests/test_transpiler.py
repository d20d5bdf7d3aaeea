import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcra import simkit, transpiler
from qcra.simkit import Circuit, Gate
from qcra.transpiler import CouplingMap, Edge, contralto_3q, decompose_cnot, verify_truth_table

LINE5 = CouplingMap.from_dict(json.loads((Path(__file__).parent / "data" / "line5.json").read_text()))
NATIVE = {"ry", "rz", "h", "x", "cz"}


class TestCouplingMapInput:
    def test_unknown_qubit_is_named(self):
        with pytest.raises(ValueError, match=r"unknown qubit 'XX'; the map has D3, A6, C4"):
            contralto_3q().index("XX")

    def test_route_names_an_unknown_layout_qubit(self):
        with pytest.raises(ValueError, match="unknown qubit 'XX'"):
            transpiler.route(Circuit(2, [Gate.cnot(0, 1)]), contralto_3q(), initial_layout=["D3", "XX"])

    @pytest.mark.parametrize("layout", [["D3"], ["D3", "A6", "C4"]], ids=["short", "long"])
    def test_route_rejects_a_layout_of_the_wrong_length(self, layout):
        with pytest.raises(transpiler.RoutingError, match=f"initial layout names {len(layout)} qubits, the circuit has 2"):
            transpiler.route(Circuit(2, [Gate.cnot(0, 1)]), contralto_3q(), initial_layout=layout)

    def test_rejects_more_qubits_than_the_simulator_takes(self):
        names = [f"Q{i}" for i in range(simkit.MAX_QUBITS + 1)]
        with pytest.raises(ValueError, match=f"13 qubits, more than {simkit.MAX_QUBITS}"):
            CouplingMap(names, [])
        assert len(CouplingMap(names[:-1], []).qubit_names) == simkit.MAX_QUBITS

    def test_rejects_a_pair_listed_in_two_edges(self):
        with pytest.raises(ValueError, match="two edges"):
            CouplingMap(["a", "b"], [Edge("a", "b", "b", 0.1), Edge("b", "a", "a", 0.2)])


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


def gates_on(n):
    """Random gates of every kind on an n-qubit register, with zero angles drawn often."""
    angle = st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi))
    pair = st.permutations(range(n)).map(lambda p: tuple(p[:2]))
    wire = st.integers(0, n - 1)
    return st.lists(st.one_of(
        st.builds(Gate.ry, wire, angle), st.builds(Gate.rz, wire, angle),
        st.builds(Gate.h, wire), st.builds(Gate.x, wire),
        pair.map(lambda p: Gate.cz(*p)), pair.map(lambda p: Gate.cnot(*p)),
        st.builds(lambda p, a: Gate.cry(*p, a), pair, angle)), max_size=12)


def placed(u, wires):
    """u with logical qubit l moved to wire wires[l] (a permutation of the register)."""
    n = len(wires)
    perm = [wires.index(w) for w in range(n)]  # axis w of the result is logical axis perm[w]
    return u.reshape((2,) * n + (-1,)).transpose(perm + [n]).reshape(u.shape)


class TestRouteOracle:
    """A routed circuit equals its input up to the final layout and a global phase.

    The oracle is the dense unitary of input and output; it reads only the
    routed circuit and the layouts in the report.
    """

    def check(self, gates, cmap, layout, counter_phases):
        n = len(cmap.qubit_names)
        circuit = Circuit(n, gates)
        rep = transpiler.route(circuit, cmap, initial_layout=layout, counter_phases=counter_phases)
        out = rep.output.gates
        wires = [[cmap.index(rep_layout[l]) for l in range(n)]
                 for rep_layout in (rep.initial_layout, rep.layout)]
        assert [cmap.qubit_names[w] for w in wires[0]] == list(layout)
        # U_out = P_final U_in P_initial^T, with P placing logical qubits on wires
        expected = placed(placed(simkit.circuit_unitary(circuit), wires[1]).T, wires[0]).T
        assert simkit.max_abs_diff_up_to_phase(simkit.circuit_unitary(rep.output), expected) < 1e-9
        last_on = {}
        for g in out:
            assert g.kind in NATIVE
            assert len(g.qubits) == 1 or cmap.edge_between(*g.qubits) is not None
            assert not (g.kind == "rz" and g.angle == 0.0)
            assert not (g.kind == "h" and last_on.get(g.qubits[0]) == "h")
            for q in g.qubits:
                last_on[q] = g.kind
        cz_in = sum({"cz": 1, "cnot": 1, "cry": 2}.get(g.kind, 0) for g in gates)
        n_cz = sum(g.kind == "cz" for g in out)
        assert rep.cz_count == n_cz and rep.swap_count * 3 == n_cz - cz_in  # a SWAP is three CZs
        depth = {}
        for g in out:
            d = 1 + max(depth.get(q, 0) for q in g.qubits)
            depth.update((q, d) for q in g.qubits)
        assert rep.depth == max(depth.values(), default=0)
        return rep

    @pytest.mark.parametrize("layout", list(itertools.permutations(["D3", "A6", "C4"])))
    @pytest.mark.parametrize("counter_phases", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(gates=gates_on(3))
    def test_contralto_under_every_layout(self, layout, counter_phases, gates):
        cmap = contralto_3q()
        if counter_phases:  # with no phase error there is nothing to correct
            cmap = replace(cmap, edges=[replace(e, phase_error=0.0) for e in cmap.edges])
        self.check(gates, cmap, layout, counter_phases)

    @pytest.mark.parametrize("counter_phases", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(gates=gates_on(5), layout=st.permutations(LINE5.qubit_names))
    def test_line_map_with_swaps(self, counter_phases, gates, layout):
        cmap = LINE5
        if counter_phases:
            cmap = replace(cmap, edges=[replace(e, phase_error=0.0) for e in cmap.edges])
        self.check(gates, cmap, layout, counter_phases)

    def test_line_map_needs_swaps(self):
        rep = self.check([Gate.cnot(0, 4), Gate.cry(1, 3, 0.7)], LINE5, LINE5.qubit_names, False)
        assert rep.swap_count == 4


class TestPeephole:
    @settings(max_examples=200, deadline=None)
    @given(gates=st.lists(st.one_of(
        st.builds(Gate.h, st.integers(0, 2)), st.builds(Gate.x, st.integers(0, 2)),
        st.builds(Gate.rz, st.integers(0, 2), st.sampled_from([0.0, -0.0, 0.4])),
        st.sampled_from([Gate.cz(0, 1), Gate.cz(1, 2)])), max_size=16))
    def test_one_pass_is_a_fixed_point_and_keeps_the_unitary(self, gates):
        out = transpiler.peephole(gates)
        assert transpiler.peephole(out) == out
        np.testing.assert_allclose(simkit.circuit_unitary(Circuit(3, out)),
                                   simkit.circuit_unitary(Circuit(3, gates)), atol=1e-12)

    def test_examples(self):
        h, x = Gate.h(0), Gate.x(0)
        assert transpiler.peephole([h, h, h]) == [h]
        assert transpiler.peephole([h, Gate.rz(0, 0.0), h]) == []
        assert transpiler.peephole([x, h, h, h]) == [x, h]

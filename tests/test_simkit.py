import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcra import simkit
from qcra.simkit import Circuit, Gate, Statevector

RY = lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                         [math.sin(t / 2), math.cos(t / 2)]])
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]])
CZ = np.diag([1.0, 1.0, 1.0, -1.0])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def random_circuit(n, n_gates, rng):
    kinds = simkit.GATE_KINDS if n > 1 else ("ry", "rz", "h", "x")
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("cz", "cnot", "cry"):
            a, b = rng.choice(n, size=2, replace=False)
            angle = float(rng.uniform(0, 4 * math.pi)) if kind == "cry" else None
            gates.append(Gate(kind, (int(a), int(b)), angle))
        else:
            q = int(rng.integers(n))
            angle = float(rng.uniform(0, 4 * math.pi)) if kind in ("ry", "rz") else None
            gates.append(Gate(kind, (q,), angle))
    return Circuit(n, gates)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("swap", (0, 1))

    def test_missing_angle(self):
        with pytest.raises(ValueError):
            Gate("ry", (0,))

    def test_non_finite_angle(self):
        with pytest.raises(ValueError):
            Gate.ry(0, math.nan)

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)

    def test_angle_on_angle_free_gate(self):
        with pytest.raises(ValueError):
            Gate("h", (0,), 0.3)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate.ry(2, 0.1)])
        state = Statevector(2, [1, 0, 0, 0])
        with pytest.raises(ValueError):
            simkit.apply_gate(state, Gate.ry(5, 0.1))


class TestApplyGate:
    def test_ry_zero_is_identity(self):
        out = simkit.apply_gate(Statevector(1, [1, 0]), Gate.ry(0, 0.0))
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_ry_pi_flips(self):
        out = simkit.apply_gate(Statevector(1, [1, 0]), Gate.ry(0, math.pi))
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_cnot_truth_table(self):
        ket = lambda bits: Statevector(2, np.eye(4)[int(bits, 2)])  # |q0 q1>, q0 most significant
        for src, dst in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
            out = simkit.apply_gate(ket(src), Gate.cnot(0, 1))
            np.testing.assert_allclose(out.amplitudes, ket(dst).amplitudes, atol=1e-15)

    def test_apply_copies(self):
        state = Statevector(1, [1, 0])
        simkit.apply_gate(state, Gate.x(0))
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_matches_dense_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            circ = random_circuit(3, 8, rng)
            got = simkit.simulate(circ).amplitudes
            # independent dense-matrix composition
            state = np.zeros(8, dtype=complex)
            state[0] = 1.0
            for g in circ.gates:
                state = _embed(g, 3) @ state
            np.testing.assert_allclose(got, state, atol=1e-12)


def _embed(gate, n):
    """Full-space matrix by explicit kron products (test-side oracle)."""
    if gate.kind in ("cz", "cnot", "cry"):
        if gate.kind == "cz":
            small, (a, b) = CZ, gate.qubits
        else:
            u = X if gate.kind == "cnot" else RY(gate.angle)
            small = np.eye(4, dtype=complex)
            small[2:, 2:] = u
            a, b = gate.qubits
        full = np.zeros((2**n, 2**n), dtype=complex)
        for col in range(2**n):
            ab = ((col >> (n - 1 - a)) & 1) * 2 + ((col >> (n - 1 - b)) & 1)
            for ab_out in range(4):
                amp = small[ab_out, ab]
                if amp == 0:
                    continue
                row = col & ~(1 << (n - 1 - a)) & ~(1 << (n - 1 - b))
                row |= (ab_out >> 1) << (n - 1 - a)
                row |= (ab_out & 1) << (n - 1 - b)
                full[row, col] += amp
        return full
    if gate.kind == "ry":
        u = RY(gate.angle)
    elif gate.kind == "rz":
        u = np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    elif gate.kind == "h":
        u = H
    else:
        u = X
    mats = [np.eye(2, dtype=complex)] * n
    mats[gate.qubits[0]] = u
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return full


class TestBornProbabilities:
    def test_bell_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        probs = simkit.born_probabilities(Statevector(2, amps))
        np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_zero_state(self):
        probs = simkit.born_probabilities(simkit.simulate(Circuit(3)))  # simulate starts from |000>
        np.testing.assert_allclose(probs, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            circ = random_circuit(4, 10, rng)
            probs = simkit.born_probabilities(simkit.simulate(circ))
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1) < 1e-12


class TestCircuitUnitary:
    def test_empty_circuit(self):
        np.testing.assert_allclose(simkit.circuit_unitary(Circuit(2)), np.eye(4))

    def test_single_x(self):
        np.testing.assert_allclose(simkit.circuit_unitary(Circuit(1, [Gate.x(0)])), X)

    def test_hzh_equals_cnot(self):
        # direct 4x4 matrix multiplication oracle
        ih = np.kron(np.eye(2), H)
        expected = ih @ CZ @ ih
        circ = Circuit(2, [Gate.h(1), Gate.cz(0, 1), Gate.h(1)])
        got = simkit.circuit_unitary(circ)
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(got, CNOT, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = simkit.circuit_unitary(random_circuit(3, 10, rng))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            simkit.circuit_unitary(Circuit(7))

    def test_columns_are_basis_state_simulations(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            circ = random_circuit(n, int(rng.integers(0, 15)), rng)
            u = simkit.circuit_unitary(circ)
            for j in range(2**n):  # X gates prepare |j> from |0...0>
                prep = [Gate.x(q) for q in range(n) if j >> (n - 1 - q) & 1]
                np.testing.assert_array_equal(u[:, j], simkit.simulate(Circuit(n, prep + circ.gates)).amplitudes)


@st.composite
def bound_circuits(draw):
    """A random circuit, a set of its angled gates and a (B, P) batch of angles for them."""
    n = draw(st.integers(1, 6))
    kinds = simkit.GATE_KINDS if n > 1 else ("ry", "rz", "h", "x")
    angle = st.floats(-4 * math.pi, 4 * math.pi)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        width = 2 if kind in ("cz", "cnot", "cry") else 1
        qubits = draw(st.permutations(range(n)))[:width]
        gates.append(Gate(kind, tuple(qubits), draw(angle) if kind in ("ry", "rz", "cry") else None))
    circ = Circuit(n, gates)
    angled = [k for k, g in enumerate(gates) if g.angle is not None]
    columns = draw(st.permutations(angled))[:draw(st.integers(0, len(angled)))]
    batch = draw(st.integers(1, 8))
    angles = np.array(draw(st.lists(st.lists(angle, min_size=len(columns), max_size=len(columns)),
                                    min_size=batch, max_size=batch))).reshape(batch, len(columns))
    return circ, columns, angles


class TestBatchProbabilities:
    @settings(deadline=None, max_examples=200)
    @given(bound_circuits())
    def test_rows_match_rebuilt_circuits(self, case):
        circ, columns, angles = case
        got = simkit.batch_probabilities(circ, columns, angles)
        assert got.shape == (len(angles), 2**circ.n_qubits)
        for row, bound in zip(got, angles):
            gates = list(circ.gates)
            for k, a in zip(columns, bound):
                gates[k] = Gate(gates[k].kind, gates[k].qubits, float(a))
            ref = simkit.circuit_probabilities(Circuit(circ.n_qubits, gates))
            np.testing.assert_array_equal(row, ref)

    @pytest.mark.parametrize("columns, angles, match", [
        ([0], np.zeros(2), "shape"),
        ([0], np.zeros((2, 2)), "shape"),
        ([0, 2], np.zeros((2, 1)), "shape"),
        ([0], np.zeros((0, 1)), "shape"),
        ([0], [[0.1], [math.nan]], "finite"),
        ([2], [[math.inf]], "finite"),
        ([1], [[0.1]], "column 1"),
        ([3], [[0.1]], "column 3"),
        ([4], [[0.1]], "column 4"),
        ([-1], [[0.1]], "column -1"),
        ([0, 0], [[0.1, 0.2]], "distinct"),
    ], ids=["1d", "too-many-columns", "too-few-columns", "no-rows", "nan", "inf",
            "h-gate", "cz-gate", "past-the-end", "negative", "repeated"])
    def test_rejects_bad_bindings(self, columns, angles, match):
        circ = Circuit(2, [Gate.ry(0, 0.3), Gate.h(1), Gate.cry(0, 1, 0.5), Gate.cz(0, 1)])
        with pytest.raises(ValueError, match=match):
            simkit.batch_probabilities(circ, columns, angles)


class TestNormPreservation:
    def test_thousand_random_circuits(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            circ = random_circuit(n, int(rng.integers(1, 20)), rng)
            amps = simkit.simulate(circ).amplitudes
            worst = max(worst, abs(float(np.sum(np.abs(amps) ** 2)) - 1.0))
        assert worst < 1e-10


class TestBitOrder:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            vec = rng.random(2**n)
            back = simkit.convert_bit_order(simkit.convert_bit_order(vec, n), n)
            np.testing.assert_array_equal(back, vec)

    def test_fixed_permutation(self):
        perm = simkit.convert_bit_order(np.arange(8), 3)
        np.testing.assert_array_equal(perm, [0, 4, 2, 6, 1, 5, 3, 7])

    def test_circuit_probabilities_orders(self):
        # reading q0 as the least significant bit is relabelling qubit q as n - 1 - q
        circ = Circuit(3, [Gate.ry(0, 1.0), Gate.ry(1, 2.0), Gate.cnot(0, 1), Gate.cry(1, 2, 0.7)])
        mirrored = Circuit(3, [Gate(g.kind, tuple(2 - q for q in g.qubits), g.angle) for g in circ.gates])
        lsb = simkit.convert_bit_order(simkit.circuit_probabilities(circ), 3)
        np.testing.assert_allclose(lsb, simkit.circuit_probabilities(mirrored), atol=1e-15)


class TestStatevectorValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Statevector(2, np.array([1.0, 0.0]))


class TestJsonInterface:
    def test_round_trip(self):
        circ = Circuit(3, [Gate.ry(0, math.radians(90)), Gate.h(1),
                           Gate.cnot(0, 2), Gate.cry(1, 2, math.radians(-135))])
        back = simkit.circuit_from_json(simkit.circuit_to_json(circ))
        assert back.n_qubits == 3
        assert [g.kind for g in back.gates] == ["ry", "h", "cnot", "cry"]
        assert back.gates[0].angle == pytest.approx(math.pi / 2, abs=1e-15)
        assert back.gates[3].angle == pytest.approx(math.radians(-135), abs=1e-15)

    def test_degrees_at_boundary(self):
        circ = Circuit(1, [Gate.ry(0, math.pi)])
        data = simkit.circuit_to_dict(circ)
        assert data["gates"][0]["angle_deg"] == pytest.approx(180.0)

    def test_bit_order_is_q0_msb_or_absent(self):
        gates = [{"kind": "x", "qubits": [0]}]
        for data in ({"n_qubits": 2, "gates": gates}, {"n_qubits": 2, "gates": gates, "bit_order": "q0_msb"}):
            circ = simkit.circuit_from_dict(data)
            np.testing.assert_array_equal(simkit.circuit_probabilities(circ), [0.0, 0.0, 1.0, 0.0])
            assert simkit.circuit_to_dict(circ)["bit_order"] == "q0_msb"

    @pytest.mark.parametrize("data, match", [
        ([{"kind": "h", "qubits": [0]}], "JSON object"),
        ({"n_qubits": 1, "gates": {"kind": "h"}}, "list of gates"),
        ({"n_qubits": 2.0, "gates": []}, "n_qubits"),
        ({"n_qubits": True, "gates": []}, "n_qubits"),
        ({"n_qubits": 1, "gates": ["h"]}, "JSON object"),
        ({"n_qubits": 2, "gates": [{"kind": "h", "qubits": 0}]}, "qubits"),
        ({"n_qubits": 2, "gates": [{"kind": "h", "qubits": [True]}]}, "qubits"),
        ({"n_qubits": 2, "gates": [{"kind": "h", "qubits": [1.0]}]}, "qubits"),
        ({"n_qubits": 1, "gates": [{"kind": "ry", "qubits": [0], "angle_deg": "90"}]}, "angle_deg"),
        ({"n_qubits": 1, "gates": [{"kind": "ry", "qubits": [0], "angle_deg": True}]}, "angle_deg"),
        ({"n_qubits": 1, "gates": [{"kind": "ry", "qubits": [0], "angle_deg": float("nan")}]}, "angle_deg"),
        ({"n_qubits": 1, "gates": [{"kind": "ry", "qubits": [0], "angle_deg": 10**400}]}, "angle_deg"),
        ({"n_qubits": 1, "gates": [], "bit_order": "q0_lsb"}, "bit_order"),
        ({"n_qubits": 1, "gates": [], "bit_order": None}, "bit_order"),
    ])
    def test_rejects_wrong_json_types(self, data, match):
        with pytest.raises(ValueError, match=match):
            simkit.circuit_from_dict(data)

import math

import numpy as np
import pytest

from qcra import circuits, simkit
from qcra.circuits import ConcavityClass
from qcra.finmodel import GciModel

DEG = math.radians


def loader_probs(thetas_deg):
    rads = [DEG(d) for d in thetas_deg]
    circ = (circuits.build_two_qubit_loader(rads) if len(rads) == 2
            else circuits.build_three_qubit_loader(rads))
    return simkit.circuit_probabilities(circ)


class TestLoaders:
    def test_two_qubit_structure(self):
        circ = circuits.build_two_qubit_loader([0.3, 0.7])
        assert [g.kind for g in circ.gates] == ["ry", "ry", "cnot"]
        assert [g.qubits for g in circ.gates] == [(0,), (1,), (0, 1)]

    def test_three_qubit_structure(self):
        circ = circuits.build_three_qubit_loader([0.1, 0.2, 0.3])
        assert [g.kind for g in circ.gates] == ["ry", "ry", "ry", "cnot", "cnot"]
        assert circ.gates[3].qubits == (0, 1)
        assert circ.gates[4].qubits == (0, 2)

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            circuits.build_two_qubit_loader([0.1])
        with pytest.raises(ValueError):
            circuits.build_three_qubit_loader([0.1, 0.2])

    def test_zero_angles_give_ground_state(self):
        np.testing.assert_allclose(loader_probs([0, 0]), [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(loader_probs([0, 0, 0]),
                                   [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_uniform_profiles(self):
        np.testing.assert_allclose(loader_probs([90, 90]), [0.25] * 4, atol=1e-12)
        np.testing.assert_allclose(loader_probs([90, 90, 90]), [0.125] * 8, atol=1e-12)

    def test_two_qubit_optimal_angle_histogram(self):
        probs = loader_probs([90, 237])
        c1sq = math.cos(DEG(237) / 2) ** 2
        np.testing.assert_allclose(probs, [c1sq / 2, (1 - c1sq) / 2, (1 - c1sq) / 2, c1sq / 2],
                                   atol=1e-12)
        np.testing.assert_allclose(probs, [0.1138, 0.3862, 0.3862, 0.1138], atol=5e-5)

    def test_three_qubit_optimal_angles_bell_shape(self):
        probs = loader_probs([90, 212.5, 104.5])
        amp = circuits.three_qubit_amplitudes_analytic(DEG(212.5), DEG(104.5))
        np.testing.assert_allclose(probs, amp**2, atol=1e-12)
        # symmetric pairs and strictly increasing mass toward the center
        for b in range(4):
            assert probs[b] == pytest.approx(probs[7 - b], abs=1e-12)
        assert probs[0] < probs[1] < probs[2] < probs[3]


class TestAnalyticAmplitudes:
    def test_two_qubit_examples(self):
        np.testing.assert_allclose(circuits.two_qubit_amplitudes_analytic(0, 0),
                                   [1, 0, 0, 0], atol=1e-15)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(circuits.two_qubit_amplitudes_analytic(DEG(90), DEG(180)),
                                   [0, r, r, 0], atol=1e-15)
        np.testing.assert_allclose(circuits.two_qubit_amplitudes_analytic(DEG(90), DEG(90)),
                                   [0.5] * 4, atol=1e-15)

    def test_three_qubit_examples(self):
        r = 1 / math.sqrt(2)
        # both CNOTs fire on the q0 = 1 branch: (|000> + |111>)/sqrt(2)
        np.testing.assert_allclose(circuits.three_qubit_amplitudes_analytic(0, 0),
                                   [r, 0, 0, 0, 0, 0, 0, r], atol=1e-15)
        np.testing.assert_allclose(circuits.three_qubit_amplitudes_analytic(DEG(90), DEG(90)),
                                   [0.35355339] * 8, atol=1e-8)
        amp = circuits.three_qubit_amplitudes_analytic(DEG(180), DEG(180))
        np.testing.assert_allclose(amp[[0, 1, 6, 7]], 0, atol=1e-15)
        assert float(np.sum(amp[2:6] ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_simulator_on_random_tuples(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t0, t1 = rng.uniform(0, 4 * math.pi, 2)
            amp = circuits.two_qubit_amplitudes_analytic(t0, t1)
            sv = simkit.simulate(circuits.build_two_qubit_loader([t0, t1]))
            np.testing.assert_allclose(amp, sv.amplitudes.real, atol=1e-12)
            np.testing.assert_allclose(sv.amplitudes.imag, 0, atol=1e-12)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 4 * math.pi, 2)
            amp = circuits.three_qubit_amplitudes_analytic(t1, t2)
            sv = simkit.simulate(circuits.build_three_qubit_loader([math.pi / 2, t1, t2]))
            np.testing.assert_allclose(amp, sv.amplitudes.real, atol=1e-12)

    def test_exact_pair_symmetry_at_theta0_90(self):
        rng = np.random.default_rng(23)
        for t1 in rng.uniform(0, 4 * math.pi, 200):
            probs = simkit.circuit_probabilities(
                circuits.build_two_qubit_loader([math.pi / 2, float(t1)]))
            assert abs(probs[0] - probs[3]) < 1e-12
            assert abs(probs[1] - probs[2]) < 1e-12


class TestSymmetryConditions:
    def test_hardware_optimal_two_qubit(self):
        rep = circuits.check_symmetry_conditions(DEG(90), DEG(237))
        assert not rep.symmetric  # 237 deg is not 360 n +- 90
        assert rep.central_mass
        assert rep.ring_ordering is None

    def test_uniform_boundary(self):
        rep = circuits.check_symmetry_conditions(DEG(90), DEG(90))
        assert rep.symmetric
        assert not rep.central_mass  # cos 45 = sin 45, strict inequality fails

    def test_three_qubit_matched_angles(self):
        rep = circuits.check_symmetry_conditions(DEG(90), DEG(180), DEG(180))
        assert rep.symmetric
        assert rep.central_mass
        assert rep.ring_ordering

    def test_three_qubit_mirror_pairing(self):
        assert circuits.check_symmetry_conditions(DEG(90), DEG(212.5), DEG(-212.5 + 720)).symmetric
        assert not circuits.check_symmetry_conditions(DEG(90), DEG(212.5), DEG(104.5)).symmetric

    def test_tolerance(self):
        assert circuits.check_symmetry_conditions(DEG(90) + 1e-10, DEG(270)).symmetric
        assert not circuits.check_symmetry_conditions(DEG(90) + 1e-6, DEG(270)).symmetric


class TestConcavity:
    def test_examples(self):
        assert circuits.classify_concavity([0.25, 0.25, 0.25, 0.25]) is ConcavityClass.UNIFORM
        assert circuits.classify_concavity([0.114, 0.386, 0.386, 0.114]) is ConcavityClass.GAUSSIAN_LIKE
        assert circuits.classify_concavity([0.386, 0.114, 0.114, 0.386]) is ConcavityClass.INVERTED

    def test_length_check(self):
        with pytest.raises(ValueError):
            circuits.classify_concavity([0.5, 0.5])

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_tolerance_check(self, tol):
        with pytest.raises(ValueError, match="tol"):
            circuits.classify_concavity([0.25, 0.25, 0.25, 0.25], tol)

    def test_band_structure_21_degree_sweep(self):
        for k in range(18):
            t1 = 90 + 21 * k
            label = circuits.classify_concavity(loader_probs([90, t1]), tol=1e-9)
            if t1 == 90:
                assert label is ConcavityClass.UNIFORM, t1
            elif t1 < 270:
                assert label is ConcavityClass.GAUSSIAN_LIKE, t1
            else:
                assert label is ConcavityClass.INVERTED, t1

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_rows_get_the_labels_of_lone_calls(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        rows = rng.dirichlet(np.ones(2**n_qubits), size=200)
        rows[:50] = rows[:50, ::-1] + rows[:50]  # symmetric rows, nearer the tolerance
        rows[50:60] = 1.0 / 2**n_qubits
        for tol in (0.0, 1e-3, 0.05):
            labels = circuits.classify_concavity(rows, tol)
            assert labels == [circuits.classify_concavity(r, tol) for r in rows]
            assert set(labels) == set(ConcavityClass)
        with pytest.raises(ValueError, match="length-4 or length-8"):
            circuits.classify_concavity(np.ones((3, 2)))
        with pytest.raises(ValueError, match="length-4 or length-8"):
            circuits.classify_concavity(np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="tol"):
            circuits.classify_concavity(rows, -1.0)

    def test_eight_state_classification(self):
        assert circuits.classify_concavity(loader_probs([90, 212.5, 104.5]),
                                           tol=1e-9) is ConcavityClass.GAUSSIAN_LIKE
        assert circuits.classify_concavity([0.125] * 8) is ConcavityClass.UNIFORM


class TestGciIdeal:
    def test_structure(self):
        model = GciModel(0.25, 0.027, 1000.0, 2, 1.0)
        circ = circuits.build_gci_ideal(model)
        assert [g.kind for g in circ.gates] == ["ry", "ry", "cnot", "ry", "cry", "cry"]
        assert circ.gates[3].angle == pytest.approx(2 * model.beta_tilde)
        assert circ.gates[4].angle == pytest.approx(2 * model.alpha_tilde)
        assert circ.gates[5].angle == pytest.approx(4 * model.alpha_tilde)

    def test_rejects_other_register_sizes(self):
        with pytest.raises(ValueError):
            circuits.build_gci_ideal(GciModel(0.25, 0.027, 1000.0, 3, 1.0))

    def test_flat_rotation_for_zero_correlation(self):
        # rho = 0 makes alpha_tilde 0: P(q2 = 1) = sin^2(beta) regardless of z
        model = GciModel(0.5, 0.0, 1.0, 2, 1.0)
        assert model.beta_tilde == pytest.approx(math.pi / 4)
        probs = simkit.circuit_probabilities(circuits.build_gci_ideal(model))
        p_q2 = probs[1::2].sum()
        assert p_q2 == pytest.approx(0.5, abs=1e-12)

    def test_default_probability_near_baseline(self):
        model = GciModel(0.25, 0.027, 1000.0, 2, 1.0)
        probs = simkit.circuit_probabilities(circuits.build_gci_ideal(model, [DEG(90), DEG(224)]))
        p_default = probs[1::2].sum()
        assert p_default == pytest.approx(0.25, abs=0.005)


class TestGciTranspiled:
    PAPER_THETAS = [DEG(90), DEG(224), DEG(90), DEG(90), DEG(180)]

    def test_gate_sequence(self):
        circ = circuits.build_gci_transpiled(self.PAPER_THETAS)
        kinds = [(g.kind, g.qubits) for g in circ.gates]
        assert kinds == [
            ("ry", (0,)), ("ry", (1,)), ("ry", (2,)),
            ("h", (1,)), ("rz", (1,)), ("cz", (0, 1)), ("h", (1,)),
            ("h", (2,)), ("cz", (0, 2)), ("h", (2,)),
            ("rz", (0,)), ("rz", (2,)), ("ry", (0,)), ("ry", (2,)),
            ("rz", (0,)), ("rz", (2,)),
        ]
        assert circ.gates[4].angle == pytest.approx(DEG(-135))
        assert circ.gates[10].angle == pytest.approx(DEG(-44.40))
        assert circ.gates[11].angle == pytest.approx(DEG(-125.47))
        assert circ.gates[15].angle == pytest.approx(DEG(-90))

    def test_all_zero_thetas(self):
        # only the counter-phase sandwich acts non-diagonally: q1 sees an
        # effective RX(-135 deg) while q0 and q2 stay in |0>
        probs = simkit.circuit_probabilities(circuits.build_gci_transpiled([0] * 5))
        p1 = math.sin(DEG(-135) / 2) ** 2
        np.testing.assert_allclose(probs, [1 - p1, 0, p1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_counter_phase_stripped_recomposes_to_cnot_form(self):
        from qcra.simkit import Circuit, Gate

        thetas = self.PAPER_THETAS
        full = circuits.build_gci_transpiled(thetas)
        stripped = Circuit(3, full.gates[:4] + full.gates[5:])  # without gate 4, the counter-phase
        reference = Circuit(3, [
            Gate.ry(0, thetas[0]), Gate.ry(1, thetas[1]), Gate.ry(2, thetas[2]),
            Gate.cnot(0, 1), Gate.cnot(0, 2),
            Gate.rz(0, DEG(-44.40)), Gate.rz(2, DEG(-125.47)),
            Gate.ry(0, thetas[4]), Gate.ry(2, thetas[3]),
            Gate.rz(0, DEG(-125.47)), Gate.rz(2, DEG(-90)),
        ])
        diff = simkit.max_abs_diff_up_to_phase(simkit.circuit_unitary(stripped),
                                               simkit.circuit_unitary(reference))
        assert diff < 1e-12

    def test_theta4_row_sweep_varies_output(self):
        rows = {}
        for t4 in (30, 150, 180, 210, 330):
            probs = simkit.circuit_probabilities(circuits.build_gci_transpiled(
                [DEG(90), DEG(224), DEG(90), DEG(90), DEG(t4)]))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= -1e-15)
            rows[t4] = probs
        spread = max(np.max(np.abs(rows[a] - rows[b]))
                     for a in rows for b in rows if a < b)
        assert spread > 0.05

    def test_five_angles_required(self):
        with pytest.raises(ValueError):
            circuits.build_gci_transpiled([0.0, 0.1])

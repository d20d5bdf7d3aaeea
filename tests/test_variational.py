import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcra import simkit, variational
from qcra.circuits import build_three_qubit_loader, build_two_qubit_loader
from qcra.simkit import Circuit, Gate
from qcra.variational import (
    AdamState,
    TargetHistogram,
    TrainConfig,
    adam_step,
    distribution_loss,
    make_target,
    parameter_shift_gradient,
    train_loader,
)


def finite_difference_gradient(builder, thetas, target, h=1e-5):
    loss = lambda th: distribution_loss(simkit.circuit_probabilities(builder(th)), target)
    grad = np.zeros(len(thetas))
    for i in range(len(thetas)):
        e = np.zeros(len(thetas))
        e[i] = h
        grad[i] = (loss(thetas + e) - loss(thetas - e)) / (2 * h)
    return grad


def reference_gradient(builder, thetas, target):
    """Per-circuit shift rule: the base circuit plus 2P shifted ones, each simulated alone."""
    thetas = np.asarray(thetas, dtype=float)
    t = np.asarray(getattr(target, "probs", target), dtype=float)
    base = simkit.circuit_probabilities(builder(thetas))
    grad = np.zeros(len(thetas))
    for i in range(len(thetas)):
        shift = np.zeros(len(thetas))
        shift[i] = variational.SHIFT
        dp = 0.5 * (simkit.circuit_probabilities(builder(thetas + shift))
                    - simkit.circuit_probabilities(builder(thetas - shift)))
        grad[i] = float(np.sum(2.0 * (base - t) * dp))
    return grad


def reference_train(n_qubits, target, config):
    """Adam fit with 2P + 2 separately built and simulated circuits per step."""
    builder = variational.loader_builder(n_qubits)
    t = np.asarray(target.probs, dtype=float)
    thetas = np.random.default_rng(config.seed).uniform(0.0, 2.0 * math.pi, size=n_qubits)
    state = AdamState.fresh(n_qubits, config.lr)
    history = [distribution_loss(simkit.circuit_probabilities(builder(thetas)), t)]
    iterations = 0
    while history[-1] >= config.tol and iterations < config.max_iters:
        state, thetas = adam_step(state, thetas, reference_gradient(builder, thetas, t))
        iterations += 1
        history.append(distribution_loss(simkit.circuit_probabilities(builder(thetas)), t))
    return thetas, history, iterations


def exact_loader_theta1(target_probs):
    """Angle solving cos^2(t1/2)/2 = p*_0 (with theta0 = pi/2)."""
    return 2 * math.acos(math.sqrt(2 * target_probs[0]))


class TestMakeTarget:
    def test_flat_limit(self):
        t = make_target(2, 0.0, 1e6, 1.0)
        np.testing.assert_allclose(t.probs, [0.25] * 4, atol=1e-9)

    def test_standard_normal_two_qubits(self):
        t = make_target(2, 0.0, 1.0, 1.0)
        # normalize exp(-z^2/2) over {-1, -1/3, 1/3, 1} by hand
        w = np.exp(-np.array([-1, -1 / 3, 1 / 3, 1.0]) ** 2 / 2)
        np.testing.assert_allclose(t.probs, w / w.sum(), atol=1e-15)
        np.testing.assert_allclose(t.probs, [0.1953, 0.3047, 0.3047, 0.1953], atol=5e-5)
        np.testing.assert_allclose(t.grid, [-1, -1 / 3, 1 / 3, 1], atol=1e-15)

    def test_shifted_mode(self):
        t = make_target(3, 1.0, 1.0, 1.0)
        assert int(np.argmax(t.probs)) == 7

    def test_normalization(self):
        t = make_target(3, 0.3, 0.7, 2.0)
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_target(2, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            make_target(2, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_target(4, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="not representable"):  # Python-float sigma**2 overflows
            make_target(2, 0.0, 1e308, 1.0)


class TestDistributionLoss:
    def test_zero_iff_identical(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        assert distribution_loss(p, p) == 0.0
        assert distribution_loss(p, p[::-1].copy()) > 0

    def test_hand_arithmetic(self):
        assert distribution_loss([1, 0, 0, 0], [0.25] * 4) == pytest.approx(0.75, abs=1e-15)

    def test_exactly_representable_target(self):
        t = make_target(2, 0.0, 1.0, 1.0)
        th1 = exact_loader_theta1(t.probs)
        probs = simkit.circuit_probabilities(build_two_qubit_loader([math.pi / 2, th1]))
        assert distribution_loss(probs, t) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            distribution_loss([0.5, 0.5], [1.0, 0.0, 0.0, 0.0])


class TestParameterShiftGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(30):
            n = int(rng.choice([2, 3]))
            builder = build_two_qubit_loader if n == 2 else build_three_qubit_loader
            thetas = rng.uniform(0, 2 * math.pi, n)
            target = rng.dirichlet(np.ones(2**n))
            g_shift = parameter_shift_gradient(builder, thetas, target)
            g_fd = finite_difference_gradient(builder, thetas, target)
            worst = max(worst, float(np.max(np.abs(g_shift - g_fd))))
        assert worst < 1e-6

    def test_zero_at_exact_minimum(self):
        t = make_target(2, 0.0, 1.0, 1.0)
        thetas = np.array([math.pi / 2, exact_loader_theta1(t.probs)])
        g = parameter_shift_gradient(build_two_qubit_loader, thetas, t)
        assert float(np.linalg.norm(g)) < 1e-9

    def test_single_qubit_closed_form(self):
        builder = lambda th: Circuit(1, [Gate.ry(0, float(th[0]))])
        g = parameter_shift_gradient(builder, [math.pi / 2], np.array([0.0, 1.0]))
        # L = 2 cos^4(t/2), dL/dt = -4 cos^3(t/2) sin(t/2) = -1 at t = pi/2
        assert g[0] == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_ry_parameterization(self):
        builder = lambda th: Circuit(1, [Gate.rz(0, float(th[0]))])
        with pytest.raises(ValueError):
            parameter_shift_gradient(builder, [0.4], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("builder", [
        lambda th: Circuit(2, [Gate.ry(0, 2 * th[0]), Gate.ry(1, th[1]), Gate.cnot(0, 1)]),
        lambda th: Circuit(2, [Gate.ry(0, th[0]), Gate.ry(1, th[0] + th[1]), Gate.cnot(0, 1)]),
    ], ids=["coefficient-2", "one-parameter-two-gates"])
    def test_rejects_what_the_shift_rule_gets_wrong(self, builder):
        target = make_target(2, 0.0, 0.8, 1.5)
        with pytest.raises(ValueError, match="shift rule"):
            parameter_shift_gradient(builder, [0.3, 1.1], target)

    def test_offset_ry_matches_finite_differences(self):
        builder = lambda th: Circuit(2, [Gate.ry(0, th[0] + 0.4), Gate.ry(1, th[1]), Gate.cnot(0, 1)])
        target = make_target(2, 0.0, 0.8, 1.5)
        g = parameter_shift_gradient(builder, [0.3, 1.1], target)
        np.testing.assert_allclose(g, finite_difference_gradient(builder, np.array([0.3, 1.1]), target), atol=1e-6)

    @pytest.mark.parametrize("builder, n", [
        (build_two_qubit_loader, 2),
        (build_three_qubit_loader, 3),
        (lambda th: Circuit(2, [Gate.ry(0, th[0]), Gate.cnot(0, 1), Gate.rz(1, 0.3)]), 2),
    ], ids=["2q", "3q", "parameter-moving-no-gate"])
    def test_equals_the_per_circuit_shift_rule(self, builder, n):
        rng = np.random.default_rng(21)
        for _ in range(50):
            thetas = rng.uniform(-2 * math.pi, 4 * math.pi, n)
            target = rng.dirichlet(np.ones(2**n))
            np.testing.assert_array_equal(parameter_shift_gradient(builder, thetas, target),
                                          reference_gradient(builder, thetas, target))

    @pytest.mark.parametrize("thetas", [[1e17, 1.0], [1.0, -1e17]], ids=["theta0", "theta1"])
    def test_rejects_a_shift_lost_to_rounding(self, thetas):
        with pytest.raises(ValueError, match="lost to rounding"):
            parameter_shift_gradient(build_two_qubit_loader, thetas, make_target(2, 0.0, 0.8, 1.5))

    def test_template_of_a_large_angle_has_coefficient_1(self):
        ansatz = variational.RyAnsatz(build_two_qubit_loader, [1e16 + 2, 1.0])
        assert ansatz.template.columns == (0, 1) and ansatz.params == [0, 1]
        np.testing.assert_array_equal(ansatz.offsets, [0.0, 0.0])

    def test_fixed_rz_gates_are_fine(self):
        builder = lambda th: Circuit(1, [Gate.ry(0, float(th[0])), Gate.rz(0, 0.7)])
        g = parameter_shift_gradient(builder, [0.3], np.array([1.0, 0.0]))
        assert math.isfinite(g[0])


def parameter_rows(n_params):
    """(B, P) parameter rows, B <= 8, with angles in [-4 pi, 4 pi]."""
    return hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(n_params)),
                      elements=st.floats(-4 * math.pi, 4 * math.pi))


class TestRyAnsatz:
    @pytest.mark.parametrize("builder, n", [(build_two_qubit_loader, 2), (build_three_qubit_loader, 3)],
                             ids=["2q", "3q"])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_rows_equal_rebuilt_loaders_bitwise(self, builder, n, data):
        rows = data.draw(parameter_rows(n))
        got = variational.RyAnsatz(builder, rows[0]).probabilities(rows)
        assert got.shape == (len(rows), 2**n)
        for row, probs in zip(rows, got):
            np.testing.assert_array_equal(probs, simkit.circuit_probabilities(builder(row)))

    def test_offset_rows_match_rebuilt_circuits(self):
        builder = lambda th: Circuit(2, [Gate.ry(0, th[0] + 0.4), Gate.ry(1, th[1]), Gate.cnot(0, 1)])
        rows = np.random.default_rng(5).uniform(-2 * math.pi, 2 * math.pi, size=(6, 2))
        got = variational.RyAnsatz(builder, [0.3, 1.1]).probabilities(rows)
        for row, probs in zip(rows, got):
            np.testing.assert_allclose(probs, simkit.circuit_probabilities(builder(row)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", [np.zeros(2), np.zeros((1, 3)), np.zeros((2, 1))],
                             ids=["1d", "too-many-parameters", "too-few-parameters"])
    def test_rejects_rows_of_the_wrong_shape(self, rows):
        with pytest.raises(ValueError, match="shape"):
            variational.RyAnsatz(build_two_qubit_loader, [0.3, 1.1]).probabilities(rows)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        state = AdamState.fresh(2)
        new_state, thetas = adam_step(state, [0.5, 1.5], [0.0, 0.0])
        assert new_state.step == 1
        np.testing.assert_allclose(thetas, [0.5, 1.5])

    def test_first_step_magnitude(self):
        state = AdamState.fresh(2, lr=0.1)
        _, thetas = adam_step(state, [1.0, 1.0], [1.0, 0.0])
        assert thetas[0] == pytest.approx(0.9, abs=1e-7)
        assert thetas[1] == pytest.approx(1.0, abs=1e-15)

    def test_constant_gradient_drifts_monotonically(self):
        state = AdamState.fresh(1, lr=0.05)
        thetas = np.array([2.0])
        history = [2.0]
        for _ in range(100):
            state, thetas = adam_step(state, thetas, [1.0])
            history.append(float(thetas[0]))
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.fresh(2), [0.1], [1.0])


class TestTrainLoader:
    def test_two_qubit_standard_normal_converges(self):
        report = train_loader(2, make_target(2, 0.0, 1.0, 1.0))
        assert report.converged
        assert report.iterations <= 500
        assert report.loss_history[-1] < 1e-8

    def test_three_qubit_reaches_representability_floor(self):
        # the 3-angle ansatz cannot express this grid exactly; its global
        # optimum sits at ~1.894e-4 (multi-start polish agrees)
        report = train_loader(3, make_target(3, 0.0, 1.0, 1.0))
        assert report.loss_history[-1] == pytest.approx(1.8941e-4, rel=1e-3)
        assert not report.converged

    def test_delta_target(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        target = TargetHistogram(2, 0.0, 1.0, 1.0, probs)
        report = train_loader(2, target, TrainConfig(seed=1))
        assert report.converged
        assert report.loss_history[-1] < 1e-8
        wrapped = np.degrees(report.final_thetas) % 360.0
        wrapped = np.minimum(wrapped, 360.0 - wrapped)
        assert np.all(wrapped < 1.0)

    def test_deterministic_reports(self):
        t = make_target(2, 0.0, 1.0, 1.0)
        a = train_loader(2, t, TrainConfig(seed=3))
        b = train_loader(2, t, TrainConfig(seed=3))
        assert np.array_equal(a.final_thetas, b.final_thetas)
        assert a.loss_history == b.loss_history
        assert a.iterations == b.iterations

    def test_symmetric_target_gives_symmetric_probs(self):
        # drive the loss well below the default tol so the pairwise asymmetry
        # (which scales like sqrt(loss)) lands under 1e-6
        report = train_loader(2, make_target(2, 0.0, 1.0, 1.0),
                              TrainConfig(seed=5, tol=1e-14, max_iters=5000))
        assert report.converged
        probs = simkit.circuit_probabilities(build_two_qubit_loader(report.final_thetas))
        assert abs(probs[0] - probs[3]) < 1e-6
        assert abs(probs[1] - probs[2]) < 1e-6

    def test_final_loss_matches_final_thetas(self):
        t = make_target(2, 0.0, 1.0, 1.0)
        report = train_loader(2, t, TrainConfig(seed=2, max_iters=50))
        probs = simkit.circuit_probabilities(build_two_qubit_loader(report.final_thetas))
        assert report.loss_history[-1] == pytest.approx(distribution_loss(probs, t), abs=1e-15)

    @pytest.mark.parametrize("n_qubits, mu, sigma, z_max", [
        (2, 0.0, 1.0, 1.0), (2, 0.3, 0.6, 1.5), (3, 0.0, 1.0, 1.0), (3, -0.4, 0.5, 2.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_per_circuit_training_loop(self, n_qubits, mu, sigma, z_max, seed):
        target = make_target(n_qubits, mu, sigma, z_max)
        config = TrainConfig(seed=seed, max_iters=300)
        report = train_loader(n_qubits, target, config)
        thetas, history, iterations = reference_train(n_qubits, target, config)
        assert report.loss_history == history
        np.testing.assert_array_equal(report.final_thetas, thetas)
        assert report.iterations == iterations

    def test_target_length_checked(self):
        with pytest.raises(ValueError):
            train_loader(3, make_target(2, 0.0, 1.0, 1.0))

    def test_report_serialization(self):
        report = train_loader(2, make_target(2, 0.0, 1.0, 1.0), TrainConfig(max_iters=20))
        data = report.to_dict()
        assert len(data["final_thetas_deg"]) == 2
        assert data["final_loss"] == report.loss_history[-1]
        assert data["seed"] == 0

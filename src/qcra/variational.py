"""Target histograms, quadratic distribution loss, shift-rule gradients, Adam loop.

Gradients and fits work on an ansatz's template, taken once from its
builder: the circuit at given angles, the RY gate each parameter moves, and
that gate's offset (gate angle = theta + offset). Every angle set the loss
and the shift rule need is then bound into the template and simulated as
one batch with `simkit.batch_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import simkit
from .circuits import build_three_qubit_loader, build_two_qubit_loader
from .simkit import Circuit

SHIFT = math.pi / 2.0  # parameter-shift offset for RY generators

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class TargetHistogram:
    """Discrete normal target on the affine grid over [-z_max, z_max]."""

    n_qubits: int
    mu: float
    sigma: float
    z_max: float
    probs: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        dim = 2**self.n_qubits
        step = 2.0 * self.z_max / (dim - 1)
        return -self.z_max + step * np.arange(dim)


def make_target(n_qubits: int, mu: float, sigma: float, z_max: float) -> TargetHistogram:
    """The normal weights exp(-(z - mu)^2 / 2 sigma^2) on the grid, normalised.

    A target whose grid or weights overflow, or whose weights all underflow
    to zero, raises ValueError.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if z_max <= 0:
        raise ValueError(f"z_max must be positive, got {z_max}")
    if n_qubits not in (2, 3):
        raise ValueError(f"targets are defined for 2 or 3 qubits, got {n_qubits}")
    dim = 2**n_qubits
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            z = -z_max + (2.0 * z_max / (dim - 1)) * np.arange(dim)
            w = np.exp(-((z - mu) ** 2) / (2.0 * sigma**2))
            probs = w / w.sum()
    except (FloatingPointError, OverflowError) as exc:  # OverflowError: Python-float sigma**2
        raise ValueError(f"target N(mu={mu}, sigma={sigma}) on [-{z_max}, {z_max}] "
                         f"is not representable: {exc}") from None
    return TargetHistogram(n_qubits, mu, sigma, z_max, probs)


def distribution_loss(probs: Sequence[float], target) -> float:
    """Quadratic distance sum_b (p_b - p*_b)^2."""
    t = np.asarray(getattr(target, "probs", target), dtype=float)
    p = np.asarray(probs, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    d = p - t
    return float(d @ d)


CircuitBuilder = Callable[[np.ndarray], Circuit]


def loader_builder(n_qubits: int) -> CircuitBuilder:
    if n_qubits == 2:
        return build_two_qubit_loader
    if n_qubits == 3:
        return build_three_qubit_loader
    raise ValueError(f"no loader ansatz for {n_qubits} qubits")


def ry_template(builder: CircuitBuilder, thetas: np.ndarray
                ) -> tuple[Circuit, list[int | None], np.ndarray]:
    """The template of an RY ansatz: its circuit at `thetas`, the gate each
    parameter moves, and that gate's offset.

    Parameter i moves at most one gate, gate columns[i] (None if it moves
    none), an RY whose angle is thetas[i] + offsets[i]. The two-point pi/2
    shift rule is exact only in that form; a parameter in two gates or in
    RY(2 theta) would get a silently wrong gradient, so those are rejected.
    """
    circuit = builder(thetas)
    ref = circuit.gates
    columns: list[int | None] = []
    offsets = np.zeros(len(thetas))
    for i in range(len(thetas)):
        shifted = np.array(thetas, dtype=float)
        shifted[i] += 1.0
        moved = []
        for k, (a, b) in enumerate(zip(ref, builder(shifted).gates, strict=True)):
            if (a.kind, a.qubits) != (b.kind, b.qubits):
                raise ValueError("ansatz structure must not depend on the parameters")
            if a.angle != b.angle:
                if a.kind != "ry":
                    raise ValueError(f"shift rule requires RY-parameterized gates, found {a.kind}")
                moved.append((k, b.angle - a.angle))
        if len(moved) > 1:
            raise ValueError(f"parameter {i} moves {len(moved)} gates; the shift rule needs one")
        if not moved:
            columns.append(None)
            continue
        k, coeff = moved[0]
        if abs(coeff - 1.0) > 1e-9:
            raise ValueError(f"parameter {i} enters its RY with coefficient {coeff:.6g}; "
                             "the shift rule needs 1")
        columns.append(k)
        offsets[i] = ref[k].angle - thetas[i]
    return circuit, columns, offsets


def _shift_rule_probs(circuit: Circuit, columns: list[int | None], angles: np.ndarray) -> np.ndarray:
    """Probabilities of the template with parameter i's gate at angles[i]
    (row 0), shifted by +pi/2 (row 1 + i) and by -pi/2 (row 1 + P + i), in one
    batched simulation.

    A parameter that moves no gate keeps the row-0 angles in its shifted rows.
    """
    n_params = len(columns)
    moved = [i for i, k in enumerate(columns) if k is not None]
    rows = np.tile(angles[moved], (2 * n_params + 1, 1))
    for j, i in enumerate(moved):
        rows[1 + i, j] += SHIFT
        rows[1 + n_params + i, j] -= SHIFT
    return simkit.batch_probabilities(circuit, [columns[i] for i in moved], rows)


def _shift_rule_gradient(probs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dL/dt_i = sum_b 2 (p_b - p*_b) dp_b/dt_i from the rows of `_shift_rule_probs`."""
    n_params = (len(probs) - 1) // 2
    dp = 0.5 * (probs[1:n_params + 1] - probs[n_params + 1:])
    return np.sum(2.0 * (probs[0] - target) * dp, axis=1)


def parameter_shift_gradient(builder: CircuitBuilder, thetas: Sequence[float], target) -> np.ndarray:
    """Exact gradient of the quadratic loss via the two-point shift rule.

    dp_b/dt_i = [p_b(t + pi/2 e_i) - p_b(t - pi/2 e_i)] / 2, chained into
    dL/dt_i = sum_b 2 (p_b - p*_b) dp_b/dt_i. The builder's template is taken
    at `thetas` and its 2P + 1 circuits are simulated as one batch.
    """
    thetas = np.asarray(thetas, dtype=float)
    circuit, columns, offsets = ry_template(builder, thetas)
    t = np.asarray(getattr(target, "probs", target), dtype=float)
    return _shift_rule_gradient(_shift_rule_probs(circuit, columns, thetas + offsets), t)


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 0.1

    @classmethod
    def fresh(cls, n_params: int, lr: float = 0.1) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params), lr)


def adam_step(state: AdamState, thetas: Sequence[float], gradient: Sequence[float]) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameters."""
    g = np.asarray(gradient, dtype=float)
    th = np.asarray(thetas, dtype=float)
    if g.shape != th.shape or g.shape != state.m.shape:
        raise ValueError("gradient, parameters and moments must share a shape")
    t = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_thetas = th - state.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
    return AdamState(t, m, v, state.lr), new_thetas


@dataclass
class TrainConfig:
    lr: float = 0.1
    max_iters: int = 2000
    tol: float = 1e-8
    seed: int = 0


@dataclass
class TrainReport:
    final_thetas: np.ndarray
    loss_history: list[float]
    converged: bool
    iterations: int
    seed: int
    initial_thetas: np.ndarray = field(default_factory=lambda: np.array([]))

    def to_dict(self) -> dict:
        return {
            "final_thetas_deg": [math.degrees(t) for t in self.final_thetas],
            "initial_thetas_deg": [math.degrees(t) for t in self.initial_thetas],
            "final_loss": self.loss_history[-1],
            "loss_history": list(self.loss_history),
            "converged": self.converged,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def train_loader(n_qubits: int, target: TargetHistogram, config: TrainConfig | None = None) -> TrainReport:
    """Fit the loader ansatz to a target histogram with shift-rule Adam descent.

    Initialization draws each angle uniformly from [0, 2 pi) with the config
    seed, so reports are reproducible bit for bit. The ansatz template is
    taken once; each Adam step is then one batched simulation of the 2P + 1
    angle bindings the loss and its shift-rule gradient need.
    """
    config = config or TrainConfig()
    t = np.asarray(target.probs, dtype=float)
    if t.shape != (2**n_qubits,):
        raise ValueError("target length must be 2^n_qubits")
    builder = loader_builder(n_qubits)
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=n_qubits)
    initial = thetas.copy()
    circuit, columns, offsets = ry_template(builder, thetas)
    state = AdamState.fresh(n_qubits, config.lr)
    history: list[float] = []
    iterations = 0
    while True:
        # row 0 is the loss at the current angles, rows 1..2P the next gradient
        probs = _shift_rule_probs(circuit, columns, thetas + offsets)
        history.append(distribution_loss(probs[0], t))
        converged = history[-1] < config.tol
        if converged or iterations >= config.max_iters:
            break
        state, thetas = adam_step(state, thetas, _shift_rule_gradient(probs, t))
        iterations += 1
    return TrainReport(thetas, history, converged, iterations, config.seed, initial)

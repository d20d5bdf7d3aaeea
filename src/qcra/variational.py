"""Target histograms, quadratic distribution loss, shift-rule gradients, Adam loop.

`RyAnsatz` is the one parameterised-circuit form: it probes a builder once
for its `simkit.Template` (the circuit with the RY gate of each parameter
left open), each gate's offset (gate angle = theta + offset) and the
constant +-pi/2 shift matrix. Sweeps bind a grid of parameter rows through
it in one batched simulation; gradients and each Adam step of a fit are one
batched simulation of the 2P + 1 rows of the loss and its shift rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class RyAnsatz:
    """An RY ansatz probed once from its builder: its `simkit.Template` and how
    parameter rows bind into it.

    Parameter params[j] moves one gate, column j of the template: an RY whose
    angle is theta + offsets[j]. The builder is probed at 0 and at each unit
    vector, where no angle is lost to rounding, and its structure is checked
    at `thetas`. The two-point pi/2 shift rule is exact only in that form; a
    parameter in two gates or in RY(2 theta) would get a silently wrong
    gradient, so those are rejected. A parameter that moves no gate is
    dropped from the binding.
    """

    def __init__(self, builder: CircuitBuilder, thetas: Sequence[float]):
        circuit = builder(thetas)
        n_params = len(thetas)
        base = builder(np.zeros(n_params)).gates
        columns, params, offsets = [], [], []
        for i in range(n_params):
            unit = np.zeros(n_params)
            unit[i] = 1.0
            moved = []
            for k, (a, b, c) in enumerate(zip(base, builder(unit).gates, circuit.gates, strict=True)):
                if not (a.kind, a.qubits) == (b.kind, b.qubits) == (c.kind, c.qubits):
                    raise ValueError("ansatz structure must not depend on the parameters")
                if a.angle != b.angle:
                    if a.kind != "ry":
                        raise ValueError(f"shift rule requires RY-parameterized gates, found {a.kind}")
                    moved.append((k, b.angle - a.angle))
            if len(moved) > 1:
                raise ValueError(f"parameter {i} moves {len(moved)} gates; the shift rule needs one")
            if not moved:
                continue
            k, coeff = moved[0]
            if abs(coeff - 1.0) > 1e-9:
                raise ValueError(f"parameter {i} enters its RY with coefficient {coeff:.6g}; "
                                 "the shift rule needs 1")
            columns.append(k)
            params.append(i)
            offsets.append(base[k].angle)
        self.n_params = n_params
        self.template = simkit.Template(circuit, columns)
        self.params = params
        self.offsets = np.array(offsets)
        # Added to the bound angles: row 0 keeps them, row 1 + i shifts parameter
        # i's gate by +pi/2 and row 1 + P + i by -pi/2.
        moves = np.eye(n_params)[:, params]
        self.shifts = SHIFT * np.vstack([np.zeros(len(params)), moves, -moves])

    def probabilities(self, param_rows) -> np.ndarray:
        """The (B, 2^n) probability rows of (B, P) parameter rows, in one batched simulation."""
        rows = np.asarray(param_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_params:
            raise ValueError(f"parameter rows must have shape (B, {self.n_params}), got {rows.shape}")
        return self.template.probabilities(rows[:, self.params] + self.offsets)

    def shift_rule(self, thetas: np.ndarray) -> np.ndarray:
        """The 2P + 1 probability rows of the loss and its shift-rule gradient at
        `thetas`: row 0 at theta, rows 1..2P at theta +- pi/2 e_i.

        A parameter so large that its +-pi/2 shift is lost to rounding (by
        more than 1e-9) raises ValueError: its gradient would read 0.
        """
        angles = thetas[self.params] + self.offsets
        for i, a in zip(self.params, angles.tolist()):
            if abs((a + SHIFT) - a - SHIFT) > 1e-9 or abs((a - SHIFT) - a + SHIFT) > 1e-9:
                raise ValueError(f"parameter {i} = {thetas[i]!r} is too large for the shift rule: "
                                 "its pi/2 shift is lost to rounding")
        return self.template.probabilities(angles + self.shifts)


def _shift_rule_gradient(probs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dL/dt_i = sum_b 2 (p_b - p*_b) dp_b/dt_i from the rows of `RyAnsatz.shift_rule`."""
    n_params = (len(probs) - 1) // 2
    dp = 0.5 * (probs[1:n_params + 1] - probs[n_params + 1:])
    return (2.0 * (probs[0] - target) * dp).sum(axis=1)


def parameter_shift_gradient(builder: CircuitBuilder, thetas: Sequence[float], target) -> np.ndarray:
    """Exact gradient of the quadratic loss via the two-point shift rule.

    dp_b/dt_i = [p_b(t + pi/2 e_i) - p_b(t - pi/2 e_i)] / 2, chained into
    dL/dt_i = sum_b 2 (p_b - p*_b) dp_b/dt_i. The builder's template is taken
    at `thetas` and its 2P + 1 circuits are simulated as one batch.
    """
    thetas = np.asarray(thetas, dtype=float)
    t = np.asarray(getattr(target, "probs", target), dtype=float)
    return _shift_rule_gradient(RyAnsatz(builder, thetas).shift_rule(thetas), t)


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
    initial_thetas: np.ndarray

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
    seed, so reports are reproducible bit for bit. The ansatz is probed once;
    each Adam step is then one batched simulation of its `shift_rule` rows.
    """
    config = config or TrainConfig()
    t = np.asarray(target.probs, dtype=float)
    if t.shape != (2**n_qubits,):
        raise ValueError("target length must be 2^n_qubits")
    builder = loader_builder(n_qubits)
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=n_qubits)
    initial = thetas.copy()
    ansatz = RyAnsatz(builder, thetas)
    state = AdamState.fresh(n_qubits, config.lr)
    history: list[float] = []
    iterations = 0
    while True:
        # row 0 is the loss at the current angles, rows 1..2P the next gradient
        probs = ansatz.shift_rule(thetas)
        history.append(distribution_loss(probs[0], t))
        converged = history[-1] < config.tol
        if converged or iterations >= config.max_iters:
            break
        state, thetas = adam_step(state, thetas, _shift_rule_gradient(probs, t))
        iterations += 1
    return TrainReport(thetas, history, converged, iterations, config.seed, initial)

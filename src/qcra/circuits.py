"""Builders for the distribution-loading circuits and their closed-form angle math.

The two-qubit loader is RY(t0) on q0, RY(t1) on q1, CNOT(0,1); the
three-qubit loader adds RY(t2) on q2 and CNOT(0,2). With t0 an odd multiple
of pi/2 the output histogram is symmetric under b <-> (2^n - 1 - b), and the
half-angle inequalities below pick bell-shaped profiles over the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .finmodel import GciModel
from .simkit import Circuit, Gate

TWO_PI = 2.0 * math.pi

# Fixed single-qubit phases of the hardware-ready circuit (degrees, as printed
# on the gate boxes; opaque constants, not derived from model parameters).
TRANSPILED_RZ_Q0 = (-44.40, -125.47)
TRANSPILED_RZ_Q2 = (-125.47, -90.0)
TRANSPILED_COUNTER_PHASE_DEG = -135.0


class ConcavityClass(Enum):
    GAUSSIAN_LIKE = "gaussian_like"
    INVERTED = "inverted"
    UNIFORM = "uniform"


_CONCAVITY_CODES = (ConcavityClass.UNIFORM, ConcavityClass.GAUSSIAN_LIKE, ConcavityClass.INVERTED)


def build_two_qubit_loader(thetas: Sequence[float]) -> Circuit:
    """RY-RY-CNOT loader; thetas in radians."""
    if len(thetas) != 2:
        raise ValueError(f"two-qubit loader takes 2 angles, got {len(thetas)}")
    t0, t1 = (float(t) for t in thetas)
    gates = [Gate.ry(0, t0), Gate.ry(1, t1), Gate.cnot(0, 1)]
    return Circuit(2, gates)


def build_three_qubit_loader(thetas: Sequence[float]) -> Circuit:
    """Three-qubit loader: per-qubit RY column, then CNOT(0,1) and CNOT(0,2)."""
    if len(thetas) != 3:
        raise ValueError(f"three-qubit loader takes 3 angles, got {len(thetas)}")
    t0, t1, t2 = (float(t) for t in thetas)
    gates = [Gate.ry(0, t0), Gate.ry(1, t1), Gate.ry(2, t2),
             Gate.cnot(0, 1), Gate.cnot(0, 2)]
    return Circuit(3, gates)


def two_qubit_amplitudes_analytic(theta0: float, theta1: float) -> np.ndarray:
    """Closed-form output amplitudes of the two-qubit loader.

    The CNOT swaps the |10> and |11> entries of the product state, giving
    [c0 c1, c0 s1, s0 s1, s0 c1] with ci = cos(ti/2), si = sin(ti/2).
    """
    c0, s0 = math.cos(theta0 / 2), math.sin(theta0 / 2)
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    return np.array([c0 * c1, c0 * s1, s0 * s1, s0 * c1])


def three_qubit_amplitudes_analytic(theta1: float, theta2: float) -> np.ndarray:
    """Closed-form three-qubit loader amplitudes for theta0 = pi/2.

    The pair of CNOTs controlled on q0 swaps |100><->|101| and |110><->|111>
    relative to the product state, yielding a vector symmetric under
    b <-> 7 - b.
    """
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    r = 1.0 / math.sqrt(2.0)
    return r * np.array([c1 * c2, c1 * s2, s1 * c2, s1 * s2,
                         s1 * s2, s1 * c2, c1 * s2, c1 * c2])


def _dist_to_odd_half_pi(theta: float) -> float:
    """Angular distance to the nearest odd multiple of pi/2."""
    m = theta / (math.pi / 2.0)
    nearest_odd = 2.0 * round((m - 1.0) / 2.0) + 1.0
    return abs(theta - nearest_odd * math.pi / 2.0)


def _dist_to_multiple(x: float, period: float) -> float:
    return abs(x - period * round(x / period))


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    central_mass: bool
    ring_ordering: bool | None = None


def check_symmetry_conditions(theta0: float, theta1: float, theta2: float | None = None,
                              tol: float = 1e-9) -> SymmetryReport:
    """Evaluate the analytic angle conditions for a symmetric bell-shaped output.

    Two qubits: theta0 and theta1 must both sit on odd multiples of pi/2.
    Three qubits: theta0 on an odd multiple of pi/2 and theta2 = 2 pi n +- theta1.
    central_mass holds when cos(theta1/2) < sin(theta1/2) (strictly), pushing
    probability onto the inner basis states; ring_ordering is the analogous
    strict inequality on theta2.
    """
    theta0_ok = _dist_to_odd_half_pi(theta0) < tol
    if theta2 is None:
        symmetric = theta0_ok and _dist_to_odd_half_pi(theta1) < tol
        ring = None
    else:
        paired = (_dist_to_multiple(theta2 - theta1, TWO_PI) < tol
                  or _dist_to_multiple(theta2 + theta1, TWO_PI) < tol)
        symmetric = theta0_ok and paired
        ring = (math.sin(theta2 / 2) - math.cos(theta2 / 2)) > 1e-12
    central = (math.sin(theta1 / 2) - math.cos(theta1 / 2)) > 1e-12
    return SymmetryReport(symmetric=symmetric, central_mass=central, ring_ordering=ring)


def classify_concavity(probs: Sequence[float], tol: float = 1e-3) -> ConcavityClass | list[ConcavityClass]:
    """UNIFORM / GAUSSIAN_LIKE / INVERTED by comparing outer and inner pair means.

    Takes one length-4 or length-8 vector, or (B, 4) or (B, 8) rows, for which
    it returns one label per row; a row gets exactly the arithmetic of a lone call.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a nonnegative finite number, got {tol}")
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] not in (4, 8):
        raise ValueError(f"expected a length-4 or length-8 vector, got shape {p.shape}")
    mid = p.shape[-1] // 2
    excess = 0.5 * (p[..., mid - 1] + p[..., mid]) - 0.5 * (p[..., 0] + p[..., -1])  # inner - outer
    flat = p.max(axis=-1) - p.min(axis=-1) < tol
    codes = np.where(flat, 0, np.where(excess > tol, 1, np.where(excess < -tol, 2, 0)))
    labels = [_CONCAVITY_CODES[c] for c in codes.reshape(-1)]
    return labels if p.ndim == 2 else labels[0]


def build_gci_ideal(model: GciModel, loader_thetas: Sequence[float] = (math.pi / 2, math.pi / 2)) -> Circuit:
    """Idealized model circuit: two-qubit loader plus linear rotation onto q2.

    The asset qubit receives RY(2 beta_tilde) and one controlled RY per
    z-register qubit, with angle 2 alpha_tilde 2^j for z-qubit j (q0 carries
    weight 2^0), so the total rotation is 2(alpha_tilde z_code + beta_tilde).
    """
    if model.n_z != 2:
        raise ValueError(f"only the 2-qubit z-register instance is supported, got n_z={model.n_z}")
    if len(loader_thetas) != 2:
        raise ValueError(f"the ideal GCI circuit takes 2 loader angles, got {len(loader_thetas)}")
    t0, t1 = (float(t) for t in loader_thetas)
    gates = [
        Gate.ry(0, t0),
        Gate.ry(1, t1),
        Gate.cnot(0, 1),
        Gate.ry(2, 2.0 * model.beta_tilde),
        Gate.cry(0, 2, 2.0 * model.alpha_tilde),
        Gate.cry(1, 2, 2.0 * model.alpha_tilde * 2.0),
    ]
    return Circuit(3, gates)


def build_gci_transpiled(thetas: Sequence[float]) -> Circuit:
    """Hardware-ready circuit: CNOTs lowered to H/CZ/H with fixed phase gates.

    thetas = (t0..t4) in radians: loader angles t0, t1, asset preparation t2,
    and the tail hyperparameters t3 (on q2) and t4 (on q0). The first CNOT
    carries the -135 degree counter-phase between its leading H and the CZ;
    the remaining single-qubit RZ angles are fixed constants.
    """
    if len(thetas) != 5:
        raise ValueError(f"the transpiled GCI circuit takes 5 angles, got {len(thetas)}")
    t0, t1, t2, t3, t4 = (float(t) for t in thetas)
    rz0_pre, rz0_post = (math.radians(d) for d in TRANSPILED_RZ_Q0)
    rz2_pre, rz2_post = (math.radians(d) for d in TRANSPILED_RZ_Q2)
    gates = [
        Gate.ry(0, t0),
        Gate.ry(1, t1),
        Gate.ry(2, t2),
        Gate.h(1),
        Gate.rz(1, math.radians(TRANSPILED_COUNTER_PHASE_DEG)),
        Gate.cz(0, 1),
        Gate.h(1),
        Gate.h(2),
        Gate.cz(0, 2),
        Gate.h(2),
        Gate.rz(0, rz0_pre),
        Gate.rz(2, rz2_pre),
        Gate.ry(0, t4),
        Gate.ry(2, t3),
        Gate.rz(0, rz0_post),
        Gate.rz(2, rz2_post),
    ]
    return Circuit(3, gates)

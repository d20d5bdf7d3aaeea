"""Latent-factor credit model: normal functions, linearized default probability.

The conditional default probability PD(z) = Phi((Phi^-1(p0) - sqrt(rho) z) / sqrt(1 - rho))
is linearized around z = 0 in arcsin-sqrt space, giving the slope/offset pair
(alpha, beta) with PD(z) ~ sin^2(alpha z + beta). On an n-qubit grid over
[-z_max, z_max] the pair is rescaled to (alpha_tilde, beta_tilde) so the
rotation angle depends affinely on the encoded integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .simkit import MAX_QUBITS, is_finite_real


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Rational approximation coefficients (relative error < 1.2e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: rational estimate plus one Halley step."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile requires p in (0, 1), got {p}")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # Halley refinement against the erfc-based CDF
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def linearize(p0: float, rho: float) -> tuple[float, float, float]:
    """First-order (slope, offset) of arcsin(sqrt(PD(z))) at z = 0.

    Returns (alpha, beta, psi) with psi = Phi^-1(p0)/sqrt(1-rho),
    beta = arcsin(sqrt(Phi(psi))) and alpha the chain-rule derivative.
    """
    if not (0.0 < p0 < 1.0):
        raise ValueError(f"p0 must be in (0, 1), got {p0}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    psi = normal_quantile(p0) / math.sqrt(1.0 - rho)
    phi_psi = normal_cdf(psi)
    beta = math.asin(math.sqrt(phi_psi))
    alpha = (-(1.0 / math.sqrt(1.0 - phi_psi))
             * (1.0 / (2.0 * math.sqrt(phi_psi)))
             * normal_pdf(psi)
             * math.sqrt(rho) / math.sqrt(1.0 - rho))
    return alpha, beta, psi


@dataclass
class GciModel:
    """One-asset, one-factor model parameters plus derived rotation constants."""

    p0: float
    rho: float
    lgd: float
    n_z: int
    z_max: float
    psi: float = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)
    alpha_tilde: float = field(init=False)
    beta_tilde: float = field(init=False)

    def __post_init__(self):
        if self.lgd < 0:
            raise ValueError(f"lgd must be nonnegative, got {self.lgd}")
        if not 1 <= self.n_z < MAX_QUBITS:  # the register holds one asset qubit too
            raise ValueError(f"n_z must be in [1, {MAX_QUBITS - 1}], got {self.n_z}")
        if self.z_max <= 0:
            raise ValueError(f"z_max must be positive, got {self.z_max}")
        self.alpha, self.beta, self.psi = linearize(self.p0, self.rho)
        self.alpha_tilde = self.delta_z * self.alpha
        self.beta_tilde = self.beta - self.alpha * self.z_max

    @property
    def delta_z(self) -> float:
        return 2.0 * self.z_max / (2**self.n_z - 1)

    def z_of_code(self, z_code: int) -> float:
        return -self.z_max + z_code * self.delta_z

    def to_dict(self) -> dict:
        return {"p0": self.p0, "rho": self.rho, "lgd": self.lgd,
                "n_z": self.n_z, "z_max": self.z_max}

    @classmethod
    def from_dict(cls, data: dict) -> "GciModel":
        if not isinstance(data, dict):
            raise ValueError(f"a model must be a JSON object, got {type(data).__name__}")
        bad = [k for k in ("p0", "rho", "lgd", "n_z", "z_max") if not is_finite_real(data[k])]
        if bad:
            raise ValueError(f"model fields {bad} must be finite numbers")
        if not float(data["n_z"]).is_integer():
            raise ValueError(f"model field n_z must be an integer, got {data['n_z']!r}")
        return cls(p0=float(data["p0"]), rho=float(data["rho"]), lgd=float(data["lgd"]),
                   n_z=int(data["n_z"]), z_max=float(data["z_max"]))


def pd_exact(model: GciModel, z: float) -> float:
    """Conditional default probability at latent factor value z."""
    return normal_cdf((normal_quantile(model.p0) - math.sqrt(model.rho) * z)
                      / math.sqrt(1.0 - model.rho))


def pd_approx(model: GciModel, z: float) -> float:
    """Linearized default probability sin^2(alpha z + beta)."""
    return math.sin(model.alpha * z + model.beta) ** 2


def coded_rotation_angle(model: GciModel, z_code: int) -> float:
    """Rotation angle 2(alpha_tilde * z_code + beta_tilde) for an encoded grid point."""
    if not (0 <= z_code < 2**model.n_z):
        raise ValueError(f"z_code {z_code} out of range for {model.n_z}-qubit register")
    return 2.0 * (model.alpha_tilde * z_code + model.beta_tilde)

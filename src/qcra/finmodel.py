"""Latent-factor credit model: normal functions, linearized default probability.

The conditional default probability PD(z) = Phi((Phi^-1(p0) - sqrt(rho) z) / sqrt(1 - rho))
is linearized around z = 0 in arcsin-sqrt space, giving the slope/offset pair
(alpha, beta) with PD(z) ~ sin^2(alpha z + beta). On an n-qubit grid over
[-z_max, z_max] the pair is rescaled to (alpha_tilde, beta_tilde) so the
rotation angle depends affinely on the encoded integer.

Phi^-1 is the standard library's `statistics.NormalDist().inv_cdf` (Wichura's
AS241, within 1e-15 relative of mpmath); Phi is computed from `math.erfc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

from .simkit import MAX_QUBITS, json_fields


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS241, via statistics.NormalDist)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile requires p in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


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
    if not 0.0 < phi_psi < 1.0:  # the slope divides by sqrt(Phi(psi) (1 - Phi(psi)))
        raise ValueError(f"p0 = {p0} and rho = {rho} put Phi(psi) = {phi_psi} at the edge of (0, 1)")
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
    def from_dict(cls, data) -> "GciModel":
        """The model of a parsed JSON object {p0, rho, lgd, n_z, z_max}, n_z an integer; a
        non-object or an unknown, missing or mistyped field raises ValueError."""
        json_fields(data, "model", {"p0": "number", "rho": "number", "lgd": "number", "n_z": "integer",
                                    "z_max": "number"}, {})
        return cls(p0=float(data["p0"]), rho=float(data["rho"]), lgd=float(data["lgd"]),
                   n_z=data["n_z"], z_max=float(data["z_max"]))


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

"""Loss-distribution post-processing: decode counts, PDF/CDF, EL, VaR, CVaR.

Outcomes are basis indices: entry i of a probability or count vector is
outcome i. Its most significant bits are the default indicators, one per
asset, and its low bits are the latent-factor (z) code. Every set default
bit adds its LGD to the scenario loss, and the z code accumulates the z
marginal. Identical losses are collapsed on integer cents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simkit
from .circuits import build_gci_ideal, build_gci_transpiled
from .finmodel import GciModel
from .noise import ConfusionMatrix, ShotCounts, apply_confusion, sample_shots


@dataclass(frozen=True)
class RegisterLayout:
    """Bit positions of default indicators (leftmost) and z-register (rightmost)."""

    asset_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    lgd_per_asset: tuple[float, ...]

    def __post_init__(self):
        n = len(self.asset_bits) + len(self.z_bits)
        if self.asset_bits != tuple(range(len(self.asset_bits))):
            raise ValueError("asset bits must form the leftmost block")
        if self.z_bits != tuple(range(len(self.asset_bits), n)):
            raise ValueError("z bits must form the rightmost block")
        if len(self.lgd_per_asset) != len(self.asset_bits):
            raise ValueError("one LGD per asset bit")
        # every decoded loss is a sum of LGDs rounded on cents, so the largest must stay finite
        if not (all(lgd >= 0.0 for lgd in self.lgd_per_asset)
                and math.isfinite(100.0 * sum(self.lgd_per_asset))):
            raise ValueError(f"LGDs must be nonnegative with a finite total in cents, got {self.lgd_per_asset}")

    @property
    def n_bits(self) -> int:
        return len(self.asset_bits) + len(self.z_bits)


@dataclass
class LossDistribution:
    losses: np.ndarray          # ascending distinct loss values
    pdf: np.ndarray
    cdf: np.ndarray
    expected_loss: float
    z_marginal: np.ndarray


def decode_counts(outcomes, layout: RegisterLayout) -> LossDistribution:
    """Turn measurement outcomes (ShotCounts or exact probabilities) into losses."""
    if isinstance(outcomes, ShotCounts):
        outcomes = outcomes.frequencies()
    weights = np.asarray(outcomes, dtype=float)
    n = layout.n_bits
    if weights.shape != (2**n,):
        raise ValueError(f"expected {2**n} outcome weights, got {weights.shape}")
    index = np.flatnonzero(weights)
    weights = weights[index]
    loss = np.zeros(len(index))
    for bit, lgd in zip(layout.asset_bits, layout.lgd_per_asset):
        loss[(index >> (n - 1 - bit)) & 1 == 1] += lgd
    cents, atom = np.unique(np.rint(loss * 100), return_inverse=True)
    losses = cents / 100.0
    pdf = np.bincount(atom, weights)
    n_z = len(layout.z_bits)
    z_marginal = np.bincount(index & (2**n_z - 1), weights, minlength=2**n_z)
    return LossDistribution(losses, pdf, np.cumsum(pdf), float(losses @ pdf), z_marginal)


def var(dist: LossDistribution, level: float) -> float:
    """Smallest loss L with CDF(L) >= level."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    idx = int(np.searchsorted(dist.cdf, level - 1e-12, side="left"))
    idx = min(idx, len(dist.losses) - 1)
    return float(dist.losses[idx])


def cvar(dist: LossDistribution, level: float) -> float:
    """Expected loss in the tail beyond VaR, with the boundary atom split.

    cvar = [sum_{L > VaR} L p(L) + VaR (CDF(VaR) - level)] / (1 - level),
    clamped to the largest loss, which rounding in the CDF can overshoot.
    """
    v = var(dist, level)
    idx = int(np.searchsorted(dist.losses, v))
    tail = float(dist.losses[idx + 1:] @ dist.pdf[idx + 1:])
    boundary = v * (float(dist.cdf[idx]) - level)
    return min((tail + boundary) / (1.0 - level), float(dist.losses[-1]))


def gci_layout(model: GciModel) -> RegisterLayout:
    return RegisterLayout(asset_bits=(0,), z_bits=tuple(range(1, 1 + model.n_z)),
                          lgd_per_asset=(model.lgd,))


def run_gci_pipeline(model: GciModel, circuit: str = "ideal",
                     loader_thetas: Sequence[float] = (math.pi / 2, math.pi / 2),
                     transpiled_thetas: Sequence[float] | None = None,
                     confusion: ConfusionMatrix | None = None,
                     shots: int | None = None, seed: int = 0,
                     levels: Sequence[float] = (0.95,)) -> tuple[LossDistribution, dict]:
    """Simulate the model circuit and post-process into a loss distribution.

    The simulator output is reindexed so the asset qubit is the most
    significant bit of every outcome index (the z-register fills the low
    bits, with q0 as the least significant z bit, matching the
    controlled-rotation weights). Readout confusion, when given, holds one
    factor per circuit qubit and acts on the exact probabilities in the
    simulator's order, before that reindexing and before sampling.
    """
    if circuit == "ideal":
        circ = build_gci_ideal(model, loader_thetas)
    elif circuit == "transpiled":
        if transpiled_thetas is None:
            raise ValueError("transpiled circuit requires 5 angles")
        circ = build_gci_transpiled(transpiled_thetas)
    else:
        raise ValueError(f"unknown circuit choice {circuit!r}")
    probs = simkit.born_probabilities(simkit.simulate(circ))
    if confusion is not None:
        probs = apply_confusion(probs, confusion)
    # q0 q1 q2 -> q2 q1 q0: asset most significant, z-register low bits
    observed = simkit.convert_bit_order(probs, circ.n_qubits)
    if shots is not None:
        observed = sample_shots(observed, shots, seed).frequencies()
    dist = decode_counts(observed, gci_layout(model))
    p_default = float(np.sum(observed[len(observed) // 2:]))  # asset bit set
    report = {
        "p_default": p_default,
        "expected_loss": dist.expected_loss,
        "var": {str(lv): var(dist, lv) for lv in levels},
        "cvar": {str(lv): cvar(dist, lv) for lv in levels},
        "z_marginal": dist.z_marginal.tolist(),
        "losses": dist.losses.tolist(),
        "pdf": dist.pdf.tolist(),
        "cdf": dist.cdf.tolist(),
        "config_echo": {
            "model": model.to_dict(),
            "circuit": circuit,
            "loader_thetas_deg": [math.degrees(t) for t in loader_thetas],
            "transpiled_thetas_deg": ([math.degrees(t) for t in transpiled_thetas]
                                      if transpiled_thetas is not None else None),
            "shots": shots,
            "levels": list(levels),
            "readout": confusion.to_dict() if confusion is not None else None,
        },
        "seed": seed,
    }
    return dist, report

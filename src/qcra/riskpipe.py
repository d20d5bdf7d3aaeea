"""Loss-distribution post-processing: decode counts, PDF/CDF, EL, VaR, CVaR.

Measured bitstrings are split into a leftmost default-indicator block and a
rightmost latent-factor block. Every set default bit adds its LGD to the
scenario loss; the latent block is read as an integer to accumulate the
z marginal. Identical losses are collapsed on integer cents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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

    def to_dict(self) -> dict:
        return {
            "losses": self.losses.tolist(),
            "pdf": self.pdf.tolist(),
            "cdf": self.cdf.tolist(),
            "expected_loss": self.expected_loss,
            "z_marginal": self.z_marginal.tolist(),
        }


def _outcome_weights(outcomes, layout: RegisterLayout) -> Mapping[str, float]:
    if isinstance(outcomes, ShotCounts):
        return {bits: c / outcomes.n_shots for bits, c in outcomes.counts.items()}
    probs = np.asarray(outcomes, dtype=float)
    if probs.shape != (2**layout.n_bits,):
        raise ValueError(f"expected {2**layout.n_bits} outcome probabilities, got {probs.shape}")
    n = layout.n_bits
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p != 0.0}


def decode_counts(outcomes, layout: RegisterLayout) -> LossDistribution:
    """Turn measurement outcomes (ShotCounts or exact probabilities) into losses."""
    weights = _outcome_weights(outcomes, layout)
    z_marginal = np.zeros(2 ** len(layout.z_bits))
    by_cents: dict[int, float] = {}
    for bits, w in weights.items():
        if len(bits) != layout.n_bits:
            raise ValueError(f"outcome {bits!r} does not match the {layout.n_bits}-bit layout")
        z_code = int("".join(bits[i] for i in layout.z_bits), 2)
        z_marginal[z_code] += w
        loss = sum(lgd for i, lgd in zip(layout.asset_bits, layout.lgd_per_asset)
                   if bits[i] == "1")
        cents = round(loss * 100)
        by_cents[cents] = by_cents.get(cents, 0.0) + w
    cents_sorted = sorted(by_cents)
    losses = np.array([c / 100.0 for c in cents_sorted])
    pdf = np.array([by_cents[c] for c in cents_sorted])
    cdf = np.cumsum(pdf)
    expected = float(losses @ pdf)
    return LossDistribution(losses, pdf, cdf, expected, z_marginal)


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

    The simulator output is reindexed so the asset qubit lands on the leftmost
    bit of every outcome string (the z-register fills the rightmost bits, with
    q0 as the least significant z bit, matching the controlled-rotation
    weights). Readout confusion, when given, is applied to the exact
    probabilities before sampling.
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
    # q0 q1 q2 -> q2 q1 q0: asset leftmost, z-register rightmost
    probs_asset_first = simkit.convert_bit_order(probs, circ.n_qubits)
    layout = gci_layout(model)
    if shots is None:
        outcomes = probs_asset_first
        observed = probs_asset_first
    else:
        outcomes = sample_shots(probs_asset_first, shots, seed)
        observed = outcomes.frequencies()
    dist = decode_counts(outcomes, layout)
    half = len(probs_asset_first) // 2
    p_default = float(np.sum(observed[half:]))  # leftmost (asset) bit set
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

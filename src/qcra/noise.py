"""Finite-shot sampling, tensored per-qubit readout error, SPAM stats.

Sweeps and SPAM repetitions sample their probability rows with `sample_rows`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simkit
from .simkit import Circuit

# Largest shot count: counts up to 2^53 convert to float exactly.
MAX_SHOTS = 2**53


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Tensored readout error (Bravyi et al., arXiv:2006.14044) as an (n, 2, 2) stack.

    matrix[q] is qubit q's column-stochastic factor: column = prepared bit,
    row = assigned bit. The map is their tensor product with qubit 0 on the
    most significant bit, the simulator's order; that 2^n x 2^n matrix is
    never formed.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape[1:] != (2, 2) or not 1 <= len(m) <= simkit.MAX_QUBITS:
            raise ValueError(f"need 1 to {simkit.MAX_QUBITS} 2x2 readout factors, got shape {m.shape}")
        if not np.all((m >= -1e-12) & (m <= 1 + 1e-12)):
            raise ValueError("entries must lie in [0, 1]")
        if not np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("columns must each sum to 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return len(self.matrix)

    @classmethod
    def from_factors(cls, factors: Sequence) -> "ConfusionMatrix":
        """Stack one 2x2 factor per qubit, qubit 0 first."""
        return cls(factors)

    @classmethod
    def uniform_readout(cls, n_qubits: int, fidelity: float) -> "ConfusionMatrix":
        """Identical per-qubit readout with P(assigned = prepared) = fidelity."""
        if not (0.0 <= fidelity <= 1.0):
            raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
        f = np.array([[fidelity, 1.0 - fidelity], [1.0 - fidelity, fidelity]])
        return cls.from_factors([f] * n_qubits)

    def to_dict(self) -> dict:
        return {"factors": self.matrix.tolist()}


def apply_confusion(probs: Sequence[float], cm: ConfusionMatrix) -> np.ndarray:
    """Readout-confused probabilities of one 2^n vector or of (B, 2^n) rows.

    Qubit q's factor acts on bit n - 1 - q of the index, O(n 2^n) per row;
    a row of a batch gets exactly the arithmetic of a lone call.
    """
    p = np.asarray(probs, dtype=float)
    n = cm.n_qubits
    if p.ndim not in (1, 2) or p.shape[-1] != 2**n:
        raise ValueError(f"probabilities of shape {p.shape} do not match {n} readout factors")
    out = p
    for q, f in enumerate(cm.matrix):
        out = f @ out.reshape(-1, 2, 2 ** (n - 1 - q))
    return out.reshape(p.shape)


@dataclass
class ShotCounts:
    """Outcome counts, indexed like the sampled probability vector."""

    n_shots: int
    counts: np.ndarray

    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_shots


def sample_shots(probs: Sequence[float], n_shots: int,
                 seed: int | np.random.Generator = 0) -> ShotCounts:
    """Multinomial draw; deterministic for a fixed seed."""
    if not 1 <= n_shots <= MAX_SHOTS:
        raise ValueError(f"n_shots must be between 1 and 2**53, got {n_shots}")
    p = np.asarray(probs, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ShotCounts(n_shots, rng.multinomial(n_shots, p / p.sum()))


def sample_rows(probs: np.ndarray, n_shots: int, seed: int = 0) -> np.ndarray:
    """Shot frequencies of (B, 2^n) probability rows; row b is drawn by
    `sample_shots` from child b of `SeedSequence(seed)`, so it does not
    depend on how many rows follow it."""
    streams = np.random.SeedSequence(seed).spawn(len(probs))
    return np.array([sample_shots(row, n_shots, np.random.default_rng(stream)).frequencies()
                     for row, stream in zip(probs, streams)])


@dataclass
class SpamReport:
    """Mean and sample std of the pairwise asymmetries over repeated runs."""

    n_repetitions: int
    shots_per_rep: int | None
    pairs: dict[str, tuple[float, float]]  # "00-11" -> (mean, std)

    def to_dict(self) -> dict:
        return {
            "n_repetitions": self.n_repetitions,
            "shots_per_rep": self.shots_per_rep,
            "pairs": {k: {"mean": m, "std": s} for k, (m, s) in self.pairs.items()},
        }


def spam_statistics(circuit: Circuit, n_repetitions: int, shots_per_rep: int | None,
                    seed: int = 0, confusion: ConfusionMatrix | None = None) -> SpamReport:
    """Delta-P statistics between symmetric basis pairs over repeated experiments.

    Repetition r draws its shots through `sample_rows`, from child r of
    `SeedSequence(seed)`. With shots_per_rep None the exact probabilities are
    used and every delta collapses to its noiseless value.
    """
    if n_repetitions < 2:
        raise ValueError("at least 2 repetitions are needed for a std")
    n = circuit.n_qubits
    probs = simkit.born_probabilities(simkit.simulate(circuit))
    if confusion is not None:
        probs = apply_confusion(probs, confusion)
    est = np.broadcast_to(probs, (n_repetitions, len(probs)))
    if shots_per_rep is not None:
        est = sample_rows(est, shots_per_rep, seed)
    # basis state b pairs with its mirror 2^n - 1 - b
    low = np.arange(2 ** (n - 1))
    high = 2**n - 1 - low
    deltas = est[:, low] - est[:, high]
    out = {}
    for k, (i, j) in enumerate(zip(low, high)):
        label = f"{format(i, f'0{n}b')}-{format(j, f'0{n}b')}"
        out[label] = (float(deltas[:, k].mean()), float(deltas[:, k].std(ddof=1)))
    return SpamReport(n_repetitions, shots_per_rep, out)

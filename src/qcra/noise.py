"""Finite-shot sampling, readout confusion channel, CZ phase injection, SPAM stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simkit
from .simkit import Circuit, Gate
from .transpiler import CouplingMap, cz_phase


@dataclass
class ConfusionMatrix:
    """Column-stochastic readout map: column = prepared state, row = assigned.

    Indexing matches the probability vector it is applied to; per-qubit
    factors are tensored with factor 0 on the most significant bit.
    """

    n_qubits: int
    matrix: np.ndarray
    factors: list[np.ndarray] | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        dim = 2**self.n_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim} for {self.n_qubits} qubits")
        if np.any(self.matrix < -1e-12) or np.any(self.matrix > 1 + 1e-12):
            raise ValueError("entries must lie in [0, 1]")
        col_sums = self.matrix.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > 1e-12:
            raise ValueError("columns must each sum to 1")

    @classmethod
    def from_factors(cls, factors: Sequence) -> "ConfusionMatrix":
        mats = [np.asarray(f, dtype=float) for f in factors]
        full = mats[0]
        for f in mats[1:]:
            full = np.kron(full, f)
        return cls(len(mats), full, factors=mats)

    @classmethod
    def uniform_readout(cls, n_qubits: int, fidelity: float) -> "ConfusionMatrix":
        """Identical per-qubit readout with P(assigned = prepared) = fidelity."""
        if not (0.0 <= fidelity <= 1.0):
            raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
        f = np.array([[fidelity, 1.0 - fidelity], [1.0 - fidelity, fidelity]])
        return cls.from_factors([f] * n_qubits)

    def to_dict(self) -> dict:
        if self.factors is not None:
            return {"factors": [f.tolist() for f in self.factors]}
        return {"matrix": self.matrix.tolist()}


def apply_confusion(probs: Sequence[float], cm: ConfusionMatrix) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.shape != (cm.matrix.shape[1],):
        raise ValueError(f"probability vector length {p.shape} does not match the matrix")
    return cm.matrix @ p


@dataclass
class ShotCounts:
    """Outcome counts keyed by bitstring (same indexing as the sampled vector)."""

    n_shots: int
    counts: dict[str, int]

    @property
    def n_qubits(self) -> int:
        return len(next(iter(self.counts)))

    def frequencies(self) -> np.ndarray:
        n = self.n_qubits
        out = np.zeros(2**n)
        for bits, c in self.counts.items():
            out[int(bits, 2)] = c / self.n_shots
        return out


def sample_shots(probs: Sequence[float], n_shots: int,
                 seed: int | np.random.Generator = 0) -> ShotCounts:
    """Multinomial draw; deterministic for a fixed seed."""
    if n_shots <= 0:
        raise ValueError(f"n_shots must be positive, got {n_shots}")
    p = np.asarray(probs, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = rng.multinomial(n_shots, p / p.sum())
    n = int(round(np.log2(len(p))))
    counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}
    return ShotCounts(n_shots, counts)


def inject_cz_phase(circuit: Circuit, cmap: CouplingMap) -> Circuit:
    """Append the spurious RZ that `transpiler.cz_phase` names after every CZ.

    Circuit qubit index i is taken to be physical wire cmap.qubit_names[i],
    the convention routed circuits follow.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        gates.append(g)
        if g.kind == "cz":
            wire, phase = cz_phase(cmap, *g.qubits)
            if phase != 0.0:
                gates.append(Gate.rz(wire, phase))
    return Circuit(circuit.n_qubits, gates, circuit.bit_order)


def symmetric_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """Index pairs (b, 2^n - 1 - b) whose probabilities agree for symmetric loaders."""
    dim = 2**n_qubits
    return [(b, dim - 1 - b) for b in range(dim // 2)]


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

    Each repetition owns an independent RNG stream split from the master seed.
    With shots_per_rep None the exact probabilities are used and every delta
    collapses to its noiseless value.
    """
    if n_repetitions < 2:
        raise ValueError("at least 2 repetitions are needed for a std")
    n = circuit.n_qubits
    probs = simkit.born_probabilities(simkit.simulate(circuit))
    if confusion is not None:
        probs = apply_confusion(probs, confusion)
    pairs = symmetric_pairs(n)
    streams = np.random.SeedSequence(seed).spawn(n_repetitions)
    deltas = np.zeros((n_repetitions, len(pairs)))
    for r in range(n_repetitions):
        if shots_per_rep is None:
            est = probs
        else:
            rng = np.random.default_rng(streams[r])
            est = sample_shots(probs, shots_per_rep, rng).frequencies()
        for k, (i, j) in enumerate(pairs):
            deltas[r, k] = est[i] - est[j]
    out = {}
    for k, (i, j) in enumerate(pairs):
        label = f"{format(i, f'0{n}b')}-{format(j, f'0{n}b')}"
        out[label] = (float(deltas[:, k].mean()), float(deltas[:, k].std(ddof=1)))
    return SpamReport(n_repetitions, shots_per_rep, out)

"""Reference computations that import nothing from `qcra`.

Every workload output is compared against these:

- a dense statevector built from explicit RY/RZ/H/X/CZ/CNOT/CRY matrices,
  applied by tensor contraction (a different kernel from the program's
  slice updates);
- classical enumeration of the K-asset GCI model over the 2^n_z factor codes,
  with defaults conditionally independent at sin^2(alpha_tilde z + beta_tilde);
- per-qubit readout applied by tensor contraction;
- the loss floor of the 2- and 3-qubit loaders, by multi-start
  Levenberg-Marquardt on their closed-form output distribution;
- the property checks a sampled result must pass (counts sum to the shot
  count, CDF nondecreasing and ending at 1, VaR in the loss support, sampled
  frequencies within 5 sigma of the exact probabilities).

Bit convention: qubit 0 is the most significant bit of a basis index, as in a
ket read left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_STD = NormalDist()

# --- gate matrices ----------------------------------------------------------

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    """Unitary of one gate; two-qubit matrices are ordered (first, second) qubit."""
    if kind == "ry":
        return ry_matrix(angle)
    if kind == "rz":
        return rz_matrix(angle)
    if kind == "h":
        return _H
    if kind == "x":
        return _X
    if kind == "cz":
        return _CZ
    if kind == "cnot":
        return _CNOT
    if kind == "cry":
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = ry_matrix(angle)
        return u
    raise ValueError(f"unknown gate kind {kind!r}")


# A gate is (kind, qubits, angle in radians or None).
OGate = tuple


def statevector(n_qubits: int, gates: list[OGate]) -> np.ndarray:
    """Final amplitudes from |0...0>, by tensor contraction of each gate matrix."""
    psi = np.zeros((2,) * n_qubits, dtype=complex)
    psi[(0,) * n_qubits] = 1.0
    for kind, qubits, angle in gates:
        u = gate_matrix(kind, angle)
        k = len(qubits)
        u = u.reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return psi.reshape(-1)


def probabilities(n_qubits: int, gates: list[OGate]) -> np.ndarray:
    return np.abs(statevector(n_qubits, gates)) ** 2


def gates_from_dict(data: dict) -> tuple[int, list[OGate]]:
    """Read the circuit JSON schema (angles in degrees) into oracle gates."""
    gates = []
    for entry in data["gates"]:
        angle = entry.get("angle_deg")
        gates.append((entry["kind"], tuple(entry["qubits"]),
                      math.radians(angle) if angle is not None else None))
    return int(data["n_qubits"]), gates


def reverse_bits(vec: np.ndarray, n_qubits: int) -> np.ndarray:
    """Reindex a 2^n vector so qubit order is reversed (q0 becomes the LSB)."""
    return np.asarray(vec).reshape((2,) * n_qubits).transpose(range(n_qubits - 1, -1, -1)).reshape(-1)


def max_diff_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """max_k |a_k - s b_k| for the unit scalar s that best aligns b with a."""
    overlap = np.vdot(b, a)
    s = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.max(np.abs(a - s * b)))


# --- readout ------------------------------------------------------------------

def readout_factor(fidelity: float) -> np.ndarray:
    """Column-stochastic 2x2 map, column = prepared bit, row = assigned bit."""
    return np.array([[fidelity, 1.0 - fidelity], [1.0 - fidelity, fidelity]])


def apply_readout(probs: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Per-qubit readout by contracting factor q against axis q of the tensor."""
    n = len(factors)
    t = np.asarray(probs, dtype=float).reshape((2,) * n)
    for q, f in enumerate(factors):
        t = np.moveaxis(np.tensordot(f, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


# --- loaders and their loss floor -----------------------------------------------

def loader_gates(thetas) -> list[OGate]:
    """RY column then CNOT(0, k) for k >= 1: the 2- and 3-qubit loader ansatz."""
    n = len(thetas)
    gates = [("ry", (q,), float(t)) for q, t in enumerate(thetas)]
    gates += [("cnot", (0, k), None) for k in range(1, n)]
    return gates


def loader_probs(thetas: np.ndarray) -> np.ndarray:
    """Closed-form loader distribution, vectorised over leading axes of thetas.

    RY(t) on |0> gives P(0) = cos^2(t/2); the CNOTs flip every other bit when
    q0 is set, so p(b) = P0(b0) * prod_{k>=1} Pk(b_k xor b0).
    """
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[-1]
    c = np.cos(thetas / 2.0) ** 2
    q = np.stack([c, 1.0 - c], axis=-1)  # (..., n, 2): P_k(bit)
    out = []
    for b in range(2**n):
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        p = q[..., 0, bits[0]]
        for k in range(1, n):
            p = p * q[..., k, bits[k] ^ bits[0]]
        out.append(p)
    return np.stack(out, axis=-1)


def _loader_jacobian(thetas: np.ndarray, h: float = 1e-6) -> np.ndarray:
    n = thetas.shape[-1]
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        cols.append((loader_probs(thetas + e) - loader_probs(thetas - e)) / (2 * h))
    return np.stack(cols, axis=-1)  # (..., 2^n, n)


def loss_floor(target: np.ndarray, grid: int = 16, starts: int = 8, iters: int = 25) -> float:
    """Global minimum of sum_b (p_b(theta) - target_b)^2 over the loader angles.

    A full angle grid picks the best starting points; Levenberg-Marquardt
    refines all of them together, and the smallest loss wins.
    """
    target = np.asarray(target, dtype=float)
    n = int(round(math.log2(len(target))))
    axis = (np.arange(grid) + 0.5) * (2 * math.pi / grid)
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    losses = np.sum((loader_probs(mesh) - target) ** 2, axis=-1)
    th = mesh[np.argsort(losses)[:starts]].copy()
    lam = np.full(len(th), 1e-3)
    cur = np.sum((loader_probs(th) - target) ** 2, axis=-1)
    for _ in range(iters):
        r = loader_probs(th) - target
        jac = _loader_jacobian(th)
        jtj = np.einsum("sbi,sbj->sij", jac, jac)
        jtr = np.einsum("sbi,sb->si", jac, r)
        a = jtj + lam[:, None, None] * np.eye(n)
        step = np.linalg.solve(a, -jtr[..., None])[..., 0]
        trial = th + step
        new = np.sum((loader_probs(trial) - target) ** 2, axis=-1)
        better = new < cur
        th[better] = trial[better]
        cur = np.where(better, new, cur)
        lam = np.where(better, lam * 0.3, lam * 10.0)
    return float(cur.min())


def normal_target(n_qubits: int, mu: float, sigma: float, z_max: float) -> np.ndarray:
    """Normal weights on the 2^n equally spaced points of [-z_max, z_max], normalised."""
    z = np.linspace(-z_max, z_max, 2**n_qubits)
    w = np.exp(-((z - mu) ** 2) / (2.0 * sigma**2))
    return w / w.sum()


# --- the one-factor credit model -------------------------------------------------

def linearised_rotation(p0: float, rho: float, n_z: int, z_max: float) -> tuple[float, float]:
    """(alpha_tilde, beta_tilde) of the linearised default probability.

    PD(z) = Phi((Phi^-1(p0) - sqrt(rho) z) / sqrt(1 - rho)); arcsin(sqrt(PD)) is
    expanded to first order at z = 0 and rescaled to the integer code of an
    n_z-qubit grid over [-z_max, z_max].
    """
    psi = _STD.inv_cdf(p0) / math.sqrt(1.0 - rho)
    u = _STD.cdf(psi)
    du_dz = -_STD.pdf(psi) * math.sqrt(rho) / math.sqrt(1.0 - rho)
    beta = math.asin(math.sqrt(u))
    alpha = du_dz / (2.0 * math.sqrt(u) * math.sqrt(1.0 - u))
    dz = 2.0 * z_max / (2**n_z - 1)
    return alpha * dz, beta - alpha * z_max


@dataclass(frozen=True)
class Asset:
    p0: float
    rho: float
    lgd: float


def gci_joint(assets: list[Asset], factor_thetas, z_max: float) -> np.ndarray:
    """Outcome distribution of the K-asset GCI circuit, by enumeration.

    Assets occupy the leading bits (asset 0 most significant), the factor
    register the trailing bits (first factor qubit most significant). The
    factor code distribution is the product of the per-qubit RY loads, and
    given code z each asset defaults independently with sin^2(a_k z + b_k).
    """
    n_z = len(factor_thetas)
    k = len(assets)
    c = np.cos(np.asarray(factor_thetas, dtype=float) / 2.0) ** 2
    pz = np.ones(1)
    for ck in c:  # first factor qubit ends up most significant
        pz = np.kron(pz, np.array([ck, 1.0 - ck]))
    codes = np.arange(2**n_z)
    joint = np.zeros((2,) * k + (2**n_z,))
    pd = []
    for a in assets:
        at, bt = linearised_rotation(a.p0, a.rho, n_z, z_max)
        pd.append(np.sin(at * codes + bt) ** 2)
    for d in range(2**k):
        bits = [(d >> (k - 1 - i)) & 1 for i in range(k)]
        w = pz.copy()
        for i, bit in enumerate(bits):
            w = w * (pd[i] if bit else 1.0 - pd[i])
        joint[tuple(bits)] = w
    return joint.reshape(-1)


# --- loss distributions -----------------------------------------------------------

@dataclass
class LossDist:
    losses: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    expected_loss: float
    z_marginal: np.ndarray


def loss_distribution(outcome_probs: np.ndarray, lgds: list[float]) -> LossDist:
    """Collapse an asset-first outcome vector into the loss distribution."""
    k = len(lgds)
    n = int(round(math.log2(len(outcome_probs))))
    t = np.asarray(outcome_probs, dtype=float).reshape(2**k, 2 ** (n - k))
    by_default = t.sum(axis=1)
    z_marginal = t.sum(axis=0)
    loss_of = np.array([sum(lgds[i] for i in range(k) if (d >> (k - 1 - i)) & 1)
                        for d in range(2**k)])
    cents = np.round(loss_of * 100).astype(np.int64)
    keys, inverse = np.unique(cents, return_inverse=True)
    pdf = np.bincount(inverse, weights=by_default, minlength=len(keys))
    losses = keys / 100.0
    return LossDist(losses, pdf, np.cumsum(pdf), float(loss_of @ by_default), z_marginal)


def value_at_risk(losses: np.ndarray, pdf: np.ndarray, level: float) -> float:
    """Smallest loss whose cumulative probability reaches `level`."""
    total = 0.0
    for loss, p in zip(losses, pdf):
        total += p
        if total >= level - 1e-12:
            return float(loss)
    return float(losses[-1])


def conditional_var(losses: np.ndarray, pdf: np.ndarray, level: float) -> float:
    """Rockafellar-Uryasev form: VaR + E[(L - VaR)^+] / (1 - level)."""
    v = value_at_risk(losses, pdf, level)
    excess = np.clip(np.asarray(losses) - v, 0.0, None)
    return v + float(excess @ np.asarray(pdf)) / (1.0 - level)


def pdf_on_support(losses, pdf, support) -> np.ndarray | None:
    """Spread a (sampled) pdf over the exact loss support; None if a loss is off it."""
    support = np.asarray(support, dtype=float)
    out = np.zeros(len(support))
    for loss, p in zip(losses, pdf):
        hit = np.flatnonzero(np.abs(support - loss) <= 1e-9 * max(1.0, abs(loss)))
        if len(hit) != 1:
            return None
        out[hit[0]] = p
    return out


# --- checks ---------------------------------------------------------------------
# Each returns a list of problems; an empty list means the output passed.

def check_close(name: str, got, want, atol: float = 1e-9, rtol: float = 1e-9) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if np.any(err > lim):
        return [f"{name}: off by up to {float(err.max()):.3g}"]
    return []


def check_counts(name: str, freqs, n_shots: int) -> list[str]:
    """Frequencies must be whole counts over n_shots that sum to n_shots."""
    counts = np.asarray(freqs, dtype=float) * n_shots
    whole = np.round(counts)
    if np.any(np.abs(counts - whole) > 1e-6 * max(1.0, n_shots / 1e6)) or np.any(whole < 0):
        return [f"{name}: frequencies are not whole counts over {n_shots} shots"]
    if int(whole.sum()) != n_shots:
        return [f"{name}: counts sum to {int(whole.sum())}, not {n_shots}"]
    return []


def check_cdf(name: str, cdf, pdf=None) -> list[str]:
    cdf = np.asarray(cdf, dtype=float)
    problems = []
    if np.any(np.diff(cdf) < -1e-12):
        problems.append(f"{name}: CDF decreases")
    if abs(cdf[-1] - 1.0) > 1e-9:
        problems.append(f"{name}: CDF ends at {cdf[-1]!r}, not 1")
    if pdf is not None and np.max(np.abs(np.cumsum(pdf) - cdf)) > 1e-9:
        problems.append(f"{name}: CDF is not the running sum of the PDF")
    return problems


def check_var_support(name: str, value: float, losses) -> list[str]:
    if not np.any(np.abs(np.asarray(losses, dtype=float) - value) <= 1e-9 * max(1.0, abs(value))):
        return [f"{name}: VaR {value!r} is not a loss in the support"]
    return []


SIGMAS = 5.0


def check_sampled(name: str, freqs, probs, n_shots: int) -> list[str]:
    """Sampled frequencies within 5 sigma of the exact probabilities.

    The distance is the binomial log-likelihood ratio N * KL(f || p), which is
    (f - p)^2 / (2 sigma^2) for large counts and stays a valid tail bound for
    cells expecting only a few counts; 5 sigma is a ratio above 12.5.
    """
    f = np.asarray(freqs, dtype=float)
    p = np.asarray(probs, dtype=float)
    if f.shape != p.shape:
        return [f"{name}: {f.shape} frequencies for {p.shape} probabilities"]
    p = np.clip(p, 1e-300, 1.0)
    q = np.clip(1.0 - p, 1e-300, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(f > 0, f * np.log(f / p), 0.0)
        b = np.where(f < 1, (1.0 - f) * np.log(np.clip(1.0 - f, 1e-300, 1.0) / q), 0.0)
    stat = n_shots * (a + b)
    worst = float(np.max(stat))
    if worst > SIGMAS**2 / 2.0:
        i = int(np.argmax(stat))
        return [f"{name}: cell {i} sampled {f[i]!r} vs exact {p[i]!r} "
                f"({math.sqrt(2 * worst):.1f} sigma)"]
    return []


def count_deviation_bound(variance: float) -> float:
    """Largest deviation of a sum of unit-bounded independent terms that passes 5 sigma.

    Bernstein's inequality P(|S - ES| >= t) <= 2 exp(-t^2 / (2 (V + t / 3)))
    set to the Gaussian 5 sigma exponent 12.5: t = 5 sqrt(V) for large
    variance V, and about 8 counts, not 0, where V is tiny.
    """
    a = SIGMAS**2 / 3.0
    return 0.5 * (a + math.sqrt(a * a + 4.0 * SIGMAS**2 * variance))


def classify(probs, tol: float) -> str:
    """Outer-pair versus inner-pair mean: the documented concavity rule."""
    p = np.asarray(probs, dtype=float)
    if float(p.max() - p.min()) < tol:
        return "uniform"
    outer = 0.5 * (p[0] + p[-1])
    mid = len(p) // 2
    inner = 0.5 * (p[mid - 1] + p[mid])
    if inner - outer > tol:
        return "gaussian_like"
    if outer - inner > tol:
        return "inverted"
    return "uniform"

"""Dense statevector simulator for small gate circuits.

Amplitudes are indexed with q0 as the most significant bit: qubit q
occupies bit (n - 1 - q) of the basis index, so an index spells the ket
left to right (index 6 of a 3-qubit register is |110>). `convert_bit_order`
gives the reversed (q0 least significant) reading: it transposes the vector
viewed as a (2, ..., 2) array.

Every simulation goes through one gate kernel, `_dispatch`, which acts on a
(B, 2^n) buffer of amplitude rows. Each row is one binding of the circuit's
angles (or one input state), and viewing the buffer as a (B, 2, ..., 2)
array puts qubit q on axis q + 1. A single statevector is a one-row batch;
`batch_probabilities` binds many angle sets at once. Circuits always run from
|0...0>; `apply_gate` takes any other input state.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

GATE_KINDS = ("ry", "rz", "h", "x", "cz", "cnot", "cry")
_ANGLED = frozenset({"ry", "rz", "cry"})
_TWO_QUBIT = frozenset({"cz", "cnot", "cry"})

MAX_QUBITS = 12
MAX_UNITARY_QUBITS = 6


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, qubit indices, and an angle in radians where applicable."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        expected = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} takes {expected} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if self.kind in _ANGLED:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle, got {self.angle}")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @staticmethod
    def ry(q: int, angle: float) -> "Gate":
        return Gate("ry", (q,), angle)

    @staticmethod
    def rz(q: int, angle: float) -> "Gate":
        return Gate("rz", (q,), angle)

    @staticmethod
    def h(q: int) -> "Gate":
        return Gate("h", (q,))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate("x", (q,))

    @staticmethod
    def cz(a: int, b: int) -> "Gate":
        return Gate("cz", (a, b))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("cnot", (control, target))

    @staticmethod
    def cry(control: int, target: int, angle: float) -> "Gate":
        return Gate("cry", (control, target), angle)


@dataclass
class Circuit:
    """Ordered gate list over n_qubits logical qubits."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, gate: Gate):
        for q in gate.qubits:
            if not (0 <= q < self.n_qubits):
                raise ValueError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")

    def add(self, gate: Gate) -> "Circuit":
        self._check_gate(gate)
        self.gates.append(gate)
        return self


@dataclass
class Statevector:
    """Normalized complex amplitude vector over 2^n basis states (q0 most significant)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector length must be 2^n_qubits")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    def copy(self) -> "Statevector":
        sv = object.__new__(Statevector)
        sv.n_qubits = self.n_qubits
        sv.amplitudes = self.amplitudes.copy()
        return sv


def kernel_backend() -> str:
    """Name of the gate-kernel implementation; numpy is the only one."""
    return "python"


def _apply_2x2(v: np.ndarray, axis: int, u00, u01, u10, u11):
    """Apply [[u00, u01], [u10, u11]] in place along one axis of an amplitude view."""
    lead = (slice(None),) * axis
    i0, i1 = lead + (0,), lead + (1,)
    a0 = v[i0].copy()
    a1 = v[i1].copy()
    v[i0] = u00 * a0 + u01 * a1
    v[i1] = u10 * a0 + u11 * a1


def _dispatch(amp: np.ndarray, n: int, gate: Gate, angles: np.ndarray | None = None):
    """Apply one gate in place on a contiguous complex128 (B, 2^n) buffer.

    `angles`, a (B,) column, replaces an RY/RZ/CRY gate's angle row by row.
    """
    v = amp.reshape((len(amp),) + (2,) * n)  # a view with qubit q on axis q + 1
    kind, target = gate.kind, gate.qubits[-1] + 1
    if len(gate.qubits) == 2:
        # CZ, CNOT and CRY act on the control = 1 half, a view without the control axis
        control = gate.qubits[0] + 1
        v = v[(slice(None),) * control + (1,)]
        target -= target > control
    if kind in _ANGLED:
        # per-row angles broadcast against the (B, 2, ..., 2) halves _apply_2x2 combines
        theta = gate.angle if angles is None else angles.reshape((-1,) + (1,) * (v.ndim - 2))
    if kind in ("ry", "cry"):
        half = 0.5 * theta
        c, s = np.cos(half), np.sin(half)
        _apply_2x2(v, target, c, -s, s, c)
    elif kind == "rz":
        ph = np.exp(-0.5j * theta)
        _apply_2x2(v, target, ph, 0.0, 0.0, np.conj(ph))
    elif kind == "h":
        r = 1.0 / math.sqrt(2.0)
        _apply_2x2(v, target, r, r, r, -r)
    elif kind in ("x", "cnot"):
        _apply_2x2(v, target, 0.0, 1.0, 1.0, 0.0)
    elif kind == "cz":
        v[(slice(None),) * target + (1,)] *= -1.0
    else:  # unreachable: Gate validates kind
        raise ValueError(kind)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Return the state after the gate's exact unitary (input left untouched)."""
    for q in gate.qubits:
        if not (0 <= q < state.n_qubits):
            raise ValueError(f"qubit {q} out of range for {state.n_qubits}-qubit state")
    out = state.copy()
    _dispatch(out.amplitudes[None], out.n_qubits, gate)
    return out


def simulate(circuit: Circuit) -> Statevector:
    """Run the whole circuit from |0...0>."""
    zero = np.zeros(2**circuit.n_qubits, dtype=np.complex128)
    zero[0] = 1.0
    state = Statevector(circuit.n_qubits, zero)
    amp = state.amplitudes[None]
    for gate in circuit.gates:
        _dispatch(amp, circuit.n_qubits, gate)
    return state


def batch_probabilities(circuit: Circuit, columns, angles) -> np.ndarray:
    """Born probabilities of the circuit under B angle bindings, one row each.

    `angles` is (B, P): angles[b, j] replaces the angle of gate columns[j] in
    row b, and every other gate keeps its own. Rows are indexed like
    `circuit_probabilities`.
    """
    columns = [operator.index(k) for k in columns]
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[0] < 1 or angles.shape[1] != len(columns):
        raise ValueError(f"angles must have shape (B >= 1, {len(columns)}), got {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    if len(set(columns)) != len(columns):
        raise ValueError(f"columns must be distinct gates, got {columns}")
    for k in columns:
        if not (0 <= k < len(circuit.gates)) or circuit.gates[k].kind not in _ANGLED:
            raise ValueError(f"column {k} is not an RY, RZ or CRY gate of the circuit")
    n = circuit.n_qubits
    bound = dict(zip(columns, np.ascontiguousarray(angles.T)))
    amp = np.zeros((len(angles), 2**n), dtype=np.complex128)
    amp[:, 0] = 1.0
    for k, gate in enumerate(circuit.gates):
        _dispatch(amp, n, gate, bound.get(k))
    return np.abs(amp) ** 2


def born_probabilities(state: Statevector) -> np.ndarray:
    """p_b = |<b|psi>|^2, indexed like the amplitudes."""
    p = np.abs(state.amplitudes) ** 2
    return p


def convert_bit_order(vec: np.ndarray, n_qubits: int) -> np.ndarray:
    """Reindex a length-2^n vector between q0 most and least significant (involution)."""
    return np.asarray(vec).reshape((2,) * n_qubits).T.reshape(-1)


def circuit_probabilities(circuit: Circuit) -> np.ndarray:
    """Output probabilities of the circuit run from |0...0>, indexed like the amplitudes."""
    return born_probabilities(simulate(circuit))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary (q0 most significant); n is capped to keep this cheap."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary extraction limited to {MAX_UNITARY_QUBITS} qubits")
    cols = np.eye(2**n, dtype=np.complex128)  # row j holds the image of |j>
    for gate in circuit.gates:
        _dispatch(cols, n, gate)
    return cols.T.copy()


def max_abs_diff_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise max |a - s*b| minimized over a unit complex scalar s."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    overlap = np.vdot(b, a)  # sum conj(b)*a: a ~ s*b gives overlap = s*|b|^2
    if abs(overlap) < 1e-300:
        return float(np.max(np.abs(a - b)))
    s = overlap / abs(overlap)
    return float(np.max(np.abs(a - s * b)))


# --- JSON interface (angles in degrees at this boundary) ---

def circuit_to_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.angle is not None:
            entry["angle_deg"] = math.degrees(g.angle)
        gates.append(entry)
    return {"n_qubits": circuit.n_qubits, "bit_order": "q0_msb", "gates": gates}


def is_finite_real(value) -> bool:
    """True for a parsed JSON number that is finite as a float; False for a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def circuit_from_dict(data: dict) -> Circuit:
    """The circuit of a parsed JSON object; a field of the wrong type raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data["gates"], list):
        raise ValueError("a circuit must be a JSON object with a list of gates")
    if type(data["n_qubits"]) is not int:  # a bool or a float is not a qubit count
        raise ValueError(f"n_qubits must be an integer, got {data['n_qubits']!r}")
    if data.get("bit_order", "q0_msb") != "q0_msb":  # the one order amplitudes are indexed in
        raise ValueError(f"bit_order must be q0_msb, got {data['bit_order']!r}")
    gates = []
    for entry in data["gates"]:
        if not isinstance(entry, dict):
            raise ValueError(f"each gate must be a JSON object, got {entry!r}")
        qubits, angle = entry["qubits"], entry.get("angle_deg")
        if not (isinstance(qubits, list) and all(type(q) is int for q in qubits)):
            raise ValueError(f"gate qubits must be a list of integers, got {qubits!r}")
        if angle is not None and not is_finite_real(angle):
            raise ValueError(f"gate angle_deg must be a finite number, got {angle!r}")
        gates.append(Gate(entry["kind"], tuple(qubits), math.radians(angle) if angle is not None else None))
    return Circuit(data["n_qubits"], gates)


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))

"""Dense statevector simulator for small gate circuits.

Amplitudes are indexed with q0 as the most significant bit: qubit q
occupies bit (n - 1 - q) of the basis index, so an index spells the ket
left to right (index 6 of a 3-qubit register is |110>). The gate kernels
rely on this: viewing the 2^n amplitudes as an n-dimensional (2, ..., 2)
array puts qubit q on axis q. The Q0_LSB order is available for callers
that want the reversed reading; conversion is a fixed index permutation.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

GATE_KINDS = ("ry", "rz", "h", "x", "cz", "cnot", "cry")
_ANGLED = frozenset({"ry", "rz", "cry"})
_TWO_QUBIT = frozenset({"cz", "cnot", "cry"})

MAX_QUBITS = 12
MAX_UNITARY_QUBITS = 6


class BitOrder(Enum):
    Q0_MSB = "q0_msb"
    Q0_LSB = "q0_lsb"


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
    bit_order: BitOrder = BitOrder.Q0_MSB

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

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)


@dataclass
class Statevector:
    """Normalized complex amplitude vector over 2^n basis states (Q0_MSB indexing)."""

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


def zero_state(n_qubits: int) -> Statevector:
    return basis_state(n_qubits, 0)


def basis_state(n_qubits: int, index_or_bits: int | str) -> Statevector:
    """|b> for an integer index or a bitstring read as |q0 q1 ...>."""
    if isinstance(index_or_bits, str):
        if len(index_or_bits) != n_qubits:
            raise ValueError("bitstring length must equal n_qubits")
        index = int(index_or_bits, 2)
    else:
        index = int(index_or_bits)
    amp = np.zeros(2**n_qubits, dtype=np.complex128)
    amp[index] = 1.0
    return Statevector(n_qubits, amp)


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


def _dispatch(amp: np.ndarray, n: int, gate: Gate):
    """Apply one gate in place on a contiguous complex128 buffer."""
    v = amp.reshape((2,) * n)  # a view with qubit q on axis q
    kind, target = gate.kind, gate.qubits[-1]
    if len(gate.qubits) == 2:
        # CZ, CNOT and CRY act on the control = 1 half, a view without the control axis
        control = gate.qubits[0]
        v = v[(slice(None),) * control + (1,)]
        target -= target > control
    if kind in ("ry", "cry"):
        half = 0.5 * gate.angle
        c, s = math.cos(half), math.sin(half)
        _apply_2x2(v, target, c, -s, s, c)
    elif kind == "rz":
        ph = cmath.exp(-0.5j * gate.angle)
        _apply_2x2(v, target, ph, 0.0, 0.0, ph.conjugate())
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
    _dispatch(out.amplitudes, out.n_qubits, gate)
    return out


def simulate(circuit: Circuit, initial: int | str | None = None) -> Statevector:
    """Run the whole circuit from |0...0> (or a given basis state)."""
    state = zero_state(circuit.n_qubits) if initial is None else basis_state(circuit.n_qubits, initial)
    amp = state.amplitudes
    for gate in circuit.gates:
        _dispatch(amp, circuit.n_qubits, gate)
    return state


def born_probabilities(state: Statevector) -> np.ndarray:
    """p_b = |<b|psi>|^2, indexed Q0_MSB like the amplitudes."""
    p = np.abs(state.amplitudes) ** 2
    return p


def bit_reversal_permutation(n_qubits: int) -> np.ndarray:
    """perm[i] = index with the n-bit binary expansion of i reversed."""
    idx = np.arange(2**n_qubits)
    perm = np.zeros_like(idx)
    for b in range(n_qubits):
        perm |= ((idx >> b) & 1) << (n_qubits - 1 - b)
    return perm


def convert_bit_order(vec: np.ndarray, n_qubits: int) -> np.ndarray:
    """Reindex a length-2^n vector between Q0_MSB and Q0_LSB (involution)."""
    return np.asarray(vec)[bit_reversal_permutation(n_qubits)]


def circuit_probabilities(circuit: Circuit, initial: int | str | None = None) -> np.ndarray:
    """Output probabilities indexed per the circuit's bit_order."""
    p = born_probabilities(simulate(circuit, initial))
    if circuit.bit_order is BitOrder.Q0_LSB:
        p = convert_bit_order(p, circuit.n_qubits)
    return p


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary (Q0_MSB basis); n is capped to keep this cheap."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary extraction limited to {MAX_UNITARY_QUBITS} qubits")
    dim = 2**n
    cols = np.eye(dim, dtype=np.complex128)  # row j holds the image of |j>
    for j in range(dim):
        for gate in circuit.gates:
            _dispatch(cols[j], n, gate)
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
    return {"n_qubits": circuit.n_qubits, "bit_order": circuit.bit_order.value, "gates": gates}


def circuit_from_dict(data: dict) -> Circuit:
    gates = []
    for entry in data["gates"]:
        angle = entry.get("angle_deg")
        gates.append(
            Gate(
                entry["kind"],
                tuple(entry["qubits"]),
                math.radians(angle) if angle is not None else None,
            )
        )
    order = BitOrder(data.get("bit_order", "q0_msb"))
    return Circuit(int(data["n_qubits"]), gates, order)


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))

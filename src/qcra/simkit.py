"""Dense statevector simulator for small gate circuits.

Amplitudes are indexed with q0 as the most significant bit: qubit q
occupies bit (n - 1 - q) of the basis index, so an index spells the ket
left to right (index 6 of a 3-qubit register is |110>). `convert_bit_order`
gives the reversed (q0 least significant) reading: it transposes the vector
viewed as a (2, ..., 2) array.

Every simulation runs one lowered form, `Template`: a circuit whose gates
are lowered once to operations on a (B, 2^n) buffer of amplitude rows, with
the angles of chosen gates left open. Each row is one binding of those
angles (or one input state), and viewing the buffer as a (B, 2, ..., 2)
array puts qubit q on axis q + 1. A 2x2 gate combines its target's two
halves, X and CNOT swap them, and CZ negates one quarter. `simulate`,
`apply_gate` and `circuit_unitary` run a template with no open angles;
`variational.RyAnsatz` binds fits, gradients and sweeps into `Template.probabilities`.
Circuits always run from |0...0>; `apply_gate` takes any other input state.
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
        for gate in self.gates:
            for q in gate.qubits:
                if not (0 <= q < self.n_qubits):
                    raise ValueError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")


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


_MIX, _SWAP, _NEGATE = range(3)  # lowered gate kinds: a 2x2 mix, X or CNOT, CZ


def _lower(gate: Gate, n: int, column: int | None) -> tuple:
    """One gate as (kind, i0, i1, u) on the (B, 2, ..., 2) view of an amplitude buffer.

    i0 and i1 index the target = 0 and target = 1 halves, with a control's
    = 1 index folded in. A mix's u is its four matrix entries, or for a
    bound gate the column whose per-row entries `Template._bind` computes.
    """
    index = [slice(None)] * (max(gate.qubits) + 2)
    if len(gate.qubits) == 2:
        index[gate.qubits[0] + 1] = 1
    target = gate.qubits[-1] + 1
    index[target] = 0
    i0 = tuple(index)
    index[target] = 1
    i1 = tuple(index)
    kind = gate.kind
    if kind in ("x", "cnot"):
        return _SWAP, i0, i1, None
    if kind == "cz":
        return _NEGATE, i0, i1, None
    if column is not None:
        return _MIX, i0, i1, column
    if kind == "h":
        r = 1.0 / math.sqrt(2.0)
        return _MIX, i0, i1, (r, r, r, -r)
    if kind == "rz":
        ph = np.exp(-0.5j * gate.angle)
        return _MIX, i0, i1, (ph, 0.0, 0.0, np.conj(ph))
    half = 0.5 * gate.angle  # RY or CRY
    c, s = np.cos(half), np.sin(half)
    return _MIX, i0, i1, (c, -s, s, c)


class Template:
    """A circuit lowered once, with the angles of gates `columns` left open.

    Every simulation runs through `_apply`, which acts in place on a (B, 2^n)
    buffer of amplitude rows. `probabilities` binds B angle sets at once:
    angles[b, j] replaces the angle of gate columns[j] in row b, and every
    other gate keeps its own.
    """

    def __init__(self, circuit: Circuit, columns=()):
        try:
            columns = [operator.index(k) for k in columns]
        except TypeError:
            raise ValueError(f"columns must be gate indices, got {columns!r}") from None
        if len(set(columns)) != len(columns):
            raise ValueError(f"columns must be distinct gates, got {columns}")
        for k in columns:
            if not (0 <= k < len(circuit.gates)) or circuit.gates[k].kind not in _ANGLED:
                raise ValueError(f"column {k} is not an RY, RZ or CRY gate of the circuit")
        n = circuit.n_qubits
        self.n_qubits = n
        self.columns = tuple(columns)
        bound = {k: j for j, k in enumerate(columns)}
        self._ops = [_lower(g, n, bound.get(k)) for k, g in enumerate(circuit.gates)]
        # the broadcast shape of a (B,) column against the halves of gate columns[j]
        self._shapes = [(-1,) + (1,) * (n - len(circuit.gates[k].qubits)) for k in columns]
        self._rz = [j for j, k in enumerate(columns) if circuit.gates[k].kind == "rz"]

    def _bind(self, angles: np.ndarray) -> list[tuple]:
        """The four matrix entries of each bound gate, one per row of `angles`."""
        half = 0.5 * angles
        cos, sin = np.cos(half), np.sin(half)
        coeffs = []
        for j, shape in enumerate(self._shapes):
            c, s = cos[:, j].reshape(shape), sin[:, j].reshape(shape)
            coeffs.append((c, -s, s, c))
        if self._rz:
            phases = np.exp(-0.5j * angles[:, self._rz])
            for j, ph in zip(self._rz, phases.T):
                ph = ph.reshape(self._shapes[j])
                coeffs[j] = (ph, 0.0, 0.0, np.conj(ph))
        return coeffs

    def _apply(self, amp: np.ndarray, coeffs=()):
        """Run the lowered gates in place on a contiguous complex128 (B, 2^n) buffer,
        with the bound gates' entries `coeffs` from `_bind`.

        2x2 mixes combine contiguous copies of the two halves: numpy is slower
        on the strided views themselves.
        """
        v = amp.reshape((len(amp),) + (2,) * self.n_qubits)  # a view with qubit q on axis q + 1
        for kind, i0, i1, u in self._ops:
            if kind == _MIX:
                u00, u01, u10, u11 = coeffs[u] if type(u) is int else u
                a0 = v[i0].copy()
                a1 = v[i1].copy()
                v[i0] = u00 * a0 + u01 * a1
                v[i1] = u10 * a0 + u11 * a1
            elif kind == _SWAP:
                a0 = v[i0].copy()
                v[i0] = v[i1]
                v[i1] = a0
            else:
                v[i1] *= -1.0

    def probabilities(self, angles) -> np.ndarray:
        """Born probabilities of the B bindings in `angles`, (B, P), one row each.

        Rows are indexed like `circuit_probabilities`.
        """
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 2 or angles.shape[0] < 1 or angles.shape[1] != len(self.columns):
            raise ValueError(f"angles must have shape (B >= 1, {len(self.columns)}), got {angles.shape}")
        if not np.isfinite(angles).all():
            raise ValueError("angles must be finite")
        amp = np.zeros((len(angles), 2**self.n_qubits), dtype=np.complex128)
        amp[:, 0] = 1.0
        self._apply(amp, self._bind(angles))
        return np.abs(amp) ** 2


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Return the state after the gate's exact unitary (input left untouched)."""
    for q in gate.qubits:
        if not (0 <= q < state.n_qubits):
            raise ValueError(f"qubit {q} out of range for {state.n_qubits}-qubit state")
    out = state.copy()
    Template(Circuit(out.n_qubits, [gate]))._apply(out.amplitudes[None])
    return out


def simulate(circuit: Circuit) -> Statevector:
    """Run the whole circuit from |0...0>."""
    zero = np.zeros(2**circuit.n_qubits, dtype=np.complex128)
    zero[0] = 1.0
    state = Statevector(circuit.n_qubits, zero)
    Template(circuit)._apply(state.amplitudes[None])
    return state


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
    Template(circuit)._apply(cols)
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


# Each kind a JSON input field can take, with its description and its check.
_FIELD_KINDS = {
    "number": ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "integer": ("an integer", lambda v: type(v) is int),
    "string": ("a string", lambda v: isinstance(v, str)),
    "strings": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "integers": ("a list of integers", lambda v: isinstance(v, list) and all(type(x) is int for x in v)),
    "list": ("a list", lambda v: isinstance(v, list)),
}


def json_fields(data, what: str, required: dict[str, str], optional: dict[str, str]) -> dict:
    """`data`, checked to be a parsed JSON object whose fields have the kinds (of `_FIELD_KINDS`) that
    `required` and `optional` map them to; else one ValueError names `what` and the field. A number is
    finite as a float, and an integer is a JSON integer: neither is a bool, and 2.0 is not an integer."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    kinds = required | optional
    for name, value in data.items():
        if name not in kinds:
            raise ValueError(f"{what} has unknown field {name!r}; its fields are {', '.join(kinds)}")
        description, check = _FIELD_KINDS[kinds[name]]
        if not check(value):
            raise ValueError(f"{what} field {name!r} must be {description}, got {value!r}")
    for name in required:
        if name not in data:
            raise ValueError(f"{what} is missing field {name!r}")
    return data


def circuit_from_dict(data) -> Circuit:
    """The circuit of a parsed JSON object {n_qubits, gates[kind, qubits, angle_deg], bit_order}; a
    non-object or an unknown, missing or mistyped field raises ValueError, as does a bit_order but q0_msb."""
    json_fields(data, "circuit", {"n_qubits": "integer", "gates": "list"}, {"bit_order": "string"})
    if data.get("bit_order", "q0_msb") != "q0_msb":  # the one order amplitudes are indexed in
        raise ValueError(f"bit_order must be q0_msb, got {data['bit_order']!r}")
    gates = []
    for i, entry in enumerate(data["gates"]):
        json_fields(entry, f"gate {i}", {"kind": "string", "qubits": "integers"}, {"angle_deg": "number"})
        angle = entry.get("angle_deg")
        gates.append(Gate(entry["kind"], tuple(entry["qubits"]), math.radians(angle) if angle is not None else None))
    return Circuit(data["n_qubits"], gates)


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))

"""Lowering to the native gate set {RY, RZ, H, X, CZ} under a coupling map.

`route` lowers each input gate once, in order. Before a two-qubit gate on an
uncoupled pair it swaps the first qubit along a BFS shortest path until the
two are neighbours: a greedy router, enough for three qubits, which the
report names "greedy-bfs". A SWAP is three CNOTs, CNOT(c, t) is
H(t) RZ(t) CZ H(t), CRY is two CNOTs between RY(+-a/2) on t, and a native CZ
passes through. `peephole` then drops RZ(0) and cancels H pairs in one pass.

Counter-phase rule: a CZ leaves its edge's spurious RZ(phase_error) on the
edge's tuned wire (`cz_phase`). With `counter_phases` set, a lowered CNOT
whose target is the tuned wire carries RZ(-phase_error) in its RZ slot. A
CNOT whose control is the tuned wire, and a native CZ, get no correction, so
those routes miss the ideal circuit under `inject_cz_phase`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import simkit
from .simkit import Circuit, Gate


class RoutingError(ValueError):
    """No coupling path exists between qubits a two-qubit gate needs."""


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    tuned: str
    phase_error: float = 0.0  # radians, spurious phase on the tuned qubit per CZ

    def __post_init__(self):
        if self.tuned not in (self.a, self.b):
            raise ValueError(f"tuned qubit {self.tuned!r} is not an endpoint of {self.a}-{self.b}")
        if self.a == self.b:
            raise ValueError("edge endpoints must differ")


@dataclass
class CouplingMap:
    qubit_names: list[str]
    edges: list[Edge]

    def __post_init__(self):
        if len(self.qubit_names) > simkit.MAX_QUBITS:
            raise ValueError(f"coupling map has {len(self.qubit_names)} qubits, "
                             f"more than {simkit.MAX_QUBITS}")
        known = set(self.qubit_names)
        if len(known) != len(self.qubit_names):
            raise ValueError("duplicate qubit names")
        for e in self.edges:
            if e.a not in known or e.b not in known:
                raise ValueError(f"edge {e.a}-{e.b} references unknown qubits")
        pairs = [frozenset((e.a, e.b)) for e in self.edges]
        if len(set(pairs)) != len(pairs):
            raise ValueError("the map lists a pair of qubits in two edges")

    def index(self, name: str) -> int:
        try:
            return self.qubit_names.index(name)
        except ValueError:
            raise ValueError(f"unknown qubit {name!r}; the map has "
                             f"{', '.join(self.qubit_names)}") from None

    def edge_between(self, i: int, j: int) -> Edge | None:
        na, nb = self.qubit_names[i], self.qubit_names[j]
        for e in self.edges:
            if {e.a, e.b} == {na, nb}:
                return e
        return None

    @classmethod
    def from_dict(cls, data) -> "CouplingMap":
        """The map of a parsed JSON object {qubits, edges[a, b, tuned, phase_error_deg (default 0)]};
        a non-object or an unknown, missing or mistyped field raises ValueError."""
        simkit.json_fields(data, "coupling map", {"qubits": "strings", "edges": "list"}, {})
        edges = []
        for i, e in enumerate(data["edges"]):
            simkit.json_fields(e, f"edge {i}", {"a": "string", "b": "string", "tuned": "string"},
                               {"phase_error_deg": "number"})
            edges.append(Edge(e["a"], e["b"], e["tuned"], math.radians(e.get("phase_error_deg", 0.0))))
        return cls(data["qubits"], edges)


def contralto_3q() -> CouplingMap:
    """The D3-A6 / D3-C4 register: tuned qubit is the higher-frequency endpoint.

    Spurious CZ phases are +135 and +90 degrees, so the matching corrections
    are RZ(-135) on A6 and RZ(-90) on D3.
    """
    return CouplingMap(
        ["D3", "A6", "C4"],
        [Edge("D3", "A6", tuned="A6", phase_error=math.radians(135.0)),
         Edge("D3", "C4", tuned="D3", phase_error=math.radians(90.0))],
    )


def cz_phase(cmap: CouplingMap, i: int, j: int) -> tuple[int, float]:
    """Wire and angle of the spurious RZ that a CZ on wires i and j leaves behind.

    The flux pulse detunes the edge's tuned qubit, so the phase lands on that
    wire whatever the order of i and j. Counter-phases in `route`,
    `inject_cz_phase` and `verify_truth_table` all take the phase model from here.
    """
    edge = cmap.edge_between(i, j)
    if edge is None:
        raise RoutingError(f"{cmap.qubit_names[i]}-{cmap.qubit_names[j]} is not a coupled pair")
    return cmap.index(edge.tuned), edge.phase_error


def inject_cz_phase(circuit: Circuit, cmap: CouplingMap) -> Circuit:
    """Append the spurious RZ that `cz_phase` names after every CZ.

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
    return Circuit(circuit.n_qubits, gates)


def decompose_cnot(control: int, target: int, counter_phase: float = 0.0) -> list[Gate]:
    """H(t), RZ(counter_phase)(t), CZ, H(t); equals CNOT when counter_phase is 0."""
    return [Gate.h(target), Gate.rz(target, counter_phase),
            Gate.cz(control, target), Gate.h(target)]


def decompose_cry(control: int, target: int, angle: float, counter_phase: float = 0.0) -> list[Gate]:
    """Controlled-RY via two CNOTs: RY(a/2), CNOT, RY(-a/2), CNOT on the target."""
    return ([Gate.ry(target, angle / 2.0)]
            + decompose_cnot(control, target, counter_phase)
            + [Gate.ry(target, -angle / 2.0)]
            + decompose_cnot(control, target, counter_phase))


def peephole(gates: Sequence[Gate]) -> list[Gate]:
    """Drop RZ(0) and cancel adjacent H pairs on a wire; nothing more aggressive.

    One left-to-right pass reaches the fixed point: a cancelled H pair never
    exposes another H, because the gate before the pair on that wire is not
    an H (an H there would have cancelled the first of the pair).
    """
    out: list[Gate | None] = []
    last_on: dict[int, int | None] = {}  # wire -> index in out of its last kept gate
    for g in gates:
        if g.kind == "rz" and g.angle == 0.0:
            continue
        if g.kind == "h":
            q = g.qubits[0]
            j = last_on.get(q)
            if j is not None and out[j].kind == "h":
                out[j] = last_on[q] = None
                continue
        out.append(g)
        for q in g.qubits:
            last_on[q] = len(out) - 1
    return [g for g in out if g is not None]


def circuit_depth(gates: Sequence[Gate]) -> int:
    """Longest dependency chain (gates sharing a qubit are ordered)."""
    frontier: dict[int, int] = {}
    depth = 0
    for g in gates:
        d = 1 + max((frontier.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            frontier[q] = d
        depth = max(depth, d)
    return depth


@dataclass
class TranspileReport:
    output: Circuit
    swap_count: int
    cz_count: int
    depth: int
    layout: dict[int, str]          # final logical -> physical name
    initial_layout: dict[int, str]

    def to_dict(self) -> dict:
        return {
            "swap_count": self.swap_count,
            "cz_count": self.cz_count,
            "depth": self.depth,
            "layout": {str(k): v for k, v in self.layout.items()},
            "initial_layout": {str(k): v for k, v in self.initial_layout.items()},
            "router": "greedy-bfs",
        }


def _bfs_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """A shortest path from src to dst; neighbours are visited in edge-list order."""
    pairs = [(cmap.index(e.a), cmap.index(e.b)) for e in cmap.edges]
    prev = {src: src}
    queue = deque([src])
    while queue and dst not in prev:
        cur = queue.popleft()
        for nxt in [b if a == cur else a for a, b in pairs if cur in (a, b)]:
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    if dst not in prev:
        raise RoutingError(f"no coupling path between {cmap.qubit_names[src]} and {cmap.qubit_names[dst]}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def route(circuit: Circuit, cmap: CouplingMap, initial_layout: Sequence[str] | None = None,
          counter_phases: bool = True) -> TranspileReport:
    """Map a circuit onto the device graph, inserting SWAPs and lowering gates.

    `initial_layout` names the physical qubit of each logical one, one name each
    (default: logical l on physical l). Every output two-qubit gate acts on a coupled pair.
    """
    n, n_phys = circuit.n_qubits, len(cmap.qubit_names)
    if n > n_phys:
        raise RoutingError(f"circuit needs {n} qubits, map has {n_phys}")
    l2p = list(range(n)) if initial_layout is None else [cmap.index(q) for q in initial_layout]
    if len(l2p) != n:
        raise RoutingError(f"initial layout names {len(l2p)} qubits, the circuit has {n}")
    if len(set(l2p)) != n:
        raise RoutingError("initial layout maps two logical qubits to one physical qubit")
    initial = {l: cmap.qubit_names[p] for l, p in enumerate(l2p)}
    l2p += [p for p in range(n_phys) if p not in l2p]  # idle wires take the spare slots

    def counter_for(pc: int, pt: int) -> float:
        wire, phase = cz_phase(cmap, pc, pt)
        return -phase if counter_phases and wire == pt else 0.0

    out: list[Gate] = []
    swap_count = 0
    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (l2p[g.qubits[0]],), g.angle))
            continue
        la, lb = g.qubits
        if cmap.edge_between(l2p[la], l2p[lb]) is None:
            path = _bfs_path(cmap, l2p[la], l2p[lb])
            for u, v in zip(path[:-2], path[1:-1]):
                for c, t in ((u, v), (v, u), (u, v)):
                    out += decompose_cnot(c, t, counter_for(c, t))
                i, j = l2p.index(u), l2p.index(v)
                l2p[i], l2p[j] = v, u
            swap_count += len(path) - 2
        pa, pb = l2p[la], l2p[lb]
        if g.kind == "cz":
            out.append(Gate.cz(pa, pb))
        elif g.kind == "cnot":
            out += decompose_cnot(pa, pb, counter_for(pa, pb))
        else:
            out += decompose_cry(pa, pb, g.angle, counter_for(pa, pb))

    gates = peephole(out)
    return TranspileReport(
        output=Circuit(n_phys, gates),
        swap_count=swap_count,
        cz_count=sum(1 for g in gates if g.kind == "cz"),
        depth=circuit_depth(gates),
        layout={l: cmap.qubit_names[p] for l, p in enumerate(l2p[:n])},
        initial_layout=initial,
    )


def verify_truth_table(gates: Sequence[Gate], control: int, target: int,
                       tuned: int, phase_error: float) -> float:
    """Mean probability of the correct CNOT output over the four basis inputs.

    The two wires form one edge whose CZ phase error, `phase_error` on wire
    `tuned`, follows every CZ in the sequence as `cz_phase` places it.
    """
    cmap = CouplingMap(["0", "1"], [Edge("0", "1", str(tuned), phase_error)])
    circ = inject_cz_phase(Circuit(2, list(gates)), cmap)
    probs = np.abs(simkit.circuit_unitary(circ)) ** 2  # column b: the output of input |b>
    score = 0.0
    for b in range(4):
        c_bit = (b >> (1 - control)) & 1
        expected = b ^ (1 << (1 - target)) if c_bit else b
        score += float(probs[expected, b])
    return score / 4.0

"""Lowering to the native gate set {RY, RZ, H, X, CZ} under a coupling map.

CNOT(c, t) is realized as H(t) CZ H(t), optionally carrying a counter-phase
RZ between the leading H and the CZ to cancel the spurious single-qubit
phase the flux-pulsed CZ leaves on the edge's tuned qubit. Routing is a
greedy shortest-path SWAP insertion (the instances here are three qubits,
where that decision space is trivial); the report names the router so the
output is not mistaken for a search-based result.
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

    def neighbors(self, i: int) -> list[int]:
        out = []
        for e in self.edges:
            ia, ib = self.index(e.a), self.index(e.b)
            if ia == i:
                out.append(ib)
            elif ib == i:
                out.append(ia)
        return out

    def to_dict(self) -> dict:
        return {
            "qubits": list(self.qubit_names),
            "edges": [{"a": e.a, "b": e.b, "tuned": e.tuned,
                       "phase_error_deg": math.degrees(e.phase_error)} for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CouplingMap":
        edges = [Edge(e["a"], e["b"], e["tuned"], math.radians(e.get("phase_error_deg", 0.0)))
                 for e in data["edges"]]
        return cls(list(data["qubits"]), edges)


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
    return Circuit(circuit.n_qubits, gates, circuit.bit_order)


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
    """Cancel adjacent H pairs on a qubit and drop RZ(0); nothing more aggressive."""
    work = list(gates)
    changed = True
    while changed:
        changed = False
        out: list[Gate | None] = []
        last_on: dict[int, int | None] = {}
        for g in work:
            if g.kind == "rz" and g.angle == 0.0:
                changed = True
                continue
            if g.kind == "h":
                q = g.qubits[0]
                j = last_on.get(q)
                if j is not None and out[j] is not None and out[j].kind == "h":
                    out[j] = None
                    last_on[q] = None
                    changed = True
                    continue
            out.append(g)
            for q in g.qubits:
                last_on[q] = len(out) - 1
        work = [g for g in out if g is not None]
    return work


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
    router: str = "greedy-bfs"

    def to_dict(self) -> dict:
        return {
            "swap_count": self.swap_count,
            "cz_count": self.cz_count,
            "depth": self.depth,
            "layout": {str(k): v for k, v in self.layout.items()},
            "initial_layout": {str(k): v for k, v in self.initial_layout.items()},
            "router": self.router,
        }


def _bfs_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    prev = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            path = [cur]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        for nxt in cmap.neighbors(cur):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    raise RoutingError(f"no coupling path between {cmap.qubit_names[src]} and {cmap.qubit_names[dst]}")


def route(circuit: Circuit, cmap: CouplingMap,
          initial_layout: Sequence[str] | dict[int, str] | None = None,
          counter_phases: bool = True) -> TranspileReport:
    """Map a circuit onto the device graph, inserting SWAPs and lowering gates.

    Every two-qubit gate in the output acts on a coupled pair. SWAPs are three
    CZ-decomposed CNOTs along a BFS shortest path. When `counter_phases` is
    set, each lowered CNOT whose target is its edge's tuned qubit carries the
    RZ(-phase_error) correction.
    """
    n_phys = len(cmap.qubit_names)
    if circuit.n_qubits > n_phys:
        raise RoutingError(f"circuit needs {circuit.n_qubits} qubits, map has {n_phys}")
    if initial_layout is None:
        l2p = list(range(circuit.n_qubits))
    elif isinstance(initial_layout, dict):
        l2p = [cmap.index(initial_layout[l]) for l in range(circuit.n_qubits)]
    else:
        l2p = [cmap.index(name) for name in initial_layout][: circuit.n_qubits]
        if len(l2p) != circuit.n_qubits:
            raise RoutingError("initial layout shorter than the circuit register")
    if len(set(l2p)) != len(l2p):
        raise RoutingError("initial layout maps two logical qubits to one physical qubit")
    initial = {l: cmap.qubit_names[p] for l, p in enumerate(l2p)}

    out: list[Gate] = []
    swap_count = 0

    def counter_for(pc: int, pt: int) -> float:
        wire, phase = cz_phase(cmap, pc, pt)
        return -phase if counter_phases and wire == pt else 0.0

    def emit_cnot(pc: int, pt: int):
        out.extend(decompose_cnot(pc, pt, counter_for(pc, pt)))

    def emit_swap(pa: int, pb: int):
        nonlocal swap_count
        emit_cnot(pa, pb)
        emit_cnot(pb, pa)
        emit_cnot(pa, pb)
        swap_count += 1

    def bring_adjacent(la: int, lb: int) -> tuple[int, int]:
        pa, pb = l2p[la], l2p[lb]
        path = _bfs_path(cmap, pa, pb)
        p2l = {p: l for l, p in enumerate(l2p)}
        for step in range(len(path) - 2):
            u, v = path[step], path[step + 1]
            emit_swap(u, v)
            lu, lv = p2l.get(u), p2l.get(v)
            if lu is not None:
                l2p[lu] = v
            if lv is not None:
                l2p[lv] = u
            p2l = {p: l for l, p in enumerate(l2p)}
        return l2p[la], l2p[lb]

    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (l2p[g.qubits[0]],), g.angle))
            continue
        la, lb = g.qubits
        pa, pb = l2p[la], l2p[lb]
        if cmap.edge_between(pa, pb) is None:
            pa, pb = bring_adjacent(la, lb)
        if g.kind == "cz":
            out.append(Gate.cz(pa, pb))
        elif g.kind == "cnot":
            emit_cnot(pa, pb)
        elif g.kind == "cry":
            cp = counter_for(pa, pb)
            out.extend(decompose_cry(pa, pb, g.angle, cp))
        else:  # unreachable: the gate set has no other two-qubit kinds
            raise ValueError(g.kind)

    gates = peephole(out)
    routed = Circuit(n_phys, gates, circuit.bit_order)
    final = {l: cmap.qubit_names[p] for l, p in enumerate(l2p)}
    return TranspileReport(
        output=routed,
        swap_count=swap_count,
        cz_count=sum(1 for g in gates if g.kind == "cz"),
        depth=circuit_depth(gates),
        layout=final,
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

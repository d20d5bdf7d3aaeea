"""The three closed-loop workloads: one client, each op waits for the last.

A workload draws its inputs from the benchmark seed in `setup`, computes the
reference answers apart from `qcra` in `prepare`, and yields its ops in
rounds. Every op is timed around its call into the program only; its output
is checked afterwards against `oracles`.

- train: `qcra train` fits through `cli.main`, alternating a 2-qubit and a
  3-qubit normal target. Fresh targets and initial angles every round.
- paper: the paper's 3-qubit command mix through `cli.main` (gci, sweep,
  spam, transpile); the same 14 commands every round.
- wide: K-asset GCI risk evaluations at n = 10, 11 and 12 qubits through the
  library's public functions; a pool of 6 rounds of 3 inputs, cycled.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

PAPER_MODEL = {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": 2, "z_max": 1.0}
PAPER_LOADER_DEG = (90.0, 224.0)
PAPER_TRANSPILED_DEG = (90.0, 224.0, 90.0, 90.0, 180.0)
PAPER_LEVEL = 0.95
# Fixed phases of the hardware-ready GCI circuit, in degrees as printed on the
# paper's gate boxes.
TRANSPILED_RZ_Q0 = (-44.40, -125.47)
TRANSPILED_RZ_Q2 = (-125.47, -90.0)
TRANSPILED_COUNTER_PHASE = -135.0

# The Contralto register: wires in this order, and the spurious phase each
# coupled pair's CZ leaves on its tuned qubit (degrees).
CONTRALTO_WIRES = ("D3", "A6", "C4")
CONTRALTO_CZ_PHASE = {frozenset({"D3", "A6"}): ("A6", 135.0), frozenset({"D3", "C4"}): ("D3", 90.0)}

SWEEPS = {  # preset: (theta0, theta1 grid, theta2 grid) in degrees
    "table2-2q": (90.0, (90.0, 450.0, 21.0), None),
    "coarse-3q": (90.0, (90.0, 450.0, 36.0), (90.0, 450.0, 36.0)),
    "fine-3q": (90.0, (100.0, 250.0, 7.5), (90.0, 380.0, 14.5)),
}
NATIVE_KINDS = {"ry", "rz", "h", "x", "cz"}

ROUTE_FAULT = "route counter-phase"


@dataclass
class Op:
    """One timed call into the program plus the checks of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    iterations: Callable[[object], int]
    prepare: Callable[[], None] = lambda: None
    outputs: tuple[Path, ...] = ()
    # A problem whose text starts with this is the fault the op is known to hit.
    known_fault: str | None = None


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _grid(start: float, stop: float, step: float) -> list[float]:
    out, k = [], 0
    while start + k * step <= stop + 1e-9:
        out.append(start + k * step)
        k += 1
    return out


def _deg(values) -> list[float]:
    return [math.radians(v) for v in values]


# --- train --------------------------------------------------------------------

class Train:
    """Loader fits: a 2-qubit and a 3-qubit target per round, never repeated.

    Target width over the grid half-range, sigma / z_max, is stratified over
    [0.4, 1.2] in eight bands so every run sees the same spread of target
    shapes; narrower targets need thousands of iterations or do not converge
    at the default 2000-iteration cap. 2-qubit targets are centred (the only
    normal targets that loader reaches exactly) and fit to tol 1e-8; 3-qubit
    targets are offset by up to 0.3 and fit to 1.05 times the ansatz's loss
    floor.
    """

    name = "train"
    BANDS = 8

    def __init__(self, seed: int, workdir: Path, qcra: dict):
        self.seed = seed
        self.workdir = workdir
        self.cli = qcra["cli"]

    def setup(self):
        self.dir = self.workdir / "train"
        self.dir.mkdir(parents=True, exist_ok=True)

    def prepare(self):
        pass

    def _fit_inputs(self, r: int, n_qubits: int) -> dict:
        rng = np.random.default_rng([self.seed, r, n_qubits])
        band = (r + (n_qubits - 2) * self.BANDS // 2) % self.BANDS
        ratio = 0.4 + 0.8 * (band + rng.uniform()) / self.BANDS
        z_max = float(rng.uniform(1.0, 2.0))
        mu = 0.0 if n_qubits == 2 else float(rng.uniform(-0.3, 0.3))
        return {"n_qubits": n_qubits, "mu": mu, "sigma": ratio * z_max, "z_max": z_max,
                "lr": 0.1, "max_iters": 2000, "cli_seed": int(rng.integers(1, 2**31))}

    def _op(self, r: int, n_qubits: int) -> Op:
        cfg = self._fit_inputs(r, n_qubits)
        path = self.dir / f"config{n_qubits}.json"
        out = self.dir / f"out{n_qubits}"
        expect = {}

        def prepare():
            target = orc.normal_target(n_qubits, cfg["mu"], cfg["sigma"], cfg["z_max"])
            floor = 0.0 if n_qubits == 2 else orc.loss_floor(target)
            tol = 1e-8 if n_qubits == 2 else 1.05 * floor
            expect.update(target=target, floor=floor, tol=tol)
            body = {k: v for k, v in cfg.items() if k != "cli_seed"} | {"tol": tol}
            path.write_text(json.dumps(body))

        def run():
            return self.cli.main(["train", "--config", str(path), "--out-dir", str(out),
                                  "--seed", str(cfg["cli_seed"])])

        def check(rc) -> list[str]:
            if rc != 0:
                return [f"train {n_qubits}q exited {rc}"]
            rep = _read_json(out / "train_report.json")
            hist = rep["loss_history"]
            problems = []
            if not rep["converged"] or rep["iterations"] != len(hist) - 1:
                problems.append("report disagrees with its loss history")
            target = expect["target"]
            final = orc.loader_probs(np.radians(rep["final_thetas_deg"]))
            initial = orc.loader_probs(np.radians(rep["initial_thetas_deg"]))
            problems += orc.check_close("final loss", hist[-1], np.sum((final - target) ** 2), atol=1e-12)
            problems += orc.check_close("initial loss", hist[0], np.sum((initial - target) ** 2), atol=1e-12)
            if not hist[-1] < expect["tol"]:
                problems.append(f"final loss {hist[-1]!r} is not below tol {expect['tol']!r}")
            if hist[-1] < expect["floor"] * (1 - 1e-9) - 1e-15:
                problems.append(f"final loss {hist[-1]!r} beats the loader's floor {expect['floor']!r}")
            with open(out / "loss_history.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if [float(x[1]) for x in rows] != hist:
                problems.append("loss_history.csv differs from the report")
            return problems

        def iterations(rc) -> int:
            return _read_json(out / "train_report.json")["iterations"] if rc == 0 else 0

        return Op(f"train-{n_qubits}q", run, check, iterations, prepare,
                  (out / "train_report.json", out / "loss_history.csv", out / "manifest.json"))

    def round(self, r: int) -> list[Op]:
        return [self._op(r, 2), self._op(r, 3)]


# --- paper --------------------------------------------------------------------

def paper_gci_gates() -> list:
    """The paper's GCI circuit in oracle form: loader plus linear rotation onto q2."""
    at, bt = orc.linearised_rotation(PAPER_MODEL["p0"], PAPER_MODEL["rho"],
                                     PAPER_MODEL["n_z"], PAPER_MODEL["z_max"])
    t0, t1 = _deg(PAPER_LOADER_DEG)
    return [("ry", (0,), t0), ("ry", (1,), t1), ("cnot", (0, 1), None),
            ("ry", (2,), 2 * bt), ("cry", (0, 2), 2 * at), ("cry", (1, 2), 4 * at)]


def paper_transpiled_gates() -> list:
    t0, t1, t2, t3, t4 = _deg(PAPER_TRANSPILED_DEG)
    rz0a, rz0b = _deg(TRANSPILED_RZ_Q0)
    rz2a, rz2b = _deg(TRANSPILED_RZ_Q2)
    return [("ry", (0,), t0), ("ry", (1,), t1), ("ry", (2,), t2), ("h", (1,), None),
            ("rz", (1,), math.radians(TRANSPILED_COUNTER_PHASE)), ("cz", (0, 1), None),
            ("h", (1,), None), ("h", (2,), None), ("cz", (0, 2), None), ("h", (2,), None),
            ("rz", (0,), rz0a), ("rz", (2,), rz2a), ("ry", (0,), t4), ("ry", (2,), t3),
            ("rz", (0,), rz0b), ("rz", (2,), rz2b)]


def gates_to_dict(n_qubits: int, gates: list) -> dict:
    return {"n_qubits": n_qubits, "bit_order": "q0_msb",
            "gates": [{"kind": k, "qubits": list(q)} | ({"angle_deg": math.degrees(a)} if a is not None else {})
                      for k, q, a in gates]}


def with_cz_phase_error(gates: list, wires=CONTRALTO_WIRES) -> list:
    """Physical model of the register: each CZ leaves its edge's phase on the tuned wire."""
    out = []
    for g in gates:
        out.append(g)
        if g[0] == "cz":
            tuned, deg = CONTRALTO_CZ_PHASE[frozenset(wires[q] for q in g[1])]
            out.append(("rz", (wires.index(tuned),), math.radians(deg)))
    return out


def check_routed(ideal: np.ndarray, routed: dict, report: dict, layout: list[str]) -> list[str]:
    """Structural checks of a routed circuit, then equivalence under the device's CZ phases.

    The equivalence problem is reported with the ROUTE_FAULT prefix: it is the
    known fault of routes whose CZ is not followed by a counter-phase.
    """
    problems = []
    n, gates = orc.gates_from_dict(routed)
    if n != len(CONTRALTO_WIRES):
        return [f"routed circuit has {n} wires"]
    for kind, qubits, _ in gates:
        if kind not in NATIVE_KINDS:
            problems.append(f"non-native gate {kind}")
        if kind == "cz" and frozenset(CONTRALTO_WIRES[q] for q in qubits) not in CONTRALTO_CZ_PHASE:
            problems.append(f"CZ on uncoupled wires {qubits}")
    n_cz = sum(1 for g in gates if g[0] == "cz")
    if report["cz_count"] != n_cz:
        problems.append(f"report cz_count {report['cz_count']} != {n_cz} CZ gates")
    if report["initial_layout"] != {str(i): w for i, w in enumerate(layout)}:
        problems.append("report initial layout differs from the requested one")
    final = [report["layout"][str(i)] for i in range(len(layout))]
    if sorted(final) != sorted(CONTRALTO_WIRES):
        return problems + [f"final layout {final} is not a permutation of the wires"]
    if problems:
        return problems
    physical = orc.statevector(n, with_cz_phase_error(gates))
    # logical qubit l sits on wire final[l]: move each logical axis to its wire
    perm = [0] * n
    for logical, wire in enumerate(final):
        perm[CONTRALTO_WIRES.index(wire)] = logical
    expected = ideal.reshape((2,) * n).transpose(perm).reshape(-1)
    err = orc.max_diff_up_to_phase(physical, expected)
    if err > 1e-9:
        problems.append(f"{ROUTE_FAULT}: routed circuit under the device's CZ phases deviates "
                        f"from the ideal by {err:.3f} in amplitude")
    return problems


class Paper:
    """The paper's 3-qubit command mix, 14 commands per round.

    gci --preset paper-gci on the ideal and transpiled circuits, each exact
    and with shots plus readout; sweep table2-2q and coarse-3q with shots plus
    readout and fine-3q exact with readout (sampling its 441 rows would put
    3528 more cells under the 5 sigma check); spam with shots; transpile of the
    paper circuit under each of the six initial layouts, which does not
    depend on the seed. Readout fidelity, shot counts, command seeds and the
    spam angles come from the seed; every round repeats the same commands.
    """

    name = "paper"

    def __init__(self, seed: int, workdir: Path, qcra: dict):
        self.seed = seed
        self.workdir = workdir
        self.cli = qcra["cli"]

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.dir = self.workdir / "paper"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fidelity = round(float(rng.uniform(0.93, 0.99)), 4)
        self.shots = int(rng.choice([10000, 20000, 40000]))
        self.spam_shots = 4000
        self.spam_reps = 100
        self.spam_deg = [round(float(x), 3) for x in (rng.uniform(80, 100), rng.uniform(110, 250),
                                                       rng.uniform(110, 250))]
        self.cli_seeds = [int(s) for s in rng.integers(1, 2**31, size=8)]
        self.circuit_path = self.dir / "paper_gci.json"
        self.circuit_path.write_text(json.dumps(gates_to_dict(3, paper_gci_gates())))
        self.order = rng.permutation(14)

    def prepare(self):
        ro = [orc.readout_factor(self.fidelity)] * 3
        ideal_p = orc.probabilities(3, paper_gci_gates())
        trans_p = orc.probabilities(3, paper_transpiled_gates())
        self.gci_expect = {}
        for circ, p in (("ideal", ideal_p), ("transpiled", trans_p)):
            for noisy in (False, True):
                q = orc.apply_readout(p, ro) if noisy else p
                q = orc.reverse_bits(q, 3)  # asset qubit q2 first, then z bits q1 q0
                self.gci_expect[circ, noisy] = orc.loss_distribution(q, [PAPER_MODEL["lgd"]])
        self.sweep_expect = {}
        for preset, (t0, g1, g2) in SWEEPS.items():
            rows = [(t0, a) for a in _grid(*g1)] if g2 is None else \
                [(t0, a, b) for a in _grid(*g1) for b in _grid(*g2)]
            n = len(rows[0])
            exact = orc.loader_probs(np.radians(np.array(rows)))
            noisy = np.array([orc.apply_readout(p, [orc.readout_factor(self.fidelity)] * n) for p in exact])
            self.sweep_expect[preset] = (np.array(rows), noisy)
        self.spam_expect = orc.loader_probs(np.radians(self.spam_deg))
        self.ideal_state = orc.statevector(3, paper_gci_gates())
        s = self.cli_seeds
        ops = [self._gci("ideal", False, s[0]), self._gci("ideal", True, s[1]),
               self._gci("transpiled", False, s[2]), self._gci("transpiled", True, s[3]),
               self._sweep("table2-2q", True, s[4]), self._sweep("coarse-3q", True, s[5]),
               self._sweep("fine-3q", False, s[6]), self._spam(s[7])]
        ops += [self._transpile(p) for p in itertools.permutations(CONTRALTO_WIRES)]
        self.ops = [ops[i] for i in self.order]

    # each command writes its outputs to its own directory

    def _gci(self, circuit: str, noisy: bool, seed: int) -> Op:
        out = self.dir / f"gci-{circuit}-{int(noisy)}"
        argv = ["gci", "--preset", "paper-gci", "--circuit", circuit, "--out-dir", str(out),
                "--seed", str(seed)]
        if noisy:
            argv += ["--shots", str(self.shots), "--readout-fidelity", str(self.fidelity)]

        def check(rc) -> list[str]:
            if rc != 0:
                return [f"gci exited {rc}"]
            rep = _read_json(out / "gci_report.json")
            want = self.gci_expect[circuit, noisy]
            problems = orc.check_cdf("gci cdf", rep["cdf"], rep["pdf"])
            with open(out / "cdf.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if [[float(a), float(b)] for a, b in rows] != [list(x) for x in zip(rep["losses"], rep["cdf"])]:
                problems.append("cdf.csv differs from the report")
            lv = str(PAPER_LEVEL)
            v, cv = rep["var"][lv], rep["cvar"][lv]
            problems += orc.check_var_support("gci VaR", v, rep["losses"])
            if not (v - 1e-9 <= cv <= max(rep["losses"]) * (1 + 1e-9)):
                problems.append(f"gci CVaR {cv!r} outside [VaR, max loss]")
            if not noisy:
                problems += orc.check_close("gci losses", rep["losses"], want.losses)
                problems += orc.check_close("gci pdf", rep["pdf"], want.pdf, atol=1e-12)
                problems += orc.check_close("gci z marginal", rep["z_marginal"], want.z_marginal, atol=1e-12)
                problems += orc.check_close("gci EL", rep["expected_loss"], want.expected_loss)
                problems += orc.check_close("gci p_default", rep["p_default"], want.pdf[-1], atol=1e-12)
                problems += orc.check_close("gci VaR", v, orc.value_at_risk(want.losses, want.pdf, PAPER_LEVEL))
                problems += orc.check_close("gci CVaR", cv, orc.conditional_var(want.losses, want.pdf, PAPER_LEVEL))
                return problems
            pdf = orc.pdf_on_support(rep["losses"], rep["pdf"], want.losses)
            if pdf is None:
                return problems + ["gci sampled losses outside the support"]
            problems += orc.check_counts("gci pdf", pdf, self.shots)
            problems += orc.check_counts("gci z marginal", rep["z_marginal"], self.shots)
            problems += orc.check_sampled("gci pdf", pdf, want.pdf, self.shots)
            problems += orc.check_sampled("gci z marginal", rep["z_marginal"], want.z_marginal, self.shots)
            problems += orc.check_sampled("gci p_default", [rep["p_default"]], [want.pdf[-1]], self.shots)
            return problems

        return Op(f"gci-{circuit}-{'shots' if noisy else 'exact'}", lambda: self.cli.main(argv), check,
                  lambda rc: 1, outputs=(out / "gci_report.json", out / "cdf.csv", out / "manifest.json"))

    def _sweep(self, preset: str, sampled: bool, seed: int) -> Op:
        out = self.dir / f"sweep-{preset}"
        argv = ["sweep", "--preset", preset, "--readout-fidelity", str(self.fidelity),
                "--out-dir", str(out), "--seed", str(seed)]
        if sampled:
            argv += ["--shots", str(self.shots)]
        grid, noisy = self.sweep_expect[preset]
        tol = 1e-3 if sampled else 1e-9

        def check(rc) -> list[str]:
            if rc != 0:
                return [f"sweep exited {rc}"]
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            header, rows = rows[0], rows[1:]
            n = grid.shape[1]
            if len(rows) != len(grid) or len(header) != n + 2**n + 1:
                return [f"sweep {preset}: {len(rows)} rows of {len(header)} columns"]
            angles = np.array([[float(x) for x in r[:n]] for r in rows])
            probs = np.array([[float(x) for x in r[n:n + 2**n]] for r in rows])
            problems = orc.check_close(f"sweep {preset} angles", angles, grid, atol=1e-9)
            if sampled:
                for i, p in enumerate(probs):
                    problems += orc.check_counts(f"sweep {preset} row {i}", p, self.shots)
                problems += orc.check_sampled(f"sweep {preset}", probs.reshape(-1), noisy.reshape(-1), self.shots)
            else:
                problems += orc.check_close(f"sweep {preset}", probs, noisy, atol=1e-12)
            labels = [orc.classify(p, tol) for p in probs]
            if labels != [r[-1] for r in rows]:
                problems.append(f"sweep {preset}: concavity labels disagree with the rule")
            return problems

        return Op(f"sweep-{preset}", lambda: self.cli.main(argv), check, lambda rc: len(grid),
                  outputs=(out / "sweep.csv", out / "manifest.json"))

    def _spam(self, seed: int) -> Op:
        out = self.dir / "spam"
        argv = ["spam", "--ansatz", "3q", "--thetas", ",".join(map(str, self.spam_deg)),
                "--reps", str(self.spam_reps), "--shots", str(self.spam_shots),
                "--out-dir", str(out), "--seed", str(seed)]

        def check(rc) -> list[str]:
            if rc != 0:
                return [f"spam exited {rc}"]
            rep = _read_json(out / "spam_report.json")
            p, n, r = self.spam_expect, self.spam_shots, self.spam_reps
            problems = []
            if len(rep["pairs"]) != 4:
                return ["spam report does not hold the 4 symmetric pairs"]
            for i in range(4):
                j = 7 - i
                label = f"{i:03b}-{j:03b}"
                got = rep["pairs"][label]
                # the pooled mean is (K_i - K_j) / (r n) over r n shots: a sum of unit-bounded terms
                pooled = r * n
                if abs(got["mean"] - (p[i] - p[j])) * pooled > orc.count_deviation_bound(pooled * (p[i] + p[j])):
                    problems.append(f"spam {label} mean {got['mean']!r} vs exact {p[i] - p[j]!r}")
                # sample std of r near-normal draws: relative standard error 1/sqrt(2(r-1));
                # with under 20 expected counts per repetition the draws are not near normal
                sd = math.sqrt((p[i] * (1 - p[i]) + p[j] * (1 - p[j]) + 2 * p[i] * p[j]) / n)
                if n * (p[i] + p[j]) >= 20 and abs(got["std"] - sd) > orc.SIGMAS * sd / math.sqrt(2 * (r - 1)):
                    problems.append(f"spam {label} std {got['std']!r} vs expected {sd!r}")
            return problems

        return Op("spam", lambda: self.cli.main(argv), check, lambda rc: self.spam_reps,
                  outputs=(out / "spam_report.json", out / "manifest.json"))

    def _transpile(self, layout: tuple[str, ...]) -> Op:
        out = self.dir / f"transpile-{''.join(layout)}"
        argv = ["transpile", "--circuit", str(self.circuit_path), "--preset", "contralto-3q",
                "--layout", ",".join(layout), "--out-dir", str(out)]

        def check(rc) -> list[str]:
            if rc != 0:
                return [f"transpile exited {rc}"]
            return check_routed(self.ideal_state, _read_json(out / "transpiled.json"),
                                _read_json(out / "transpile_report.json"), list(layout))

        return Op(f"transpile-{','.join(layout)}", lambda: self.cli.main(argv), check, lambda rc: 1,
                  outputs=(out / "transpiled.json", out / "transpile_report.json", out / "manifest.json"),
                  known_fault=ROUTE_FAULT)

    def round(self, r: int) -> list[Op]:
        return self.ops

# --- wide ---------------------------------------------------------------------

@dataclass
class WideInput:
    assets: list  # oracle Assets
    factor_thetas: list[float]
    z_max: float
    shots: int
    sample_seed: int
    expect: dict = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        return len(self.assets) + len(self.factor_thetas)


class Wide:
    """Multi-asset GCI risk evaluations at n = K + n_z = 10, 11 and 12.

    Each round holds one input per register size. The factor register has 3,
    4 or 5 qubits, rotating over the rounds so that every run holds each
    (size, factor qubits) pair twice; the rest are assets with their own p0,
    correlation and LGD (a multiple of 50). The device calibration (per-qubit
    readout fidelities) comes from the seed; its dense readout models are
    built once per register size in set-up, as a caller holding one
    calibration would. VaR and CVaR are taken at 0.99 on the exact and on the
    sampled outcomes.
    """

    name = "wide"
    SIZES = (10, 11, 12)
    POOL_ROUNDS = 6
    LEVEL = 0.99
    SHOTS = 20000

    def __init__(self, seed: int, workdir: Path, qcra: dict):
        self.seed = seed
        self.q = qcra
        self.readout = {}
        self.tracer = None

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.fidelities = rng.uniform(0.95, 0.995, size=max(self.SIZES))
        self.factors = [orc.readout_factor(f) for f in self.fidelities]
        self.readout = {}  # drop the previous set-up's matrices before building new ones
        for n in self.SIZES:
            self.readout[n] = self.q["noise"].ConfusionMatrix.from_factors(self.factors[:n])
        self.pool = []
        for r in range(self.POOL_ROUNDS):
            row = []
            for i, n in enumerate(self.SIZES):
                n_z = 3 + (r + i) % 3
                assets = [orc.Asset(float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.05, 0.3)),
                                    50.0 * int(rng.integers(1, 21))) for _ in range(n - n_z)]
                row.append(WideInput(assets, [float(x) for x in rng.uniform(0.8, 2.4, size=n_z)],
                                     float(rng.uniform(1.5, 3.0)), self.SHOTS, int(rng.integers(1, 2**31))))
            self.pool.append(row)

    def prepare(self):
        for row in self.pool:
            for inp in row:
                joint = orc.gci_joint(inp.assets, inp.factor_thetas, inp.z_max)
                noisy = orc.apply_readout(joint, self.factors[:inp.n_qubits])
                dist = orc.loss_distribution(noisy, [a.lgd for a in inp.assets])
                inp.expect = {"probs": noisy, "dist": dist,
                              "var": orc.value_at_risk(dist.losses, dist.pdf, self.LEVEL),
                              "cvar": orc.conditional_var(dist.losses, dist.pdf, self.LEVEL)}

    def build_circuit(self, inp: WideInput, models):
        """RY per factor qubit; per asset RY(2 beta~) and CRY(2 alpha~ 2^w) from each factor qubit."""
        simkit = self.q["simkit"]
        k, n_z = len(models), len(inp.factor_thetas)
        gates = [simkit.Gate.ry(k + j, t) for j, t in enumerate(inp.factor_thetas)]
        for a, m in enumerate(models):
            gates.append(simkit.Gate.ry(a, 2.0 * m.beta_tilde))
            for j in range(n_z):
                gates.append(simkit.Gate.cry(k + j, a, 2.0 * m.alpha_tilde * 2 ** (n_z - 1 - j)))
        return simkit.Circuit(k + n_z, gates)

    def evaluate(self, inp: WideInput) -> dict:
        q = self.q
        n_z = len(inp.factor_thetas)
        models = [q["finmodel"].GciModel(a.p0, a.rho, a.lgd, n_z, inp.z_max) for a in inp.assets]
        if self.tracer is None:
            circuit = self.build_circuit(inp, models)
        else:  # Gate and Circuit construction is simkit's work
            span = self.tracer.begin("simkit.build")
            circuit = self.build_circuit(inp, models)
            self.tracer.finish(span)
        probs = q["simkit"].born_probabilities(q["simkit"].simulate(circuit))
        probs = q["noise"].apply_confusion(probs, self.readout[inp.n_qubits])
        k = len(models)
        layout = q["riskpipe"].RegisterLayout(tuple(range(k)), tuple(range(k, k + n_z)),
                                           tuple(m.lgd for m in models))
        exact = q["riskpipe"].decode_counts(probs, layout)
        counts = q["noise"].sample_shots(probs, inp.shots, inp.sample_seed)
        sampled = q["riskpipe"].decode_counts(counts, layout)
        return {"probs": probs, "exact": exact, "sampled": sampled, "n_shots": counts.n_shots,
                "var": q["riskpipe"].var(exact, self.LEVEL), "cvar": q["riskpipe"].cvar(exact, self.LEVEL),
                "var_s": q["riskpipe"].var(sampled, self.LEVEL), "cvar_s": q["riskpipe"].cvar(sampled, self.LEVEL)}

    def check(self, inp: WideInput, res: dict) -> list[str]:
        want = inp.expect
        d = want["dist"]
        ex, sa = res["exact"], res["sampled"]
        problems = orc.check_close("wide outcome probabilities", res["probs"], want["probs"], atol=1e-12)
        problems += orc.check_close("wide losses", ex.losses, d.losses)
        problems += orc.check_close("wide pdf", ex.pdf, d.pdf, atol=1e-12)
        problems += orc.check_close("wide z marginal", ex.z_marginal, d.z_marginal, atol=1e-12)
        problems += orc.check_close("wide EL", ex.expected_loss, d.expected_loss)
        problems += orc.check_close("wide VaR", res["var"], want["var"])
        problems += orc.check_close("wide CVaR", res["cvar"], want["cvar"])
        problems += orc.check_cdf("wide cdf", ex.cdf, ex.pdf)
        # sampled outcomes: properties, and 5 sigma against the exact distribution
        if res["n_shots"] != inp.shots:
            problems.append(f"sampled {res['n_shots']} shots, asked for {inp.shots}")
        pdf = orc.pdf_on_support(sa.losses, sa.pdf, d.losses)
        if pdf is None:
            return problems + ["wide sampled losses outside the support"]
        problems += orc.check_counts("wide sampled pdf", pdf, inp.shots)
        problems += orc.check_counts("wide sampled z marginal", sa.z_marginal, inp.shots)
        problems += orc.check_cdf("wide sampled cdf", sa.cdf, sa.pdf)
        problems += orc.check_var_support("wide sampled VaR", res["var_s"], sa.losses)
        if not (res["var_s"] - 1e-9 <= res["cvar_s"] <= sa.losses[-1] * (1 + 1e-9)):
            problems.append(f"wide sampled CVaR {res['cvar_s']!r} outside [VaR, max loss]")
        problems += orc.check_sampled("wide sampled pdf", pdf, d.pdf, inp.shots)
        problems += orc.check_sampled("wide sampled z marginal", sa.z_marginal, d.z_marginal, inp.shots)
        return problems

    def round(self, r: int) -> list[Op]:
        return [Op(f"wide-n{inp.n_qubits}", lambda inp=inp: self.evaluate(inp),
                   lambda res, inp=inp: self.check(inp, res), lambda res: 2)
                for inp in self.pool[r % self.POOL_ROUNDS]]

"""The oracles agree with each other and with the program on correct outputs,
and every check rejects a deliberately perturbed output."""

import ast
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from qcra import cli, finmodel, noise, riskpipe, simkit, transpiler  # noqa: E402

QCRA = {"cli": cli, "simkit": simkit, "noise": noise, "riskpipe": riskpipe, "finmodel": finmodel}


def test_oracles_import_nothing_from_qcra():
    tree = ast.parse((BENCH / "oracles.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "qcra"]


# --- the oracles against each other and the program ---

def random_gates(rng, n, count):
    kinds = ["ry", "rz", "h", "x", "cz", "cnot", "cry"]
    gates = []
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        k = 2 if kind in ("cz", "cnot", "cry") else 1
        qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        angle = float(rng.uniform(-7, 7)) if kind in ("ry", "rz", "cry") else None
        gates.append((kind, qubits, angle))
    return gates


@pytest.mark.parametrize("n", [2, 3, 5])
def test_statevector_matches_program(n):
    rng = np.random.default_rng(n)
    gates = random_gates(rng, n, 25)
    circuit = simkit.Circuit(n, [simkit.Gate(k, q, a) for k, q, a in gates])
    assert orc.max_diff_up_to_phase(orc.statevector(n, gates), simkit.simulate(circuit).amplitudes) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_loader_closed_form_matches_statevector(n):
    rng = np.random.default_rng(7)
    for _ in range(5):
        th = rng.uniform(0, 2 * math.pi, size=n)
        np.testing.assert_allclose(orc.loader_probs(th), orc.probabilities(n, orc.loader_gates(th)), atol=1e-14)


def test_linearisation_is_the_derivative_of_arcsin_sqrt_pd():
    p0, rho, n_z, z_max = 0.1, 0.2, 3, 2.0
    nd = orc._STD

    def angle(z):
        return math.asin(math.sqrt(nd.cdf((nd.inv_cdf(p0) - math.sqrt(rho) * z) / math.sqrt(1 - rho))))

    h = 1e-5
    alpha = (angle(h) - angle(-h)) / (2 * h)
    at, bt = orc.linearised_rotation(p0, rho, n_z, z_max)
    dz = 2 * z_max / (2**n_z - 1)
    assert at == pytest.approx(alpha * dz, rel=1e-8)
    assert bt == pytest.approx(angle(0) - alpha * z_max, rel=1e-8)


def test_gci_enumeration_matches_statevector():
    wl = workloads.Wide(0, Path("."), QCRA)
    assets = [orc.Asset(0.05, 0.1, 100.0), orc.Asset(0.15, 0.25, 250.0)]
    inp = workloads.WideInput(assets, [1.1, 1.7, 0.9], 2.0, 1000, 1)
    models = [finmodel.GciModel(a.p0, a.rho, a.lgd, 3, 2.0) for a in assets]
    c = wl.build_circuit(inp, models)
    gates = [(g.kind, g.qubits, g.angle) for g in c.gates]
    np.testing.assert_allclose(orc.gci_joint(assets, inp.factor_thetas, 2.0), orc.probabilities(5, gates), atol=1e-14)


def test_readout_contraction_matches_dense_kron():
    rng = np.random.default_rng(3)
    factors = [orc.readout_factor(f) for f in rng.uniform(0.8, 1.0, size=4)]
    dense = factors[0]
    for f in factors[1:]:
        dense = np.kron(dense, f)
    p = rng.dirichlet(np.ones(16))
    np.testing.assert_allclose(orc.apply_readout(p, factors), dense @ p, atol=1e-15)


def test_loss_floor():
    assert orc.loss_floor(orc.normal_target(2, 0.0, 0.9, 1.5)) < 1e-20  # centred 2q targets are reachable
    t = orc.normal_target(3, 0.2, 0.9, 1.5)
    floor = orc.loss_floor(t)
    rng = np.random.default_rng(0)
    assert np.min(np.sum((orc.loader_probs(rng.uniform(0, 2 * math.pi, (20000, 3))) - t) ** 2, axis=-1)) >= floor
    assert floor > 1e-5


def test_var_cvar_match_tail_sums():
    losses = np.array([0.0, 10.0, 25.0, 40.0])
    pdf = np.array([0.6, 0.3, 0.07, 0.03])
    assert orc.value_at_risk(losses, pdf, 0.95) == 25.0
    # split atom: 0.05 of tail mass = 0.03 at 40 plus 0.02 of the 25 atom
    assert orc.conditional_var(losses, pdf, 0.95) == pytest.approx((0.03 * 40 + 0.02 * 25) / 0.05)


# --- each property check rejects a perturbed output ---

def test_check_counts():
    assert orc.check_counts("c", [0.25, 0.75], 100) == []
    assert orc.check_counts("c", [0.255, 0.745], 100)
    assert orc.check_counts("c", [0.25, 0.74], 100)


def test_check_cdf():
    assert orc.check_cdf("c", [0.5, 1.0], [0.5, 0.5]) == []
    assert orc.check_cdf("c", [0.6, 0.5, 1.0])
    assert orc.check_cdf("c", [0.5, 0.99])
    assert orc.check_cdf("c", [0.5, 1.0], [0.4, 0.6])


def test_check_var_support():
    assert orc.check_var_support("v", 10.0, [0.0, 10.0]) == []
    assert orc.check_var_support("v", 5.0, [0.0, 10.0])


def test_check_sampled_accepts_samples_and_rejects_6_sigma():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(16))
    n = 20000
    f = rng.multinomial(n, p) / n
    assert orc.check_sampled("s", f, p, n) == []
    bad = f.copy()
    i = int(np.argmax(p))
    sd = math.sqrt(p[i] * (1 - p[i]) / n)
    bad[i] = p[i] + 6 * sd
    assert orc.check_sampled("s", bad, p, n)


def test_count_deviation_bound():
    assert orc.count_deviation_bound(1e6) == pytest.approx(5000, rel=2e-3)  # 5 sigma for large counts
    assert 8 < orc.count_deviation_bound(0.0) < 9  # a few counts where none are expected


def test_check_sampled_small_counts():
    p = np.array([1 - 2e-6, 1e-6, 1e-6])
    assert orc.check_sampled("s", [1 - 1e-4, 1e-4, 0.0], p, 10000) == []  # one count where 0.01 expected
    assert orc.check_sampled("s", [1 - 1e-3, 1e-3, 0.0], p, 10000)  # ten counts


# --- workload checks reject perturbed program outputs ---

def run_op(op):
    op.prepare()
    out = op.run()
    return out, op.check(out)


def perturb_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_train_check_rejects_perturbed_report(tmp_path):
    wl = workloads.Train(1, tmp_path, QCRA)
    wl.setup()
    op = wl.round(0)[1]
    rc, problems = run_op(op)
    assert problems == []
    report = op.outputs[0]
    perturb_json(report, lambda d: d["final_thetas_deg"].__setitem__(0, d["final_thetas_deg"][0] + 1.0))
    assert op.check(rc)


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    wl = workloads.Paper(1, tmp_path_factory.mktemp("paper"), QCRA)
    wl.setup()
    wl.prepare()
    return {op.label: op for op in wl.round(0)}


def test_paper_gci_checks(paper):
    for label in ("gci-ideal-exact", "gci-transpiled-shots"):
        op = paper[label]
        rc, problems = run_op(op)
        assert problems == []
        perturb_json(op.outputs[0], lambda d: d["z_marginal"].__setitem__(0, d["z_marginal"][0] + 0.01))
        assert op.check(rc)


def test_paper_sweep_check_rejects_perturbed_row(paper):
    op = paper["sweep-coarse-3q"]
    rc, problems = run_op(op)
    assert problems == []
    path = op.outputs[0]
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3], cells[4] = cells[4], cells[3]  # swap two sampled frequencies
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert op.check(rc)


def test_paper_spam_check_rejects_perturbed_mean(paper):
    op = paper["spam"]
    rc, problems = run_op(op)
    assert problems == []
    std = json.loads(op.outputs[0].read_text())["pairs"]["001-110"]["std"]
    perturb_json(op.outputs[0], lambda d: d["pairs"]["001-110"].__setitem__("std", 1.5 * std))
    assert op.check(rc)
    run_op(op)
    perturb_json(op.outputs[0], lambda d: d["pairs"]["001-110"].__setitem__("mean", d["pairs"]["001-110"]["mean"] + 0.02))
    assert op.check(rc)


def test_spam_check_accepts_pairs_that_are_never_sampled(tmp_path):
    wl = workloads.Paper(1, tmp_path, QCRA)
    wl.setup()
    wl.spam_deg = [90.0, 180.0, 180.0]  # outcomes 000 and 111 have probability ~1e-33
    wl.prepare()
    op = next(o for o in wl.ops if o.label == "spam")
    rc, problems = run_op(op)
    assert json.loads(op.outputs[0].read_text())["pairs"]["000-111"]["std"] == 0.0
    assert problems == []


def test_route_check_flags_the_missing_counter_phase_and_accepts_a_corrected_route(tmp_path):
    ideal_gates = workloads.paper_gci_gates()
    ideal = orc.statevector(3, ideal_gates)
    circ = simkit.Circuit(3, [simkit.Gate(k, q, a) for k, q, a in ideal_gates])
    cmap = transpiler.contralto_3q()
    for layout in itertools.permutations(workloads.CONTRALTO_WIRES):
        rep = transpiler.route(circ, cmap, initial_layout=list(layout))
        routed = simkit.circuit_to_dict(rep.output)
        problems = workloads.check_routed(ideal, routed, rep.to_dict(), list(layout))
        assert problems and all(p.startswith(workloads.ROUTE_FAULT) for p in problems)
        # an uncorrected router, with every CZ followed by its counter-phase, is equivalent
        plain = transpiler.route(circ, cmap, initial_layout=list(layout), counter_phases=False)
        gates = []
        for g in plain.output.gates:
            gates.append(g)
            if g.kind == "cz":
                edge = cmap.edge_between(*g.qubits)
                gates.append(simkit.Gate.rz(cmap.index(edge.tuned), -edge.phase_error))
        fixed = simkit.circuit_to_dict(simkit.Circuit(3, gates))
        assert workloads.check_routed(ideal, fixed, plain.to_dict(), list(layout)) == []


def test_wide_check_rejects_perturbed_outputs():
    wl = workloads.Wide(4, Path("."), QCRA)
    wl.SIZES = (7, 8)  # small registers keep the test fast; the check is the same
    wl.setup()
    wl.prepare()
    inp = wl.pool[0][1]
    res = wl.evaluate(inp)
    assert wl.check(inp, res) == []
    for key, bump in (("var", 50.0), ("cvar", 1e-3)):
        assert wl.check(inp, res | {key: res[key] + bump})
    probs = res["probs"].copy()
    probs[0] += 1e-6
    assert wl.check(inp, res | {"probs": probs})
    sampled = res["sampled"]
    pdf = sampled.pdf.copy()
    pdf[0], pdf[-1] = pdf[-1], pdf[0]
    assert wl.check(inp, res | {"sampled": riskpipe.LossDistribution(sampled.losses, pdf, np.cumsum(pdf),
                                                                      sampled.expected_loss, sampled.z_marginal)})

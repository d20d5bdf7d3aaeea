"""Command-line surface: train / sweep / gci / transpile / spam.

Angles are degrees at this boundary (file schemas say so explicitly) and
radians inside the library. Every command honors --seed and writes a run
manifest last; report files carry no timestamps so reruns with the same
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, circuits, noise, riskpipe, simkit, transpiler, variational
from .finmodel import GciModel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

PAPER_GCI = {
    "model": {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": 2, "z_max": 1.0},
    "loader_thetas_deg": [90.0, 224.0],
    "transpiled_thetas_deg": [90.0, 224.0, 90.0, 90.0, 180.0],
    "levels": [0.95],
}

SWEEP_PRESETS = {
    "table2-2q": {"ansatz": "2q", "theta0": 90.0, "theta1": "90:450:21"},
    "coarse-3q": {"ansatz": "3q", "theta0": 90.0, "theta1": "90:450:36", "theta2": "90:450:36"},
    "fine-3q": {"ansatz": "3q", "theta0": 90.0, "theta1": "100:250:7.5", "theta2": "90:380:14.5"},
}


ANSATZ_QUBITS = {"2q": 2, "3q": 3}

# Cap on sweep rows, for one grid and for the theta1 x theta2 product; the
# largest preset, fine-3q, has 441.
MAX_GRID_POINTS = 100_000

# Cap on spam repetitions, which are all allocated up front; the default is 100.
MAX_REPS = 100_000


class UsageError(Exception):
    pass


def _ansatz_qubits(ansatz) -> int:
    if ansatz not in ANSATZ_QUBITS:
        raise UsageError(f"ansatz must be 2q or 3q, got {ansatz!r}")
    return ANSATZ_QUBITS[ansatz]


def _parse_grid(spec: str) -> list[float]:
    """"start:stop:step" inclusive of stop when it lands on the grid, or one value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"bad angle grid {spec!r}, expected start:stop:step")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"angle grid {spec!r} must be finite")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise UsageError(f"bad angle grid {spec!r}")
    span = (stop + 1e-9 - start) / step
    if not span < MAX_GRID_POINTS:
        raise UsageError(f"angle grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(int(span) + 1)]


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_manifest(out_dir: Path, command: list[str], config: dict, seed, outputs: list[str],
                    started: str):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _readout(args, n_qubits: int) -> noise.ConfusionMatrix | None:
    fid = getattr(args, "readout_fidelity", None)
    if fid is None:
        return None
    return noise.ConfusionMatrix.uniform_readout(n_qubits, fid)


# --- train ---

def cmd_train(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    cfg = json.loads(Path(args.config).read_text())
    for field, check in (("n_qubits", lambda v: v in (2, 3)),
                         ("sigma", lambda v: v > 0),
                         ("z_max", lambda v: v > 0)):
        if field not in cfg:
            raise UsageError(f"config missing field {field!r}")
        if not check(cfg[field]):
            raise UsageError(f"config field {field!r} has invalid value {cfg[field]!r}")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    train_cfg = variational.TrainConfig(
        lr=float(cfg.get("lr", 0.1)),
        max_iters=int(cfg.get("max_iters", 2000)),
        tol=float(cfg.get("tol", 1e-8)),
        seed=seed,
    )
    target = variational.make_target(int(cfg["n_qubits"]), float(cfg.get("mu", 0.0)),
                                     float(cfg["sigma"]), float(cfg["z_max"]))
    report = variational.train_loader(int(cfg["n_qubits"]), target, train_cfg)

    out = _out_dir(args)
    _write_json(out / "train_report.json", report.to_dict())
    with open(out / "loss_history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, loss in enumerate(report.loss_history):
            writer.writerow([i, repr(loss)])
    _write_manifest(out, ["train"], cfg | {"seed": seed}, seed,
                    ["train_report.json", "loss_history.csv"], started)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


# --- sweep ---

def cmd_sweep(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    if args.preset is not None:
        if args.preset not in SWEEP_PRESETS:
            raise UsageError(f"unknown sweep preset {args.preset!r}")
        p = SWEEP_PRESETS[args.preset]
        ansatz, theta0 = p["ansatz"], p["theta0"]
        theta1_spec, theta2_spec = p["theta1"], p.get("theta2")
    else:
        ansatz, theta0 = args.ansatz, args.theta0
        theta1_spec, theta2_spec = args.theta1, args.theta2
    n_qubits = _ansatz_qubits(ansatz)
    if theta1_spec is None:
        raise UsageError("a theta1 grid is required")
    if n_qubits == 3 and theta2_spec is None:
        raise UsageError("the 3q ansatz needs a theta2 grid")
    theta1s = _parse_grid(str(theta1_spec))
    theta2s = _parse_grid(str(theta2_spec)) if n_qubits == 3 else [None]
    if len(theta1s) * len(theta2s) > MAX_GRID_POINTS:
        raise UsageError(f"sweep grid has {len(theta1s) * len(theta2s)} points, "
                         f"more than {MAX_GRID_POINTS}")

    build = variational.loader_builder(n_qubits)
    class_tol = args.class_tol if args.class_tol is not None else (
        1e-3 if args.shots is not None else 1e-9)
    readout = _readout(args, n_qubits)
    grid = [[theta0, t1] + ([t2] if n_qubits == 3 else []) for t1 in theta1s for t2 in theta2s]
    streams = np.random.SeedSequence(args.seed or 0).spawn(len(grid))

    # one batched simulation binds every grid point into the loader's template
    rad = np.array([[math.radians(d) for d in degs] for degs in grid])
    circuit, columns, offsets = variational._check_ry_parameterization(build, rad[0])
    grid_probs = simkit.batch_probabilities(circuit, columns, rad + offsets)

    headers = (["theta0_deg", "theta1_deg"] + (["theta2_deg"] if n_qubits == 3 else [])
               + [f"p_{format(b, f'0{n_qubits}b')}" for b in range(2**n_qubits)] + ["class"])
    rows = [headers]
    for row_idx, (degs, probs) in enumerate(zip(grid, grid_probs)):
        if readout is not None:
            probs = noise.apply_confusion(probs, readout)
        if args.shots is not None:
            rng = np.random.default_rng(streams[row_idx])
            probs = noise.sample_shots(probs, args.shots, rng).frequencies()
        label = circuits.classify_concavity(probs, class_tol).value
        rows.append([repr(float(d)) for d in degs] + [repr(float(p)) for p in probs] + [label])
    out = _out_dir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    config = {"ansatz": ansatz, "theta0": theta0, "theta1": theta1_spec,
              "theta2": theta2_spec, "shots": args.shots, "class_tol": class_tol,
              "preset": args.preset}
    _write_manifest(out, ["sweep"], config, args.seed, ["sweep.csv"], started)
    return EXIT_OK


# --- gci ---

def cmd_gci(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    if args.preset is not None:
        if args.preset != "paper-gci":
            raise UsageError(f"unknown gci preset {args.preset!r}")
        preset = PAPER_GCI
        model_dict = preset["model"]
        loader_deg = preset["loader_thetas_deg"]
        transpiled_deg = preset["transpiled_thetas_deg"]
        levels = preset["levels"]
    elif args.model is not None:
        model_dict = json.loads(Path(args.model).read_text())
        loader_deg = [90.0, 90.0]
        transpiled_deg = None
        levels = [0.95]
    else:
        raise UsageError("either --preset or --model is required")
    if args.loader_thetas is not None:
        loader_deg = [float(x) for x in args.loader_thetas.split(",")]
    if args.transpiled_thetas is not None:
        transpiled_deg = [float(x) for x in args.transpiled_thetas.split(",")]
    if args.levels is not None:
        levels = [float(x) for x in args.levels.split(",")]
    try:
        model = GciModel.from_dict(model_dict)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"invalid model: {exc}") from exc
    if args.circuit == "transpiled" and transpiled_deg is None:
        raise UsageError("the transpiled circuit needs --transpiled-thetas")

    seed = args.seed or 0
    dist, report = riskpipe.run_gci_pipeline(
        model,
        circuit=args.circuit,
        loader_thetas=[math.radians(d) for d in loader_deg],
        transpiled_thetas=([math.radians(d) for d in transpiled_deg]
                           if transpiled_deg is not None else None),
        confusion=_readout(args, 1 + model.n_z),
        shots=args.shots,
        seed=seed,
        levels=levels,
    )
    out = _out_dir(args)
    _write_json(out / "gci_report.json", report)
    with open(out / "cdf.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss", "cdf"])
        for loss, c in zip(dist.losses, dist.cdf):
            writer.writerow([repr(float(loss)), repr(float(c))])
    _write_manifest(out, ["gci"], report["config_echo"], seed,
                    ["gci_report.json", "cdf.csv"], started)
    return EXIT_OK


# --- transpile ---

def cmd_transpile(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    circ = simkit.circuit_from_json(Path(args.circuit).read_text())
    if args.map is not None:
        cmap = transpiler.CouplingMap.from_dict(json.loads(Path(args.map).read_text()))
    elif args.preset == "contralto-3q" or args.preset is None:
        cmap = transpiler.contralto_3q()
    else:
        raise UsageError(f"unknown coupling-map preset {args.preset!r}")
    layout = args.layout.split(",") if args.layout else None
    try:
        report = transpiler.route(circ, cmap, initial_layout=layout)
    except transpiler.RoutingError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)
    _write_json(out / "transpiled.json", simkit.circuit_to_dict(report.output))
    _write_json(out / "transpile_report.json", report.to_dict())
    _write_manifest(out, ["transpile"],
                    {"circuit": args.circuit, "map": args.map, "preset": args.preset,
                     "layout": args.layout},
                    args.seed, ["transpiled.json", "transpile_report.json"], started)
    return EXIT_OK


# --- spam ---

def cmd_spam(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    if args.reps > MAX_REPS:
        raise UsageError(f"--reps {args.reps} is more than {MAX_REPS}")
    thetas_deg = [float(x) for x in args.thetas.split(",")]
    build = variational.loader_builder(_ansatz_qubits(args.ansatz))
    circ = build([math.radians(d) for d in thetas_deg])
    seed = args.seed or 0
    report = noise.spam_statistics(circ, args.reps, args.shots, seed=seed,
                                   confusion=_readout(args, circ.n_qubits))
    out = _out_dir(args)
    payload = report.to_dict() | {"thetas_deg": thetas_deg, "ansatz": args.ansatz, "seed": seed}
    _write_json(out / "spam_report.json", payload)
    _write_manifest(out, ["spam"], payload, seed, ["spam_report.json"], started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcra",
                                     description="Distribution-loading circuits, transpilation and credit-risk post-processing")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", required=True, help="directory for output files")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for numeric reproducibility")

    p_train = sub.add_parser("train", help="fit a loader to a discrete normal target")
    p_train.add_argument("--config", required=True, help="training config JSON")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="angle sweep with concavity classification")
    p_sweep.add_argument("--preset", choices=sorted(SWEEP_PRESETS), default=None)
    p_sweep.add_argument("--ansatz", choices=sorted(ANSATZ_QUBITS), default=None)
    p_sweep.add_argument("--theta0", type=float, default=90.0, help="fixed theta0 (degrees)")
    p_sweep.add_argument("--theta1", default=None, help="degrees, start:stop:step or one value")
    p_sweep.add_argument("--theta2", default=None, help="degrees, start:stop:step or one value")
    p_sweep.add_argument("--shots", type=int, default=None)
    p_sweep.add_argument("--readout-fidelity", type=float, default=None)
    p_sweep.add_argument("--class-tol", type=float, default=None)
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gci = sub.add_parser("gci", help="run the credit model circuit into a loss report")
    p_gci.add_argument("--preset", default=None, help="paper-gci")
    p_gci.add_argument("--model", default=None, help="model JSON {p0, rho, lgd, n_z, z_max}")
    p_gci.add_argument("--circuit", choices=["ideal", "transpiled"], default="ideal")
    p_gci.add_argument("--loader-thetas", default=None, help="degrees, comma separated")
    p_gci.add_argument("--transpiled-thetas", default=None, help="degrees, five comma-separated values")
    p_gci.add_argument("--levels", default=None, help="confidence levels, comma separated")
    p_gci.add_argument("--shots", type=int, default=None)
    p_gci.add_argument("--readout-fidelity", type=float, default=None)
    common(p_gci)
    p_gci.set_defaults(func=cmd_gci)

    p_trans = sub.add_parser("transpile", help="route a circuit onto a coupling map")
    p_trans.add_argument("--circuit", required=True, help="circuit JSON file")
    p_trans.add_argument("--map", default=None, help="coupling map JSON file")
    p_trans.add_argument("--preset", default=None, help="contralto-3q")
    p_trans.add_argument("--layout", default=None, help="comma-separated physical names per logical qubit")
    common(p_trans)
    p_trans.set_defaults(func=cmd_transpile)

    p_spam = sub.add_parser("spam", help="pairwise asymmetry statistics over repeated runs")
    p_spam.add_argument("--ansatz", choices=sorted(ANSATZ_QUBITS), required=True)
    p_spam.add_argument("--thetas", required=True, help="degrees, comma separated")
    p_spam.add_argument("--reps", type=int, default=100)
    p_spam.add_argument("--shots", type=int, default=None, help="omit for exact probabilities")
    p_spam.add_argument("--readout-fidelity", type=float, default=None)
    common(p_spam)
    p_spam.set_defaults(func=cmd_spam)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

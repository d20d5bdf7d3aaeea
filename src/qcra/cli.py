"""Command-line surface: train / sweep / gci / transpile / spam.

Angles are degrees at this boundary (file schemas say so explicitly) and
radians inside the library. Every command honors --seed; report files carry
no timestamps, so reruns with the same seed are byte-identical.

One protocol covers every command. A `cmd_*` function only computes: it
returns a `Run` holding its report files, its manifest config, its seed and
its exit code. `main` alone writes: it renders every file to text, then
creates --out-dir and writes the files in order and then `manifest.json`, and
it writes nothing when the command fails. A usage error (from the parser, a
command's input checks, a report holding NaN or Infinity, or an input file or
--out-dir the OS refuses) prints one `error:` line and returns exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

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

# Loader angles, transpiled angles and levels of a --model run; a preset run
# takes them from PAPER_GCI.
MODEL_GCI = {"loader_thetas_deg": [90.0, 90.0], "transpiled_thetas_deg": None, "levels": [0.95]}

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

# Cap on a train config's max_iters (default 2000): about 20 s of 3q fitting at
# the 0.2 ms per Adam step measured on a 2-vCPU x86-64 VM.
MAX_ITERS = 100_000

# Cap on a train config's lr (default 0.1): an Adam step moves an angle by
# about lr radians, and the loader's probabilities repeat every 2 pi.
MAX_LR = 2.0 * math.pi

# Numeric train-config fields, each with its check (if any) beyond being a
# finite number; the first three are required.
TRAIN_NUMBERS = {"n_qubits": lambda v: v in (2, 3), "sigma": lambda v: v > 0,
                 "z_max": lambda v: v > 0, "max_iters": lambda v: 0 <= v <= MAX_ITERS and v == int(v),
                 "mu": None, "lr": lambda v: 0 < v <= MAX_LR, "tol": None, "seed": lambda v: v == int(v)}


class UsageError(Exception):
    pass


class Run(NamedTuple):
    """What a command hands `main` to write.

    `files` maps each report file name, in writing order, to its payload: a
    dict is written as indented JSON and a list of rows as CSV.
    """

    files: dict[str, dict | list]
    config: dict
    seed: int | None
    code: int = EXIT_OK


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


def float_list(text: str) -> list[float]:
    """A comma-separated list of numbers, as argparse type."""
    return [float(x) for x in text.split(",")]


def _readout(args, n_qubits: int) -> noise.ConfusionMatrix | None:
    if args.readout_fidelity is None:
        return None
    return noise.ConfusionMatrix.uniform_readout(n_qubits, args.readout_fidelity)


# --- train ---

def cmd_train(args) -> Run:
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise UsageError(f"config must be a JSON object, got {type(cfg).__name__}")
    for field, check in TRAIN_NUMBERS.items():
        if field not in cfg:
            if field in ("n_qubits", "sigma", "z_max"):
                raise UsageError(f"config missing field {field!r}")
        elif not (simkit.is_finite_real(cfg[field]) and (check is None or check(cfg[field]))):
            raise UsageError(f"config field {field!r} has invalid value {cfg[field]!r}")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    casts = {"lr": float, "max_iters": int, "tol": float}  # TrainConfig fields; unset ones keep its defaults
    train_cfg = variational.TrainConfig(seed=seed, **{k: cast(cfg[k]) for k, cast in casts.items() if k in cfg})
    target = variational.make_target(int(cfg["n_qubits"]), float(cfg.get("mu", 0.0)),
                                     float(cfg["sigma"]), float(cfg["z_max"]))
    report = variational.train_loader(int(cfg["n_qubits"]), target, train_cfg)
    history = [["iteration", "loss"]] + [[i, repr(loss)] for i, loss in enumerate(report.loss_history)]
    return Run({"train_report.json": report.to_dict(), "loss_history.csv": history},
               cfg | {"seed": seed}, seed, EXIT_OK if report.converged else EXIT_NO_CONVERGENCE)


# --- sweep ---

def cmd_sweep(args) -> Run:
    if args.preset is not None:
        p = SWEEP_PRESETS[args.preset]
        ansatz, theta0 = p["ansatz"], p["theta0"]
        theta1_spec, theta2_spec = p["theta1"], p.get("theta2")
    else:
        ansatz, theta0 = args.ansatz, args.theta0
        theta1_spec, theta2_spec = args.theta1, args.theta2
    if ansatz is None:
        raise UsageError("either --preset or --ansatz is required")
    n_qubits = ANSATZ_QUBITS[ansatz]
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
    circuit, columns, offsets = variational.ry_template(build, rad[0])
    grid_probs = simkit.batch_probabilities(circuit, columns, rad + offsets)
    if readout is not None:
        grid_probs = noise.apply_confusion(grid_probs, readout)

    if args.shots is not None:  # each row samples from its own stream
        grid_probs = np.array([noise.sample_shots(probs, args.shots, np.random.default_rng(stream)).frequencies()
                               for probs, stream in zip(grid_probs, streams)])
    labels = circuits.classify_concavity(grid_probs, class_tol)

    headers = (["theta0_deg", "theta1_deg"] + (["theta2_deg"] if n_qubits == 3 else [])
               + [f"p_{format(b, f'0{n_qubits}b')}" for b in range(2**n_qubits)] + ["class"])
    rows = [headers] + [[repr(float(d)) for d in degs] + [repr(float(p)) for p in probs] + [label.value]
                        for degs, probs, label in zip(grid, grid_probs, labels)]
    config = {"ansatz": ansatz, "theta0": theta0, "theta1": theta1_spec,
              "theta2": theta2_spec, "shots": args.shots, "class_tol": class_tol,
              "preset": args.preset}
    return Run({"sweep.csv": rows}, config, args.seed)


# --- gci ---

def cmd_gci(args) -> Run:
    if args.preset is not None:
        model_dict, defaults = PAPER_GCI["model"], PAPER_GCI
    elif args.model is not None:
        model_dict, defaults = json.loads(Path(args.model).read_text()), MODEL_GCI
    else:
        raise UsageError("either --preset or --model is required")
    loader_deg = args.loader_thetas or defaults["loader_thetas_deg"]
    transpiled_deg = args.transpiled_thetas or defaults["transpiled_thetas_deg"]
    levels = args.levels or defaults["levels"]
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
    cdf = [["loss", "cdf"]] + [[repr(float(loss)), repr(float(c))] for loss, c in zip(dist.losses, dist.cdf)]
    return Run({"gci_report.json": report, "cdf.csv": cdf}, report["config_echo"], seed)


# --- transpile ---

def cmd_transpile(args) -> Run:
    circ = simkit.circuit_from_json(Path(args.circuit).read_text())
    if args.map is not None:
        cmap = transpiler.CouplingMap.from_dict(json.loads(Path(args.map).read_text()))
    else:
        cmap = transpiler.contralto_3q()
    layout = args.layout.split(",") if args.layout else None
    try:
        report = transpiler.route(circ, cmap, initial_layout=layout)
    except transpiler.RoutingError as exc:
        raise UsageError(str(exc)) from exc
    return Run({"transpiled.json": simkit.circuit_to_dict(report.output),
                "transpile_report.json": report.to_dict()},
               {"circuit": args.circuit, "map": args.map, "preset": args.preset, "layout": args.layout},
               args.seed)


# --- spam ---

def cmd_spam(args) -> Run:
    if args.reps > MAX_REPS:
        raise UsageError(f"--reps {args.reps} is more than {MAX_REPS}")
    build = variational.loader_builder(ANSATZ_QUBITS[args.ansatz])
    circ = build([math.radians(d) for d in args.thetas])
    seed = args.seed or 0
    report = noise.spam_statistics(circ, args.reps, args.shots, seed=seed,
                                   confusion=_readout(args, circ.n_qubits))
    payload = report.to_dict() | {"thetas_deg": args.thetas, "ansatz": args.ansatz, "seed": seed}
    return Run({"spam_report.json": payload}, payload, seed)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qcra parser, built once per process (subparsers inherit _Parser)."""
    parser = _Parser(prog="qcra",
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
    p_gci.add_argument("--preset", choices=["paper-gci"], default=None)
    p_gci.add_argument("--model", default=None, help="model JSON {p0, rho, lgd, n_z, z_max}")
    p_gci.add_argument("--circuit", choices=["ideal", "transpiled"], default="ideal")
    p_gci.add_argument("--loader-thetas", type=float_list, default=None, help="degrees, comma separated")
    p_gci.add_argument("--transpiled-thetas", type=float_list, default=None,
                       help="degrees, five comma-separated values")
    p_gci.add_argument("--levels", type=float_list, default=None, help="confidence levels, comma separated")
    p_gci.add_argument("--shots", type=int, default=None)
    p_gci.add_argument("--readout-fidelity", type=float, default=None)
    common(p_gci)
    p_gci.set_defaults(func=cmd_gci)

    p_trans = sub.add_parser("transpile", help="route a circuit onto a coupling map")
    p_trans.add_argument("--circuit", required=True, help="circuit JSON file")
    target = p_trans.add_mutually_exclusive_group()
    target.add_argument("--map", default=None, help="coupling map JSON file")
    target.add_argument("--preset", choices=["contralto-3q"], default=None)
    p_trans.add_argument("--layout", default=None, help="comma-separated physical names per logical qubit")
    common(p_trans)
    p_trans.set_defaults(func=cmd_transpile)

    p_spam = sub.add_parser("spam", help="pairwise asymmetry statistics over repeated runs")
    p_spam.add_argument("--ansatz", choices=sorted(ANSATZ_QUBITS), required=True)
    p_spam.add_argument("--thetas", type=float_list, required=True, help="degrees, comma separated")
    p_spam.add_argument("--reps", type=int, default=100)
    p_spam.add_argument("--shots", type=int, default=None, help="omit for exact probabilities")
    p_spam.add_argument("--readout-fidelity", type=float, default=None)
    common(p_spam)
    p_spam.set_defaults(func=cmd_spam)

    return parser


def _render(name: str, payload: dict | list) -> str:
    """A report's file text: indented JSON for a dict, CSV for a list of rows.

    A non-finite number in a JSON payload raises UsageError: NaN and Infinity
    are not JSON.
    """
    if isinstance(payload, dict):
        try:
            return json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise UsageError(f"{name} would hold a non-finite number ({exc})") from None
    buf = io.StringIO()
    csv.writer(buf).writerows(payload)
    return buf.getvalue()


def _write(path: Path, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    started = datetime.now(timezone.utc).isoformat()
    try:
        args = build_parser().parse_args(argv)
        run = args.func(args)
        manifest = {
            "command": [args.command],
            "config": run.config,
            "seed": run.seed,
            "version": __version__,
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": list(run.files),
        }
        texts = {name: _render(name, payload) for name, payload in (run.files | {"manifest.json": manifest}).items()}
    except (UsageError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)  # after rendering and before any write, so a failure writes nothing
        for name, text in texts.items():
            _write(out / name, text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run.code


if __name__ == "__main__":
    sys.exit(main())

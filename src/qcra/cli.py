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
The JSON input files (train --config, gci --model, transpile --circuit and --map)
are read by `simkit.json_fields`: an unknown, missing or mistyped field exits 2 the
same way, and an integer field takes only a JSON integer (not 2.0 or true).

Each input has one meaning. Apart from --out-dir and --seed (which changes
only what is sampled), every flag a command accepts changes its output, and a
combination in which one could not exits 2: sweep picks its loader from
--theta2, gci's --thetas are the angles of the circuit --circuit names, a
--model run has no transpiled circuit, and a --layout names one physical qubit
per logical one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
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
    "thetas_deg": {"ideal": [90.0, 224.0], "transpiled": [90.0, 224.0, 90.0, 90.0, 180.0]},
    "levels": [0.95],
}

# Default angles and levels of a --model run, which has only the ideal circuit:
# the transpiled one's angles are the paper's, set by hand for its model.
MODEL_GCI = {"thetas_deg": {"ideal": [90.0, 90.0]}, "levels": [0.95]}

# A theta2 grid makes a sweep run the 3q loader; without one it runs the 2q loader.
SWEEP_PRESETS = {
    "table2-2q": {"theta0": 90.0, "theta1": "90:450:21"},
    "coarse-3q": {"theta0": 90.0, "theta1": "90:450:36", "theta2": "90:450:36"},
    "fine-3q": {"theta0": 90.0, "theta1": "100:250:7.5", "theta2": "90:380:14.5"},
}


ANSATZ_QUBITS = {"2q": 2, "3q": 3}

# Cap on sweep rows, for one grid and for the theta1 x theta2 product; the
# largest preset, fine-3q, has 441.
MAX_GRID_POINTS = 100_000

# Cap on spam repetitions, which `noise.sample_rows` draws all at once; the default is 100.
MAX_REPS = 100_000

# Cap on a train config's max_iters (default 2000): about 10 s of 3q fitting at
# the 0.1 ms per Adam step measured through `main` on a 2-vCPU x86-64 VM.
MAX_ITERS = 100_000

# Cap on a train config's lr (default 0.1): an Adam step moves an angle by
# about lr radians, and the loader's probabilities repeat every 2 pi.
MAX_LR = 2.0 * math.pi

# The train config's fields, their kinds (see `simkit.json_fields`) and the range of
# each field that has one (the seed's is `nonnegative_seed`).
TRAIN_REQUIRED = {"n_qubits": "integer", "sigma": "number", "z_max": "number"}
TRAIN_OPTIONAL = {"mu": "number", "lr": "number", "tol": "number", "max_iters": "integer", "seed": "integer"}
TRAIN_RANGES = {"n_qubits": lambda v: v in (2, 3), "sigma": lambda v: v > 0, "z_max": lambda v: v > 0,
                "max_iters": lambda v: 0 <= v <= MAX_ITERS, "lr": lambda v: 0 < v <= MAX_LR}


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


def nonnegative_seed(value) -> int:
    """A seed from --seed (as argparse type) or a train config; a negative one raises
    UsageError with one message for every command, whether it samples or not."""
    seed = int(value)
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    return seed


def float_list(text: str) -> list[float]:
    """A comma-separated list of numbers, as argparse type."""
    return [float(x) for x in text.split(",")]


def _readout(args, n_qubits: int) -> noise.ConfusionMatrix | None:
    if args.readout_fidelity is None:
        return None
    return noise.ConfusionMatrix.uniform_readout(n_qubits, args.readout_fidelity)


# --- train ---

def cmd_train(args) -> Run:
    cfg = simkit.json_fields(json.loads(Path(args.config).read_text()), "train config",
                             TRAIN_REQUIRED, TRAIN_OPTIONAL)
    for field, in_range in TRAIN_RANGES.items():
        if field in cfg and not in_range(cfg[field]):
            raise UsageError(f"train config field {field!r} has invalid value {cfg[field]!r}")
    config_seed = nonnegative_seed(cfg.get("seed", 0))
    seed = args.seed if args.seed is not None else config_seed
    casts = {"lr": float, "max_iters": int, "tol": float}  # TrainConfig fields; unset ones keep its defaults
    train_cfg = variational.TrainConfig(seed=seed, **{k: cast(cfg[k]) for k, cast in casts.items() if k in cfg})
    target = variational.make_target(cfg["n_qubits"], float(cfg.get("mu", 0.0)),
                                     float(cfg["sigma"]), float(cfg["z_max"]))
    report = variational.train_loader(cfg["n_qubits"], target, train_cfg)
    history = [["iteration", "loss"]] + [[i, repr(loss)] for i, loss in enumerate(report.loss_history)]
    return Run({"train_report.json": report.to_dict(), "loss_history.csv": history},
               cfg | {"seed": seed}, seed, EXIT_OK if report.converged else EXIT_NO_CONVERGENCE)


# --- sweep ---

def cmd_sweep(args) -> Run:
    if args.preset is not None:  # the parser keeps --theta1 and --preset apart
        if args.theta0 is not None or args.theta2 is not None:
            raise UsageError("--theta0 and --theta2 cannot be given with --preset")
        p = SWEEP_PRESETS[args.preset]
        theta0, theta1_spec, theta2_spec = p["theta0"], p["theta1"], p.get("theta2")
    else:
        theta0 = 90.0 if args.theta0 is None else args.theta0
        theta1_spec, theta2_spec = args.theta1, args.theta2
    n_qubits = 2 if theta2_spec is None else 3
    theta1s = _parse_grid(theta1_spec)
    theta2s = [None] if theta2_spec is None else _parse_grid(theta2_spec)
    if len(theta1s) * len(theta2s) > MAX_GRID_POINTS:
        raise UsageError(f"sweep grid has {len(theta1s) * len(theta2s)} points, "
                         f"more than {MAX_GRID_POINTS}")

    build = variational.loader_builder(n_qubits)
    class_tol = args.class_tol if args.class_tol is not None else (
        1e-3 if args.shots is not None else 1e-9)
    readout = _readout(args, n_qubits)
    grid = [[theta0, t1, t2][:n_qubits] for t1 in theta1s for t2 in theta2s]

    # one batched simulation of every grid point
    rad = np.array([[math.radians(d) for d in degs] for degs in grid])
    grid_probs = variational.RyAnsatz(build, rad[0]).probabilities(rad)
    if readout is not None:
        grid_probs = noise.apply_confusion(grid_probs, readout)
    if args.shots is not None:
        grid_probs = noise.sample_rows(grid_probs, args.shots, args.seed or 0)
    labels = circuits.classify_concavity(grid_probs, class_tol)

    headers = (["theta0_deg", "theta1_deg", "theta2_deg"][:n_qubits]
               + [f"p_{format(b, f'0{n_qubits}b')}" for b in range(2**n_qubits)] + ["class"])
    rows = [headers] + [[repr(float(d)) for d in degs] + [repr(float(p)) for p in probs] + [label.value]
                        for degs, probs, label in zip(grid, grid_probs, labels)]
    config = {"theta0": theta0, "theta1": theta1_spec, "theta2": theta2_spec, "shots": args.shots,
              "readout_fidelity": args.readout_fidelity, "class_tol": class_tol, "preset": args.preset}
    return Run({"sweep.csv": rows}, config, args.seed)


# --- gci ---

def cmd_gci(args) -> Run:
    if args.preset is not None:
        model_dict, defaults = PAPER_GCI["model"], PAPER_GCI
    elif args.circuit == "transpiled":
        raise UsageError("the transpiled circuit takes no --model, only --preset paper-gci")
    else:
        model_dict, defaults = json.loads(Path(args.model).read_text()), MODEL_GCI
    thetas_deg = args.thetas or defaults["thetas_deg"][args.circuit]
    levels = args.levels or defaults["levels"]
    model = GciModel.from_dict(model_dict)

    seed = args.seed or 0
    readout = _readout(args, 1 + model.n_z)
    dist, report = riskpipe.run_gci_pipeline(model, args.circuit, [math.radians(d) for d in thetas_deg],
                                             confusion=readout, shots=args.shots, seed=seed, levels=levels)
    echo = {"model": model.to_dict(), "circuit": args.circuit, "thetas_deg": thetas_deg, "shots": args.shots,
            "levels": levels, "readout": readout.to_dict() if readout is not None else None}
    cdf = [["loss", "cdf"]] + [[repr(float(loss)), repr(float(c))] for loss, c in zip(dist.losses, dist.cdf)]
    return Run({"gci_report.json": report | {"config_echo": echo, "seed": seed}, "cdf.csv": cdf}, echo, seed)


# --- transpile ---

def cmd_transpile(args) -> Run:
    circ = simkit.circuit_from_json(Path(args.circuit).read_text())
    if args.map is not None:
        cmap = transpiler.CouplingMap.from_dict(json.loads(Path(args.map).read_text()))
    else:
        cmap = transpiler.contralto_3q()
    layout = args.layout.split(",") if args.layout else None
    report = transpiler.route(circ, cmap, initial_layout=layout)  # a RoutingError is a ValueError
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
    config = {"ansatz": args.ansatz, "thetas_deg": args.thetas, "reps": args.reps, "shots": args.shots,
              "readout_fidelity": args.readout_fidelity, "seed": seed}
    payload = report.to_dict() | {"thetas_deg": args.thetas, "ansatz": args.ansatz, "seed": seed}
    return Run({"spam_report.json": payload}, config, seed)


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
        p.add_argument("--seed", type=nonnegative_seed, default=None, help="RNG seed for numeric reproducibility")

    p_train = sub.add_parser("train", help="fit a loader to a discrete normal target")
    p_train.add_argument("--config", required=True,
                         help=f"training config JSON {{{', '.join(TRAIN_REQUIRED | TRAIN_OPTIONAL)}}}")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="angle sweep with concavity classification")
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--preset", choices=sorted(SWEEP_PRESETS), default=None)
    grid.add_argument("--theta1", default=None, help="degrees, start:stop:step or one value")
    p_sweep.add_argument("--theta0", type=float, default=None, help="fixed theta0 (degrees, default 90)")
    p_sweep.add_argument("--theta2", default=None,
                         help="degrees, start:stop:step or one value; selects the 3q loader (omit for 2q)")
    p_sweep.add_argument("--shots", type=int, default=None)
    p_sweep.add_argument("--readout-fidelity", type=float, default=None)
    p_sweep.add_argument("--class-tol", type=float, default=None)
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gci = sub.add_parser("gci", help="run the credit model circuit into a loss report")
    source = p_gci.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=["paper-gci"], default=None)
    source.add_argument("--model", default=None, help="model JSON {p0, rho, lgd, n_z, z_max}")
    p_gci.add_argument("--circuit", choices=["ideal", "transpiled"], default="ideal",
                       help="transpiled needs --preset paper-gci")
    p_gci.add_argument("--thetas", type=float_list, default=None,
                       help="degrees, comma separated: 2 angles ideal, 5 transpiled")
    p_gci.add_argument("--levels", type=float_list, default=None, help="confidence levels, comma separated")
    p_gci.add_argument("--shots", type=int, default=None)
    p_gci.add_argument("--readout-fidelity", type=float, default=None)
    common(p_gci)
    p_gci.set_defaults(func=cmd_gci)

    p_trans = sub.add_parser("transpile", help="route a circuit onto a coupling map")
    p_trans.add_argument("--circuit", required=True,
                         help="circuit JSON {n_qubits, gates[kind, qubits, angle_deg], bit_order}")
    target = p_trans.add_mutually_exclusive_group()
    target.add_argument("--map", default=None, help="coupling map JSON {qubits, edges[a, b, tuned, phase_error_deg]}")
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


@functools.cache
def environment() -> dict:
    """The Python and numpy versions, platform and core count, computed once per process."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


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
            "environment": environment(),
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": list(run.files),
        }
        texts = {name: _render(name, payload) for name, payload in (run.files | {"manifest.json": manifest}).items()}
    except (UsageError, OSError, ValueError) as exc:
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

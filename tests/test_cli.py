import contextlib
import io
import json
import math
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcra import cli

TOO_MANY_SHOTS = str(10**23)  # beyond the C long numpy's multinomial takes
BELL = str(Path(__file__).parent / "data" / "bell.json")  # RY(90) q0, CNOT(0, 1)
CHAIN13 = str(Path(__file__).parent / "data" / "chain13.json")  # a 13-qubit linear coupling map
LINE5 = str(Path(__file__).parent / "data" / "line5.json")  # a 5-qubit linear coupling map
DATA_DIR = str(Path(__file__).parent / "data")  # a directory where an input file is expected
TRAIN = {"n_qubits": 2, "sigma": 0.8, "z_max": 1.5}
GATE = {"kind": "ry", "qubits": [0], "angle_deg": 90.0}
MODEL = {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": 2, "z_max": 1.0}
PAIR = {"qubits": ["a", "b"], "edges": [{"a": "a", "b": "b", "tuned": "b"}]}
EDGE = PAIR["edges"][0]
# finite train configs whose target or Adam steps would overflow or underflow
EXTREME_TRAIN = [TRAIN | {"sigma": 1e-320}, TRAIN | {"z_max": 1e308}, TRAIN | {"mu": 1e308},
                 TRAIN | {"lr": 1e308}]
# a negative seed, on every command and in a train config
NEGATIVE_SEED = [["train", "--config", TRAIN, "--seed", "-1"], ["train", "--config", TRAIN | {"seed": -1}],
                 ["sweep", "--preset", "table2-2q", "--seed", "-1"], ["gci", "--preset", "paper-gci", "--seed", "-1"],
                 ["transpile", "--circuit", BELL, "--seed", "-1"],
                 ["spam", "--ansatz", "2q", "--thetas", "90,200", "--seed", "-1"]]
# Malformed input files, each with the start of its one error line, which names the file and the field
FIELD_ERRORS = [
    (["train", "--config", TRAIN | {"max_iter": 5}], "train config has unknown field 'max_iter'"),
    (["train", "--config", {"n_qubits": 2, "z_max": 1.5}], "train config is missing field 'sigma'"),
    (["train", "--config", TRAIN | {"n_qubits": 2.0}], "train config field 'n_qubits' must be an integer"),
    (["train", "--config", TRAIN | {"max_iters": 5.0}], "train config field 'max_iters' must be an integer"),
    (["train", "--config", TRAIN | {"seed": 3.0}], "train config field 'seed' must be an integer"),
    (["gci", "--model", MODEL | {"pd": 0.1}], "model has unknown field 'pd'"),
    (["gci", "--model", {k: v for k, v in MODEL.items() if k != "p0"}], "model is missing field 'p0'"),
    (["gci", "--model", MODEL | {"n_z": 2.0}], "model field 'n_z' must be an integer"),
    (["transpile", "--circuit", {"n_qubits": 2, "gates": [], "comment": ""}], "circuit has unknown field 'comment'"),
    (["transpile", "--circuit", {"n_qubits": 2}], "circuit is missing field 'gates'"),
    (["transpile", "--circuit", {"n_qubits": 2, "gates": [GATE | {"angle": 90.0}]}],
     "gate 0 has unknown field 'angle'"),
    (["transpile", "--circuit", {"n_qubits": 2, "gates": [{"qubits": [0]}]}], "gate 0 is missing field 'kind'"),
    (["transpile", "--circuit", {"n_qubits": 2, "gates": [GATE | {"angle_deg": None}]}],
     "gate 0 field 'angle_deg' must be a finite number"),
    (["transpile", "--circuit", BELL, "--map", PAIR | {"edges": [EDGE | {"phase_error": 0.5}]}],
     "edge 0 has unknown field 'phase_error'"),
    (["transpile", "--circuit", BELL, "--map", {"edges": []}], "coupling map is missing field 'qubits'"),
    (["transpile", "--circuit", BELL, "--map", PAIR | {"edges": [{"a": "a", "b": "b"}]}],
     "edge 0 is missing field 'tuned'"),
]


def run_cli(tmp_path, capsys, *argv):
    """Run `argv` with --out-dir tmp_path, unless argv names its own --out-dir."""
    rc = cli.main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])
    return rc, capsys.readouterr().err


def as_arg(tmp_path, name, arg):
    """A str as it is; any other value written to a JSON file, whose path is returned."""
    if isinstance(arg, str):
        return arg
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(arg))
    return str(path)


def run_sweep(tmp_path, capsys, *extra):
    return run_cli(tmp_path, capsys, "sweep", *extra)


class TestSweepInputErrors:
    @pytest.mark.parametrize("extra", [
        ["sweep", "--preset", "table2-2q", "--shots", "0"],
        ["sweep", "--preset", "table2-2q", "--shots", "-3"],
        ["sweep", "--theta1", "0:inf:1"],
        ["sweep", "--theta1=-inf:0:1"],
        ["sweep", "--theta1", "nan"],
        ["sweep", "--theta1", "0:1:nan"],
        ["sweep", "--theta1", "0", "--theta2", "inf"],
        ["sweep", "--theta1", "0:1e6:0.5"],
        ["sweep", "--theta1", "0:1e300:1e-300"],
        ["sweep", "--theta1", "0:400:1", "--theta2", "0:400:1"],
        ["sweep", "--preset", "table2-2q", "--shots", TOO_MANY_SHOTS],
        ["gci", "--preset", "paper-gci", "--shots", TOO_MANY_SHOTS],
        ["gci", "--preset", "paper-gci", "--shots", str(2**53 + 1)],
        ["gci", "--preset", "paper-gci", "--shots", "0"],
        ["spam", "--ansatz", "2q", "--thetas", "90,200", "--shots", TOO_MANY_SHOTS],
        ["spam", "--ansatz", "2q", "--thetas", "90,200", "--reps", str(cli.MAX_REPS + 1)],
        ["spam", "--ansatz", "2q", "--thetas", "90,200", "--reps", "1"],
        ["transpile", "--circuit", BELL, "--layout", "D3,XX"],
        ["transpile", "--circuit", BELL, "--map", CHAIN13],
        ["train", "--config", TRAIN | {"sigma": "1"}],
        ["transpile", "--circuit", {"n_qubits": 2, "gates": [GATE | {"qubits": 5}]}],
        ["transpile", "--circuit", {"n_qubits": 2, "gates": [GATE | {"angle_deg": "x"}]}],
        ["gci", "--model", [0.25, 0.027, 1000.0, 2, 1.0]],
        ["train", "--config", TRAIN | {"z_max": float("inf")}],
        ["train", "--config", TRAIN | {"sigma": True}],
        ["train", "--config", TRAIN | {"max_iters": 1e12}],
        ["train", "--config", TRAIN | {"max_iters": 2.5}],
        ["train", "--config", TRAIN | {"max_iters": -1}],
        ["train", "--config", TRAIN | {"lr": float("nan")}],
        ["train", "--config", [2, 0.8, 1.5]],
        ["sweep", "--preset", "table2-2q", "--class-tol", "-1"],
        ["sweep", "--preset", "table2-2q", "--class-tol", "nan"],
        ["gci", "--model", {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": 1e300, "z_max": 1.0}],
        ["gci", "--model", {"p0": 0.25, "rho": 0.027, "lgd": None, "n_z": 2, "z_max": 1.0}],
        ["spam", "--ansatz", "2q", "--thetas", "90,200", "--readout-fidelity", "nan"],
        ["transpile", "--circuit", BELL, "--map", {"qubits": 5, "edges": []}],
        ["transpile", "--circuit", BELL, "--map", [PAIR]],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"qubits": ["a", 1]}],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"edges": EDGE}],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"edges": ["a-b"]}],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"edges": [EDGE | {"a": ["a"]}]}],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"edges": [EDGE | {"phase_error_deg": float("inf")}]}],
        ["gci", "--model", MODEL | {"n_z": 2.7}],
        ["train", "--config", TRAIN | {"seed": 1.5}],
        *[["train", "--config", cfg] for cfg in EXTREME_TRAIN],
        ["sweep", "--preset", "nope"],
        ["gci", "--preset", "nope"],
        ["transpile", "--circuit", BELL, "--preset", "nope"],
        ["gci", "--preset", "paper-gci", "--shots", "abc"],
        ["train"],
        ["train", "--config", DATA_DIR],
        ["gci", "--model", DATA_DIR],
        ["transpile", "--circuit", DATA_DIR],
        ["transpile", "--circuit", BELL, "--map", DATA_DIR],
        ["transpile", "--circuit", BELL, "--map", PAIR | {"edges": [EDGE, {"a": "b", "b": "a", "tuned": "a",
                                                                           "phase_error_deg": 20.0}]}],
        ["sweep", "--preset", "table2-2q", "--out-dir", BELL],
        ["sweep", "--preset", "table2-2q", "--out-dir", str(Path(BELL) / "sub")],
        ["gci", "--model", MODEL | {"rho": 0.999999}],
        ["gci", "--model", MODEL | {"p0": 1 - 2**-53}],
        ["gci", "--model", MODEL | {"p0": 1e-320}],
        ["gci", "--model", MODEL | {"lgd": 1e308}],
        ["train", "--config", TRAIN | {"sigma": 1e308}],
        ["transpile", "--circuit", BELL, "--preset", "contralto-3q", "--map", LINE5],
        *NEGATIVE_SEED,
        ["sweep", "--preset", "table2-2q", "--theta2", "100"],
        ["sweep", "--preset", "table2-2q", "--theta1", "100"],
        ["sweep", "--preset", "table2-2q", "--theta0", "90"],
        ["sweep", "--preset", "coarse-3q", "--theta2", "90"],
        ["gci", "--preset", "paper-gci", "--model", MODEL],
        # inputs the run would otherwise ignore
        ["gci", "--model", MODEL, "--circuit", "transpiled"],
        ["gci", "--model", MODEL, "--circuit", "transpiled", "--thetas", "90,224,90,90,180"],
        ["gci", "--preset", "paper-gci", "--thetas", "1,2,3,4,5"],
        ["gci", "--preset", "paper-gci", "--circuit", "transpiled", "--thetas", "90,224"],
        ["transpile", "--circuit", BELL, "--layout", "D3,A6,C4"],
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, extra):
        argv = [as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(extra)]
        rc, err = run_cli(tmp_path, capsys, *argv)
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unrecognized arguments" not in err  # an unknown flag would pass for the wrong reason

    @pytest.mark.parametrize("argv, message", FIELD_ERRORS, ids=[m for _, m in FIELD_ERRORS])
    def test_input_file_error_names_the_field(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv = [as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(argv)]
        assert cli.main([*argv, "--out-dir", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_has_one_message(self, tmp_path, capsys):
        errors = {run_cli(tmp_path, capsys, *[as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(argv)])[1]
                  for argv in NEGATIVE_SEED}
        assert errors == {"error: seed must be a non-negative integer, got -1\n"}

    @pytest.mark.parametrize("cfg", EXTREME_TRAIN, ids=["sigma", "z_max", "mu", "lr"])
    def test_extreme_train_config_names_its_input(self, tmp_path, capsys, cfg):
        rc, err = run_cli(tmp_path, capsys, "train", "--config", as_arg(tmp_path, "cfg", cfg))
        assert rc == cli.EXIT_USAGE
        assert "target" in err or "'lr'" in err

    def test_failed_sweep_writes_no_csv(self, tmp_path, capsys):
        rc, _ = run_sweep(tmp_path, capsys, "--preset", "table2-2q", "--shots", "0")
        assert rc == cli.EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_grid_cap_is_exact(self):
        assert len(cli._parse_grid("0:99999:1")) == cli.MAX_GRID_POINTS
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0:100000:1")

    def test_grid_includes_stop_on_the_grid(self):
        assert cli._parse_grid("100:250:7.5") == [100.0 + 7.5 * k for k in range(21)]
        assert cli._parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.8999999999999999]
        assert cli._parse_grid("45") == [45.0]

    @pytest.mark.parametrize("thetas", [["--theta0", "90", "--theta1", "1e20"], ["--theta0", "1e20", "--theta1", "90"]],
                             ids=["theta1", "theta0"])
    def test_huge_angles_sweep(self, tmp_path, capsys, thetas):
        rc, err = run_sweep(tmp_path, capsys, *thetas)
        assert rc == cli.EXIT_OK and err == ""
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sum(float(p) for p in row.split(",")[2:6]) == pytest.approx(1.0, abs=1e-12)

    def test_presets_run(self, tmp_path, capsys):
        rc, err = run_sweep(tmp_path, capsys, "--preset", "fine-3q", "--shots", "10", "--seed", "1")
        assert rc == cli.EXIT_OK and err == ""
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 21 * 21

    def test_theta2_selects_the_3q_loader(self, tmp_path, capsys):
        rc, err = run_sweep(tmp_path, capsys, "--theta1", "90", "--theta2", "100")
        assert rc == cli.EXIT_OK and err == ""
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header.split(",")[:4] == ["theta0_deg", "theta1_deg", "theta2_deg", "p_000"]
        assert row.split(",")[:3] == ["90.0", "90.0", "100.0"] and len(row.split(",")) == 3 + 8 + 1


class TestReruns:
    def test_same_seed_gives_identical_reports(self, tmp_path, capsys):
        (tmp_path / "train.json").write_text(json.dumps({"n_qubits": 2, "sigma": 0.8, "z_max": 1.5}))
        (tmp_path / "circuit.json").write_text(json.dumps({"n_qubits": 3, "gates": [
            {"kind": "ry", "qubits": [0], "angle_deg": 40.0}, {"kind": "cnot", "qubits": [0, 2]},
            {"kind": "cry", "qubits": [1, 2], "angle_deg": 63.0}, {"kind": "cnot", "qubits": [2, 1]}]}))
        readout = ["--readout-fidelity", "0.97"]
        commands = {
            "train": ["train", "--config", str(tmp_path / "train.json")],
            "sweep": ["sweep", "--preset", "coarse-3q", "--shots", "500", *readout],
            "gci-ideal": ["gci", "--preset", "paper-gci", "--shots", "1000", *readout],
            "gci-transpiled": ["gci", "--preset", "paper-gci", "--circuit", "transpiled",
                               "--shots", "1000", *readout],
            "spam": ["spam", "--ansatz", "3q", "--thetas", "90,224,180", "--shots", "300"],
            "transpile": ["transpile", "--circuit", str(tmp_path / "circuit.json"), "--layout", "C4,D3,A6"],
        }
        for name, argv in commands.items():
            runs = [tmp_path / name / run for run in ("a", "b")]
            for out in runs:
                rc, err = run_cli(out, capsys, *argv, "--seed", "7")
                assert rc == cli.EXIT_OK, (name, err)
            files = sorted(f.name for f in runs[0].iterdir() if f.name != "manifest.json")
            assert files and files == sorted(f.name for f in runs[1].iterdir() if f.name != "manifest.json")
            for f in files:
                assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes(), (name, f)


    def test_exact_sweep_does_not_depend_on_the_seed(self, tmp_path, capsys):
        for seed in ("0", "5"):
            rc, err = run_cli(tmp_path / seed, capsys, "sweep", "--preset", "table2-2q", "--seed", seed)
            assert rc == cli.EXIT_OK, err
        assert (tmp_path / "0" / "sweep.csv").read_bytes() == (tmp_path / "5" / "sweep.csv").read_bytes()


class TestRecordedInputs:
    def test_gci_echoes_the_angles_as_given(self, tmp_path, capsys):
        for circuit, thetas, echoed in [("ideal", "90,7.5", [90.0, 7.5]),
                                        ("transpiled", "1.5,224,90,90,180", [1.5, 224.0, 90.0, 90.0, 180.0])]:
            out = tmp_path / circuit
            rc, err = run_cli(out, capsys, "gci", "--preset", "paper-gci", "--circuit", circuit, "--thetas", thetas)
            assert rc == cli.EXIT_OK, err
            echo = json.loads((out / "gci_report.json").read_text())["config_echo"]
            assert echo["thetas_deg"] == echoed
            assert json.loads((out / "manifest.json").read_text())["config"] == echo

    @pytest.mark.parametrize("argv", [["sweep", "--preset", "table2-2q", "--shots", "50"],
                                      ["spam", "--ansatz", "2q", "--thetas", "90,200", "--reps", "2", "--shots", "50"]],
                             ids=["sweep", "spam"])
    def test_manifest_records_the_readout_fidelity(self, tmp_path, capsys, argv):
        rc, err = run_cli(tmp_path, capsys, *argv, "--readout-fidelity", "0.97", "--seed", "2")
        assert rc == cli.EXIT_OK, err
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["readout_fidelity"] == 0.97 and config["shots"] == 50
        if argv[0] == "spam":
            assert config == {"ansatz": "2q", "thetas_deg": [90.0, 200.0], "reps": 2, "shots": 50,
                              "readout_fidelity": 0.97, "seed": 2}


class TestProtocol:
    """Commands compute; main alone writes the report files and then the manifest."""

    COMMANDS = {
        "train": (["train", "--config", TRAIN | {"max_iters": 3}],
                  ["train", "--config", TRAIN | {"sigma": -1}]),
        "sweep": (["sweep", "--theta1", "0:90:45"],
                  ["sweep", "--preset", "table2-2q", "--shots", "0"]),
        "gci": (["gci", "--preset", "paper-gci"], ["gci", "--preset", "paper-gci", "--shots", "0"]),
        "transpile": (["transpile", "--circuit", BELL, "--preset", "contralto-3q"],
                      ["transpile", "--circuit", BELL, "--layout", "D3,XX"]),
        "spam": (["spam", "--ansatz", "2q", "--thetas", "90,200", "--reps", "2"],
                 ["spam", "--ansatz", "2q", "--thetas", "90,200", "--reps", "1"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failure_creates_no_out_dir(self, tmp_path, capsys, command):
        argv = [as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(self.COMMANDS[command][1])]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_report_creates_no_out_dir(self, tmp_path, capsys, monkeypatch):
        pipeline = cli.riskpipe.run_gci_pipeline

        def infinite_loss(*args, **kwargs):
            dist, report = pipeline(*args, **kwargs)
            return dist, report | {"expected_loss": math.inf}

        monkeypatch.setattr(cli.riskpipe, "run_gci_pipeline", infinite_loss)
        out = tmp_path / "out"
        assert cli.main(["gci", "--preset", "paper-gci", "--out-dir", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: gci_report.json") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_the_os_refuses_writes_nothing(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        rc = cli.main(["sweep", "--preset", "table2-2q", "--out-dir", str(blocker / sub)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_lists_the_files_written_in_order(self, tmp_path, capsys, monkeypatch, command):
        written = []
        write = cli._write
        monkeypatch.setattr(cli, "_write", lambda path, payload: (written.append(path.name), write(path, payload)))
        argv = [as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(self.COMMANDS[command][0])]
        out = tmp_path / "out"
        rc = cli.main([*argv, "--out-dir", str(out), "--seed", "3"])
        assert rc == (cli.EXIT_NO_CONVERGENCE if command == "train" else cli.EXIT_OK)
        manifest = json.loads((out / "manifest.json").read_text())
        assert written == manifest["outputs"] + ["manifest.json"]
        assert sorted(f.name for f in out.iterdir()) == sorted(written)
        assert manifest["command"] == [command] and manifest["seed"] == 3
        assert manifest["started"] <= manifest["finished"]
        assert manifest["environment"] == {"python": platform.python_version(), "numpy": np.__version__,
                                           "platform": platform.platform(), "cpu_count": os.cpu_count()}
        assert cli.environment.cache_info().misses == 1  # computed once per process


# A field's value is drawn from its valid values (most often), its boundary values, a wrong JSON
# kind, or dropped; an object sometimes gains an unknown key.
WRONG_KINDS = st.sampled_from([None, True, "2", [2], {"k": 2}, 2.5, math.nan, math.inf])
MODES = ("valid",) * 17 + ("boundary", "wrong", "drop")


@st.composite
def json_objects(draw, fields, keep=()):
    """A JSON object from `fields`, which maps each name to (valid strategy, boundary values);
    the fields in `keep` are never dropped."""
    obj = {}
    for name, (valid, boundary) in fields.items():
        mode = draw(st.sampled_from(MODES))
        if mode == "drop" and name not in keep:
            continue
        # a kept field drawn as "drop" takes a valid value
        obj[name] = draw({"boundary": st.sampled_from(boundary), "wrong": WRONG_KINDS}.get(mode, valid))
    if draw(st.integers(0, 19)) == 0:
        obj[draw(st.sampled_from(["max_iter", "phase_error", "comment"]))] = 1
    return obj


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


NAMES = ["a", "b", "c"]
GATES = json_objects({
    "kind": (st.sampled_from(["ry", "rz", "h", "x", "cz", "cnot", "cry"]), ["swap", ""]),
    "qubits": (st.lists(st.integers(0, 2), min_size=1, max_size=2), [[0, 0], [5], [1.0], [-1]]),
    "angle_deg": (floats(-720, 720), [0.0, 1e308, -1e308]),
})
EDGES = json_objects({
    "a": (st.just("a"), ["b", "z"]),
    "b": (st.sampled_from(["b", "c"]), ["a", "z"]),
    "tuned": (st.just("a"), ["b", "c", "z"]),
    "phase_error_deg": (floats(-360, 360), [0.0, 1e308]),
})
# (argv before the input file, the flag that takes it, its fields, the fields never dropped)
INPUT_FILES = {
    "train": (["train"], "--config", {
        "n_qubits": (st.sampled_from([2, 3]), [0, 1, 4, 2.0]),
        "sigma": (floats(0.1, 3.0), [0.0, -1.0, 1e-320, 1e308]),
        "z_max": (floats(0.5, 3.0), [0.0, 1e308]),
        "mu": (floats(-1.0, 1.0), [1e308, -1e308]),
        "lr": (floats(0.01, 0.5), [0.0, 1e-300, cli.MAX_LR, 2 * cli.MAX_LR]),
        "tol": (floats(0.0, 0.05), [0.0, -1.0, 1.0]),
        "max_iters": (st.integers(0, 50), [0, 50, -1, 5.0]),
        "seed": (st.integers(0, 2**32), [0, -1, 2**64]),
    }, ("max_iters",)),  # an absent max_iters means 2000 Adam steps
    "model": (["gci"], "--model", {
        "p0": (floats(0.01, 0.99), [0.0, 1.0, 1e-320, 1 - 2**-53]),
        "rho": (floats(0.0, 0.9), [0.0, 1.0, 0.999999, -0.1]),
        "lgd": (floats(0.0, 1e4), [0.0, -1.0, 1e308]),
        "n_z": (st.just(2), [0, 1, 3, 11, 12, 2.0]),
        "z_max": (floats(0.1, 3.0), [0.0, -1.0, 1e308]),
    }, ()),
    "circuit": (["transpile"], "--circuit", {
        "n_qubits": (st.integers(1, 3), [0, 13, 2.0]),
        "gates": (st.lists(GATES, max_size=4), [[{}], [{"kind": "h"}], ["h"]]),
        "bit_order": (st.just("q0_msb"), ["q0_lsb"]),
    }, ()),
    "map": (["transpile", "--circuit", BELL], "--map", {
        "qubits": (st.permutations(NAMES), [[], ["a"], ["a", "a"]]),
        "edges": (st.lists(EDGES, min_size=1, max_size=2), [[], [{}], ["a-b"]]),
    }, ()),
}


class TestInputFileProperty:
    """Any of the four input files ends in exit 0 or 3 with nothing on stderr, or in exit 2 with
    one stderr line and no --out-dir."""

    @pytest.mark.parametrize("kind", sorted(INPUT_FILES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_stderr(self, kind, data):
        argv, flag, fields, keep = INPUT_FILES[kind]
        obj = data.draw(json_objects(fields, keep), label=kind)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "input.json", Path(tmp) / "out"
            path.write_text(json.dumps(obj))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([*argv, flag, str(path), "--out-dir", str(out)])
            err = err.getvalue()
            assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NO_CONVERGENCE)
            if rc == cli.EXIT_USAGE:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not out.exists()
            else:
                assert err == ""


# A flag takes a valid value (most often), a boundary or wrong value, or is left out.
FLAG_MODES = ("valid",) * 4 + ("odd", "drop", "drop")
ODD_NUMBERS = ["0", "-1", "nan", "inf", "1e-320", "1e308", str(2**53 + 1), "2.5", "1,", ""]


def texts(strategy):
    """Lists drawn from `strategy`, joined by commas into one flag value."""
    return strategy.map(lambda values: ",".join(map(repr, values)))


def angles(n):
    return texts(st.lists(floats(-720, 720), min_size=n, max_size=n))


@st.composite
def grids(draw):
    """A sweep angle grid of at most 11 points: one angle or start:stop:step."""
    start, step, k = draw(floats(-360, 360)), draw(floats(5, 90)), draw(st.integers(0, 10))
    return draw(st.sampled_from([repr(start), f"{start!r}:{start + k * step!r}:{step!r}"]))


ODD_GRIDS = ODD_NUMBERS + ["0:1e6:0.5", "1:0:1", "0:1:0", "0:90", "90,", "0:1e308:1e300"]
# per flag: (valid values, odd values); shots and reps are bounded so that an example runs in milliseconds
SHOTS = (st.integers(1, 500).map(str), ODD_NUMBERS + [str(2**53)])
FIDELITY = (floats(0.5, 1.0).map(repr), ODD_NUMBERS + ["1.0000001", "0.5", "1"])
NUMERIC_FLAGS = {
    "sweep": {"--theta0": (floats(-720, 720).map(repr), ODD_GRIDS), "--theta2": (grids(), ODD_GRIDS),
              "--shots": SHOTS, "--readout-fidelity": FIDELITY,
              "--class-tol": (floats(0.0, 0.1).map(repr), ODD_NUMBERS)},
    "gci": {"--levels": (texts(st.lists(floats(0.01, 0.99), min_size=1, max_size=3)), ODD_NUMBERS + ["0.95,", "1"]),
            "--shots": SHOTS, "--readout-fidelity": FIDELITY},
    "spam": {"--reps": (st.integers(2, 20).map(str), ODD_NUMBERS + ["1", str(cli.MAX_REPS + 1)]),
             "--shots": SHOTS, "--readout-fidelity": FIDELITY},
}
ODD_ANGLES = ODD_NUMBERS + ["90,", "nan,90", "1e308,1e308", "90", "1,2,3,4,5"]


@st.composite
def flags(draw, table):
    """argv for the flags of `table`, each valid, odd or left out; `--flag=value` keeps a value
    such as -1e-05 from reading as a flag."""
    argv = []
    for flag, (valid, odd) in table.items():
        mode = draw(st.sampled_from(FLAG_MODES))
        if mode != "drop":
            argv.append(f"{flag}={draw(valid if mode == 'valid' else st.sampled_from(odd))}")
    return argv


@st.composite
def numeric_argv(draw, model_path):
    """A sweep, gci or spam command line whose numeric flags are drawn from valid, boundary and wrong values."""
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    if command == "sweep":
        head = draw(st.one_of(st.sampled_from(sorted(cli.SWEEP_PRESETS)).map(lambda p: ["--preset", p]),
                              st.one_of(grids(), st.sampled_from(ODD_GRIDS)).map(lambda g: [f"--theta1={g}"])))
    elif command == "gci":
        circuit = draw(st.sampled_from(["ideal", "transpiled"]))
        n = 2 if circuit == "ideal" else 5
        head = draw(st.sampled_from([["--preset", "paper-gci"], ["--model", model_path]])) + ["--circuit", circuit]
        head += draw(flags({"--thetas": (angles(n), ODD_ANGLES)}))
    else:
        ansatz = draw(st.sampled_from(sorted(cli.ANSATZ_QUBITS)))
        thetas = draw(st.one_of(angles(cli.ANSATZ_QUBITS[ansatz]), st.sampled_from(ODD_ANGLES)))
        head = ["--ansatz", ansatz, f"--thetas={thetas}"]
    return [command, *head, *draw(flags(NUMERIC_FLAGS[command]))]


class TestNumericFlagProperty:
    """Any draw of the numeric flags ends in exit 0 or 3 with nothing on stderr, or in exit 2 with
    one stderr line and no --out-dir."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_stderr(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            model, out = Path(tmp) / "model.json", Path(tmp) / "out"
            model.write_text(json.dumps(MODEL))
            argv = data.draw(numeric_argv(str(model)), label="argv")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([*argv, "--out-dir", str(out)])
            err = err.getvalue()
            assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NO_CONVERGENCE)
            if rc == cli.EXIT_USAGE:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not out.exists()
            else:
                assert err == ""

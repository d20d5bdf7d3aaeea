import json
import math
from pathlib import Path

import pytest

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
        ["sweep", "--ansatz", "2q", "--theta1", "0:inf:1"],
        ["sweep", "--ansatz", "2q", "--theta1=-inf:0:1"],
        ["sweep", "--ansatz", "2q", "--theta1", "nan"],
        ["sweep", "--ansatz", "2q", "--theta1", "0:1:nan"],
        ["sweep", "--ansatz", "3q", "--theta1", "0", "--theta2", "inf"],
        ["sweep", "--ansatz", "2q", "--theta1", "0:1e6:0.5"],
        ["sweep", "--ansatz", "2q", "--theta1", "0:1e300:1e-300"],
        ["sweep", "--ansatz", "3q", "--theta1", "0:400:1", "--theta2", "0:400:1"],
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
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, extra):
        argv = [as_arg(tmp_path, f"input{i}", a) for i, a in enumerate(extra)]
        rc, err = run_cli(tmp_path, capsys, *argv)
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_presets_run(self, tmp_path, capsys):
        rc, err = run_sweep(tmp_path, capsys, "--preset", "fine-3q", "--shots", "10", "--seed", "1")
        assert rc == cli.EXIT_OK and err == ""
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 21 * 21


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


class TestProtocol:
    """Commands compute; main alone writes the report files and then the manifest."""

    COMMANDS = {
        "train": (["train", "--config", TRAIN | {"max_iters": 3}],
                  ["train", "--config", TRAIN | {"sigma": -1}]),
        "sweep": (["sweep", "--ansatz", "2q", "--theta1", "0:90:45"],
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

import json
from pathlib import Path

import pytest

from qcra import cli

TOO_MANY_SHOTS = str(10**23)  # beyond the C long numpy's multinomial takes
BELL = str(Path(__file__).parent / "data" / "bell.json")  # RY(90) q0, CNOT(0, 1)
CHAIN13 = str(Path(__file__).parent / "data" / "chain13.json")  # a 13-qubit linear coupling map


def run_cli(tmp_path, capsys, *argv):
    rc = cli.main([*argv, "--out-dir", str(tmp_path)])
    return rc, capsys.readouterr().err


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
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, extra):
        rc, err = run_cli(tmp_path, capsys, *extra)
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

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

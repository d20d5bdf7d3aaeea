import pytest

from qcra import cli


def run_sweep(tmp_path, capsys, *extra):
    rc = cli.main(["sweep", "--out-dir", str(tmp_path), *extra])
    return rc, capsys.readouterr().err


class TestSweepInputErrors:
    @pytest.mark.parametrize("extra", [
        ["--preset", "table2-2q", "--shots", "0"],
        ["--preset", "table2-2q", "--shots", "-3"],
        ["--ansatz", "2q", "--theta1", "0:inf:1"],
        ["--ansatz", "2q", "--theta1=-inf:0:1"],
        ["--ansatz", "2q", "--theta1", "nan"],
        ["--ansatz", "2q", "--theta1", "0:1:nan"],
        ["--ansatz", "3q", "--theta1", "0", "--theta2", "inf"],
        ["--ansatz", "2q", "--theta1", "0:1e6:0.5"],
        ["--ansatz", "2q", "--theta1", "0:1e300:1e-300"],
        ["--ansatz", "3q", "--theta1", "0:400:1", "--theta2", "0:400:1"],
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, extra):
        rc, err = run_sweep(tmp_path, capsys, *extra)
        assert rc == cli.EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

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

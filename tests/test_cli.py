"""CLI tests, run in-process through main() for speed and determinism."""

import json

import pytest

from ristensor.cli import main

SMALL = ["--set", "L=2", "--set", "N_y=2", "--set", "N_z=2",
         "--set", "Q=8", "--set", "M=8", "--set", "K=16"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_near_noiseless(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--snr-db", "300", "--seed", "7",
            "--max-iters", "400", "--tol", "1e-16", *SMALL,
        )
        assert code == 0
        errors = [float(line.split()[-1]) for line in out.splitlines()
                  if line.split() and line.split()[0] in ("tau", "nu", "mu_D", "psi_D")]
        assert len(errors) == 4 and max(errors) < 1e-6

    @pytest.mark.filterwarnings("ignore:dimensions .* violate:UserWarning")
    def test_identifiability_guard_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--set", "N_y=2", "--set", "N_z=2",
            "--set", "K=3", "--set", "L=2", "--set", "Q=8", "--set", "M=8",
        )
        assert code == 2
        assert "K" in err

    def test_unknown_override_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--set", "bogus=1")
        assert code == 2

    @pytest.mark.parametrize("snr", ["inf", "nan"])
    def test_non_finite_snr_exits_2(self, capsys, snr):
        code, _, err = run_cli(capsys, "simulate", "--snr-db", snr, *SMALL)
        assert code == 2 and "snr_db" in err

    def test_deterministic_stdout(self, capsys):
        args = ("simulate", "--snr-db", "20", "--seed", "3",
                "--max-iters", "25", *SMALL)
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestSweep:
    def test_row_count_and_files(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "run")
        code, out, _ = run_cli(
            capsys, "sweep", "--var", "Q", "--values", "4,8,16",
            "--snr", "0:10:30", "--trials", "2", "--seed", "1",
            "--max-iters", "15", "--out", out_prefix, *SMALL,
        )
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 4 * 4  # header + values*snrs*parameters
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["spec"]["sweep_variable"] == "Q"
        assert manifest["spec"]["base"]["Q"] == 8  # --set overrides echoed

    def test_var_none_snr_only(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "flat")
        code, _, _ = run_cli(
            capsys, "sweep", "--var", "none", "--snr", "5,15",
            "--trials", "2", "--max-iters", "15", "--out", out_prefix, *SMALL,
        )
        assert code == 0
        lines = (tmp_path / "flat.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4

    def test_zero_trials_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "0", "--snr", "10",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--jobs", "0")])
    def test_bad_setting_exits_2(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "1", "--snr", "10", flag, value,
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and flag[2:] in err
        assert not (tmp_path / "x.csv").exists()

    def test_jobs_byte_identical(self, capsys, tmp_path):
        base = ["sweep", "--var", "none", "--snr", "10,20", "--trials", "3",
                "--seed", "9", "--max-iters", "15", *SMALL]
        run_cli(capsys, *base, "--out", str(tmp_path / "j1"), "--jobs", "1")
        run_cli(capsys, *base, "--out", str(tmp_path / "j4"), "--jobs", "4")
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j4.csv").read_bytes()


class TestComplexityCmd:
    def test_grid_rows_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--grid", "N=4,8,16")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["4", "8", "16"]
        ops1 = [int(r[2]) for r in rows]
        ops2 = [int(r[3]) for r in rows]
        assert ops1 == sorted(ops1) and ops1[0] < ops1[-1]
        assert ops2 == sorted(ops2) and ops2[0] < ops2[-1]

    def test_bad_grid_variable(self, capsys):
        code, _, err = run_cli(capsys, "complexity", "--grid", "Z=1,2")
        assert code == 2

    def test_grid_value_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "complexity", "--grid", "N=4,0")
        assert code == 2 and out == "" and "N=0" in err


class TestUsage:
    def test_no_verb_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_verb_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

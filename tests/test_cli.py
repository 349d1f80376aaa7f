"""CLI tests, run in-process through main() for speed and determinism."""

import json

import pytest

from ristensor.cli import MAX_SNR_POINTS, _parse_snr_grid, main

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

    def test_identifiability_guard_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--set", "N_y=2", "--set", "N_z=2",
            "--set", "K=3", "--set", "L=2", "--set", "Q=8", "--set", "M=8",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "K=3" in err and err.count("\n") == 1

    @pytest.mark.parametrize("override", ["d1=nan", "d2=inf", "delta_f=nan"])
    def test_non_finite_scenario_exits_2(self, capsys, override):
        code, out, err = run_cli(capsys, "simulate", *SMALL, "--set", override)
        name = override.split("=")[0]
        assert code == 2 and out == "" and f"{name} must be finite" in err

    def test_unknown_override_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--set", "bogus=1")
        assert code == 2

    @pytest.mark.parametrize("override,message", [
        ("K=1e3", "K must be an integer >= 1, got '1e3'"),
        ("delta_f=abc", "delta_f must be finite and > 0, got 'abc'"),
        ("wavelength=0.02", "unknown config key 'wavelength'"),
    ], ids=["K=1e3", "delta_f=abc", "wavelength=0.02"])
    def test_unparsable_override_names_key(self, capsys, override, message):
        code, out, err = run_cli(capsys, "simulate", *SMALL, "--set", override)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_negative_seed_exits_2_before_any_draw(self, capsys, monkeypatch):
        # numpy's own message, "expected non-negative integer", names no option
        import ristensor.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_trial", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, "simulate", "--seed", "-1", *SMALL)
        assert code == 2 and out == "" and "--seed must be an integer >= 0" in err
        assert calls == []

    def test_config_file_precedence(self, capsys, tmp_path):
        # --set beats the file, which beats the defaults
        path = tmp_path / "scenario.cfg"
        path.write_text("# desk scenario\nN_y = 2\nN_z = 2\nK = 16\nM = 8\nQ = 4\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--set", "Q=8",
                               "--max-iters", "5")
        assert code == 0
        assert out.splitlines()[0] == "scenario: L=2 N=4 (2x2) Q=8 M=8 K=16"
        _, direct, _ = run_cli(capsys, "simulate", *SMALL, "--max-iters", "5")
        assert out == direct

    @pytest.mark.parametrize("snr", ["inf", "nan", "4000", "-4000"])
    def test_non_finite_snr_exits_2(self, capsys, monkeypatch, snr):
        import ristensor.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_trial", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, "simulate", f"--snr-db={snr}", *SMALL)
        assert code == 2 and out == "" and "--snr-db" in err and "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("axes", [("N_y=1", "N_z=4"), ("N_y=4", "N_z=1")])
    def test_singleton_ris_axis_exits_2(self, capsys, axes):
        code, out, err = run_cli(capsys, "simulate", *SMALL,
                                 "--set", axes[0], "--set", axes[1])
        assert code == 2 and out == "" and "N_y >= 2 by N_z >= 2" in err

    def test_single_symbol_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *SMALL, "--set", "M=1")
        assert code == 2 and out == "" and "M >= 2" in err

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

    def test_var_none_with_values_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--var", "none", "--values", "8,16", "--snr", "10",
            "--trials", "1", "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and "no sweep values" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("values,snr,name", [("8,8", "10", "sweep_values"),
                                                 ("8", "10,10", "snr_grid_db"),
                                                 ("8", "10,0,10.0", "snr_grid_db")])
    def test_repeated_values_exit_2_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                      values, snr, name):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        code, _, err = run_cli(
            capsys, "sweep", "--var", "Q", "--values", values, "--snr", snr,
            "--trials", "1", "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and f"{name} must not repeat" in err and calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_bad_values_name_the_flag(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--var", "Q", "--values", "4,x", "--snr", "10",
            "--trials", "1", "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and out == ""
        assert err == "error: --values takes a comma list of integers, got '4,x'\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("snr", ["0,x", "0:1", "0:x:10"])
    def test_unparsable_snr_names_the_flag(self, capsys, tmp_path, snr):
        code, out, err = run_cli(
            capsys, "sweep", f"--snr={snr}", "--trials", "1",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and out == ""
        assert err == (f"error: --snr takes a comma list of numbers or a range "
                       f"'start:step:stop', got {snr!r}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_zero_trials_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "0", "--snr", "10",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and "trials" in err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_usage_error(self, capsys, tmp_path, monkeypatch):
        # numpy's own message, "expected non-negative integer", names no field
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "1", "--snr", "10", "--seed", "-1",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and "master_seed must be an integer >= 0" in err and calls == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "inf")])
    def test_bad_setting_exits_2(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "1", "--snr", "10", flag, value,
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and flag[2:] in err
        assert not (tmp_path / "x.csv").exists()

    # a step of 1e-300 asks for 1e300 points, and 1e-320 overflows the count
    @pytest.mark.parametrize("snr", ["0:1:inf", "0:0.5:nan", "-inf:1:0", "0:inf:10",
                                     "0,inf", "nan,10", "0:1e-300:1", "0:1e-320:1",
                                     "0:1:10000", "20,4000", "-4000,20"])
    def test_non_finite_snr_exits_2_before_any_trial(self, capsys, tmp_path, monkeypatch, snr):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        code, _, err = run_cli(
            capsys, "sweep", "--trials", "5", f"--snr={snr}",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and "snr" in err and calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_n_sweep(self, capsys, tmp_path):
        # a base K of 1 is raised to N^2 at every point; N=8 runs on a 2 x 4 RIS
        code, _, _ = run_cli(
            capsys, "sweep", "--var", "N", "--values", "4,8", "--snr", "20",
            "--trials", "2", "--max-iters", "5", "--out", str(tmp_path / "n"),
            "--set", "K=1", "--set", "M=8", "--set", "Q=8",
        )
        assert code == 0
        rows = (tmp_path / "n.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 4
        assert {r.split(",")[1] for r in rows} == {"4.0", "8.0"}

    @pytest.mark.parametrize("var,values", [("L", "2,3"), ("M", "4,8")])
    def test_l_and_m_sweeps(self, capsys, tmp_path, var, values):
        code, _, _ = run_cli(
            capsys, "sweep", "--var", var, "--values", values, "--snr", "20",
            "--trials", "1", "--max-iters", "5", "--out", str(tmp_path / "s"), *SMALL,
        )
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "s.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * 4
        assert {(r[0], r[1]) for r in rows} == {(var, f"{float(v)}") for v in values.split(",")}

    @pytest.mark.parametrize("var", ["N_y", "q", "snr"])
    def test_unknown_sweep_variable_exits_2_before_any_trial(self, capsys, tmp_path,
                                                             monkeypatch, var):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        code, out, err = run_cli(
            capsys, "sweep", "--var", var, "--values", "4,8", "--snr", "20",
            "--trials", "1", "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2 and out == "" and f"got {var!r}" in err and calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_n_sweep_prime_point_exits_2_before_any_trial(self, capsys, tmp_path, monkeypatch):
        # N=5 lays out as 1 x 5, and a singleton axis carries no angle
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        code, _, err = run_cli(
            capsys, "sweep", "--var", "N", "--values", "4,5", "--snr", "20",
            "--trials", "1", "--out", str(tmp_path / "x"), "--set", "K=1",
        )
        assert code == 2 and "N_y=1, N_z=5" in err and calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_snr_range_at_the_point_limit(self):
        assert len(_parse_snr_grid(f"0:1:{MAX_SNR_POINTS - 1}")) == MAX_SNR_POINTS


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

    def test_n_split_matches_sweep(self, capsys):
        from ristensor import ScenarioConfig, complexity_estimate

        code, out, _ = run_cli(capsys, "complexity", "--grid", "N=8")
        report = complexity_estimate(ScenarioConfig(N_y=2, N_z=4), 1, 1)
        assert code == 0
        assert out.splitlines()[1] == f"N,8,{report.stage1_ops},{report.stage2_ops}"

    def test_bad_grid_variable(self, capsys):
        code, _, err = run_cli(capsys, "complexity", "--grid", "Z=1,2")
        assert code == 2

    def test_bad_grid_value_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "complexity", "--grid", "N=4,x")
        assert code == 2 and out == ""
        assert err == "error: --grid takes a comma list of integers, got '4,x'\n"

    def test_grid_value_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "complexity", "--grid", "N=4,0")
        assert code == 2 and out == "" and "N=0" in err

    @pytest.mark.parametrize("flag", ["--iters1", "--iters2"])
    def test_zero_iterations_exits_2_before_output(self, capsys, flag):
        code, out, err = run_cli(capsys, "complexity", "--grid", "N=4", flag, "0")
        assert code == 2 and out == "" and "iteration counts" in err

    @pytest.mark.parametrize("flag,value", [("--max-iters", "-5"), ("--tol", "nan")])
    def test_als_options_rejected(self, capsys, flag, value):
        # the closed-form counts take no ALS settings, so argparse refuses them
        code, out, err = run_cli(capsys, "complexity", "--grid", "N=4", flag, value)
        assert code == 2 and out == "" and flag in err


class TestUsage:
    def test_no_verb_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_verb_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

"""Harness tests: trial/sweep determinism, RMSE aggregation, persistence,
and the complexity model."""

import json

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    EmptyCellError,
    ExperimentSpec,
    IdentifiabilityError,
    complexity_estimate,
    run_sweep,
    run_trial,
    small_config,
    write_manifest,
    write_results,
)
from ristensor.experiment import (
    PARAMETERS,
    RmseRecord,
    draw_target,
    read_results,
    trial_seed_sequence,
)

FAST = AlsSettings(max_iters=25, tol=1e-8)


def tiny_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        base=small_config(),
        sweep_variable="none",
        snr_grid_db=(10.0, 20.0),
        trials=4,
        master_seed=5,
        als=FAST,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestDrawTarget:
    def test_within_unambiguous_ranges(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = draw_target(cfg, rng)
            t.validate(cfg)  # raises when out of range
            assert abs(t.nu) * cfg.T_s >= 0.05 - 1e-12
            assert min(abs(t.mu_d), abs(t.psi_d)) > 1e-3

    def test_deterministic(self):
        cfg = small_config()
        a = draw_target(cfg, np.random.default_rng(9))
        b = draw_target(cfg, np.random.default_rng(9))
        assert a == b


class TestRunTrial:
    def test_near_noiseless_recovery(self):
        cfg = small_config()
        est, diag = run_trial(cfg, AlsSettings(max_iters=400, tol=1e-16), 300.0,
                              trial_seed_sequence(7, 0, 0, 0))
        assert max(est.rel_errors.values()) < 1e-6

    def test_deterministic(self):
        cfg = small_config()
        est1, _ = run_trial(cfg, FAST, 15.0, trial_seed_sequence(3, 0, 0, 1))
        est2, _ = run_trial(cfg, FAST, 15.0, trial_seed_sequence(3, 0, 0, 1))
        assert est1 == est2

    def test_low_snr_completes(self):
        cfg = small_config()
        est, diag = run_trial(cfg, FAST, -20.0, trial_seed_sequence(2, 0, 0, 0))
        assert np.isfinite(est.tau_hat) and np.isfinite(est.nu_hat)


class TestRunSweep:
    def test_single_trial_matches_run_trial(self):
        spec = tiny_spec(trials=1, snr_grid_db=(12.0,))
        records = run_sweep(spec)
        est, diag = run_trial(spec.base, spec.als, 12.0, trial_seed_sequence(5, 0, 0, 0))
        by_param = {r.parameter: r for r in records}
        assert by_param["tau"].rmse == pytest.approx(est.rel_errors["tau"], rel=1e-12)
        assert by_param["nu"].rmse == pytest.approx(est.rel_errors["nu"], rel=1e-12)
        assert by_param["tau"].trials_used == 1
        assert by_param["tau"].mean_stage1_iters == diag["stage1_iters"]

    def test_output_pure_function_of_spec(self):
        spec = tiny_spec()
        assert run_sweep(spec) == run_sweep(tiny_spec())

    def test_jobs_do_not_change_output(self):
        spec = tiny_spec()
        assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=4)

    def test_record_grid_shape(self):
        spec = tiny_spec(sweep_variable="Q", sweep_values=(4, 8), trials=2)
        records = run_sweep(spec)
        assert len(records) == 2 * 2 * 4  # values x snrs x parameters
        assert {r.sweep_var for r in records} == {"Q"}
        assert all(r.trials_used + 0 == 2 for r in records)

    def test_identifiability_validated_up_front(self):
        spec = tiny_spec(sweep_variable="K", sweep_values=(8,))
        with pytest.raises(IdentifiabilityError):
            run_sweep(spec)

    def test_n_sweep_factors_grid(self):
        spec = tiny_spec(sweep_variable="N", sweep_values=(4,),
                         base=small_config(K=16))
        cfg = spec.config_for(4)
        assert (cfg.N_y, cfg.N_z, cfg.K) == (2, 2, 16)
        spec2 = tiny_spec(sweep_variable="N", sweep_values=(9,),
                          base=small_config(K=100), n_sweep_tracks_blocks=True)
        cfg2 = spec2.config_for(9)
        assert (cfg2.N_y, cfg2.N_z, cfg2.K) == (3, 3, 81)

    def test_failed_trial_accounting(self, monkeypatch):
        import ristensor.experiment as exp
        from ristensor import DivergenceError

        real_run_trial = exp.run_trial
        calls = {"n": 0}

        def flaky(cfg, als, snr_db, seed):
            calls["n"] += 1
            if calls["n"] % 3 == 0:  # every third trial diverges
                raise DivergenceError("forced")
            return real_run_trial(cfg, als, snr_db, seed)

        monkeypatch.setattr(exp, "run_trial", flaky)
        spec = tiny_spec(trials=6, snr_grid_db=(15.0,))
        records = run_sweep(spec)
        assert all(rec.trials_used == 4 for rec in records)  # 6 - 2 failures

    def test_all_failed_cell_raises(self, monkeypatch):
        import ristensor.experiment as exp
        from ristensor import DivergenceError

        def always_fails(cfg, als, snr_db, seed):
            raise DivergenceError("forced")

        monkeypatch.setattr(exp, "run_trial", always_fails)
        spec = tiny_spec(trials=3, snr_grid_db=(15.0,))
        with pytest.raises(EmptyCellError):
            run_sweep(spec)


class TestComplexity:
    def test_unit_dims(self):
        cfg = small_config(L=1, N_y=1, N_z=1, Q=1, M=1, K=1)
        report = complexity_estimate(cfg, 1, 1)
        assert report.stage1_ops == 3
        assert report.stage2_ops == 3

    def test_doubling_n_with_k_fixed(self):
        base = small_config(K=300)
        big = base.replace(N_y=4, N_z=4)  # N: 4 -> 16 would be x4; use x4 here
        r_base = complexity_estimate(base, 1, 1)
        r_big = complexity_estimate(big, 1, 1)
        n, l, m, q, k = 4, base.L, base.M, base.Q, base.K
        # dominant term scales as N^4 with K fixed: doubling N multiplies the
        # N^2*K*M*Q*L*N^2 contribution by 16
        term = lambda nn: nn**2 * k * (m * q * (1 + l * nn**2) + l)
        assert r_base.stage1_ops == term(4)
        assert r_big.stage1_ops == term(16)
        assert term(8) == 64 * 300 * (64 * (1 + 2 * 64) + 2)
        assert 16 * (8**4) * k * m * q * l > term(8) > (8 / 2) ** 4 * k * m * q * l

    def test_closed_form_values(self):
        for side in (2, 3, 4):
            n = side * side
            cfg = small_config(N_y=side, N_z=side, K=n * n, Q=8, M=8, L=2)
            report = complexity_estimate(cfg, 7, 5)
            assert report.stage1_ops == 7 * (n**2 * n**2 * (8 * 8 * (1 + 2 * n**2) + 2))
            assert report.stage2_ops == 5 * (n * (8 * 8 * (8**2 + 8**2) + 2**2))

    def test_monotone_in_every_dimension(self):
        cfg = small_config()
        base = complexity_estimate(cfg, 2, 2)
        for change in (dict(L=3), dict(Q=9), dict(M=9), dict(K=17), dict(N_y=3)):
            bigger = complexity_estimate(cfg.replace(**change), 2, 2)
            assert bigger.stage1_ops > base.stage1_ops
            # the stage-2 count has no block term, so K leaves it unchanged
            if "K" in change:
                assert bigger.stage2_ops == base.stage2_ops
            else:
                assert bigger.stage2_ops > base.stage2_ops

    def test_rejects_nonpositive_iters(self):
        with pytest.raises(ValueError):
            complexity_estimate(small_config(), 0, 1)


class TestPersistence:
    def records(self):
        return [
            RmseRecord("Q", 8.0, 0.0, p, 0.25 + i / 7, 200, 31.5, 12.25)
            for i, p in enumerate(PARAMETERS)
        ] + [
            RmseRecord("Q", 16.0, 0.0, p, 0.125 + i / 9, 199, 30.0, 11.0)
            for i, p in enumerate(PARAMETERS)
        ]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        records = self.records()
        write_results(records, path)
        assert read_results(path) == sorted(records, key=lambda r: (r.sweep_value, r.snr_db,
                                                                    PARAMETERS.index(r.parameter)))

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_results(self.records(), p1)
        write_results(list(reversed(self.records())), p2)  # order-insensitive
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], str(tmp_path / "never.csv"))
        assert not (tmp_path / "never.csv").exists()

    def test_header_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(self.records(), str(path))
        header = path.read_text().splitlines()[0]
        assert header == ("sweep_var,sweep_value,snr_db,parameter,rmse,"
                          "trials_used,stage1_iters,stage2_iters")

    def test_manifest_roundtrip(self, tmp_path):
        spec = tiny_spec()
        csv_path = str(tmp_path / "out.csv")
        man_path = str(tmp_path / "out.manifest.json")
        write_results(self.records(), csv_path)
        write_manifest(spec, csv_path, man_path)
        data = json.loads(open(man_path).read())
        assert data["spec"]["trials"] == spec.trials
        assert data["spec"]["base"]["Q"] == spec.base.Q
        assert data["spec"]["master_seed"] == spec.master_seed
        # a spec rebuilt from the manifest reproduces the run
        rebuilt = ExperimentSpec(
            base=small_config(**{k: v for k, v in data["spec"]["base"].items()
                                 if k in ("L", "N_y", "N_z", "Q", "M", "K")}),
            sweep_variable=data["spec"]["sweep_variable"],
            sweep_values=tuple(v for v in data["spec"]["sweep_values"] if v is not None),
            snr_grid_db=tuple(data["spec"]["snr_grid_db"]),
            trials=data["spec"]["trials"],
            master_seed=data["spec"]["master_seed"],
            als=AlsSettings(max_iters=data["spec"]["als"]["max_iters"],
                            tol=data["spec"]["als"]["tol"]),
        )
        assert run_sweep(rebuilt) == run_sweep(spec)

    def test_manifest_deterministic(self, tmp_path):
        spec = tiny_spec()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_manifest(spec, "x.csv", a)
        write_manifest(spec, "x.csv", b)
        assert open(a, "rb").read() == open(b, "rb").read()

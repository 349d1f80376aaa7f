"""Harness tests: trial/sweep determinism, RMSE aggregation, persistence,
and the complexity model."""

import json
from pathlib import Path

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

    @pytest.mark.parametrize("dims", [dict(M=2), dict(Q=2)])
    def test_two_sample_axes_recover(self, dims):
        est, _ = run_trial(small_config(**dims), AlsSettings(max_iters=400, tol=1e-16),
                           300.0, trial_seed_sequence(7, 0, 0, 0))
        assert max(est.rel_errors.values()) < 1e-6

    @pytest.mark.parametrize("dims", [dict(M=1), dict(Q=1)])
    def test_single_sample_axis_rejected(self, dims):
        with pytest.raises(ValueError, match="M >= 2 and Q >= 2"):
            run_trial(small_config(**dims), FAST, 20.0, 0)
        with pytest.raises(ValueError, match="M >= 2 and Q >= 2"):
            tiny_spec(base=small_config(**dims)).validate()

    @pytest.mark.parametrize("dims", [dict(K=15), dict(L=5, M=2, Q=2)])
    def test_unidentifiable_rejected_before_synthesis(self, monkeypatch, dims):
        # K < N^2, or M*Q < L: nothing is drawn or synthesized
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "generate_echo_tensor", lambda *a: calls.append(a))
        with pytest.raises(IdentifiabilityError, match="K >= N\\^2 and M\\*Q >= L"):
            run_trial(small_config(**dims), FAST, 20.0, 0)
        assert calls == []

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

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_snr_rejected_before_any_trial(self, monkeypatch, bad):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="snr_grid_db"):
            run_sweep(tiny_spec(snr_grid_db=(0.0, bad)))
        assert calls == []

    def test_identifiability_validated_up_front(self):
        spec = tiny_spec(sweep_variable="K", sweep_values=(8,))
        with pytest.raises(IdentifiabilityError):
            run_sweep(spec)

    @pytest.mark.parametrize("values", [(8, 16), (8,)])
    def test_var_none_rejects_values(self, values):
        with pytest.raises(ValueError, match="takes no sweep values"):
            tiny_spec(sweep_variable="none", sweep_values=values)

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

    def test_degenerate_trial_counts_as_failed(self, monkeypatch):
        # a zero channel column makes remove_core_scaling divide by zero
        import ristensor.experiment as exp

        real_stage1 = exp.als_stage1
        calls = {"n": 0}

        def degenerate_second(*args, **kwargs):
            est = real_stage1(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                est.channel_hat[:, 0] = 0.0
            return est

        monkeypatch.setattr(exp, "als_stage1", degenerate_second)
        spec = tiny_spec(trials=4, snr_grid_db=(15.0,))
        records = run_sweep(spec)
        assert all(rec.trials_used == 3 for rec in records)

    def test_degenerate_stage2_estimate_counts_as_failed(self, monkeypatch):
        # an all-zero delay vector is rejected by esprit_1d with a ValueError
        import ristensor.experiment as exp
        from ristensor import DivergenceError

        real_stage2 = exp.als_stage2
        calls = {"n": 0}

        def zero_delay_second(*args, **kwargs):
            est = real_stage2(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                est.delay_hat = np.zeros_like(est.delay_hat)
            return est

        monkeypatch.setattr(exp, "als_stage2", zero_delay_second)
        records = run_sweep(tiny_spec(trials=4, snr_grid_db=(15.0,)))
        assert all(rec.trials_used == 3 for rec in records)
        calls["n"] = 1
        with pytest.raises(DivergenceError, match="identically zero"):
            run_trial(small_config(), FAST, 15.0, 0)

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
        assert report.stage1_ops == 21  # 6 once: the block projection, F^H F and echo x2 F^H
        assert report.stage2_ops == 5

    def test_doubling_n_with_k_fixed(self):
        base = small_config(K=300)
        big = base.replace(N_y=4, N_z=4)  # N: 4 -> 16 would be x4; use x4 here
        r_base = complexity_estimate(base, 1, 1)
        r_big = complexity_estimate(big, 1, 1)
        n, l, m, q, k = 4, base.L, base.M, base.Q, base.K
        # K = 300 blocks project once onto r_W = N(N+1)/2 basis vectors, whose
        # N^2 x N^2 Gram is formed once, and F^H F and echo x2 F^H also run
        # once before the first sweep; the core update's N^2 x N^2
        # normal-equation solve, N^6, dominates a sweep, whatever K
        r_w = lambda nn: nn * (nn + 1) // 2
        f_terms = lambda nn: m * q * nn * (nn + l * r_w(nn))
        once = lambda nn: k * r_w(nn) * (2 * l * m * q + r_w(nn)) + r_w(nn) * nn**4 + f_terms(nn)
        sweep = lambda nn: (2 * nn * r_w(nn) * (nn**2 + l * (nn + m * q))
                            + 2 * nn**3 + f_terms(nn)
                            + nn**6 + nn**4 + nn**2 * l
                            + nn * r_w(nn) * (l * nn + nn))
        assert r_base.stage1_ops == once(4) + sweep(4)
        assert r_big.stage1_ops == once(16) + sweep(16)
        assert sweep(8) == (2 * 8 * 36 * (8 * 8 + 2 * (8 + 64)) + 2 * 8**3
                            + 64 * 8 * (8 + 2 * 36)
                            + 8**6 + 8**4 + 64 * 2
                            + 8 * 36 * (2 * 8 + 8))
        for nn in (8, 16):
            assert 2 * nn**6 > sweep(nn) > nn**6
        # stage 2 has no block or N^2 term: linear in N at fixed L, M, Q
        assert r_base.stage2_ops == m * q * (2 * 4 * l + l * l + 2 * 4)
        assert r_big.stage2_ops == m * q * (2 * 16 * l + l * l + 2 * 16)

    def test_closed_form_values(self):
        for side in (2, 3, 4):
            n = side * side
            cfg = small_config(N_y=side, N_z=side, K=n * n, Q=8, M=8, L=2)
            report = complexity_estimate(cfg, 7, 5)
            r_w = n * (n + 1) // 2
            f_terms = 8 * 8 * n * (n + 2 * r_w)
            assert report.stage1_ops == n**2 * r_w * (2 * 2 * 8 * 8 + r_w) + r_w * n**4 + f_terms + 7 * (
                2 * n * r_w * (n * n + 2 * (n + 8 * 8)) + 2 * n**3 + f_terms
                + n**6 + n**4 + n**2 * 2 + n * r_w * (2 * n + n))
            assert report.stage2_ops == 5 * (8 * 8 * (2 * n * 2 + 2 * 2 + 2 * n))

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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

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
        data = json.loads(Path(man_path).read_text())
        assert data["spec"]["trials"] == spec.trials
        assert data["spec"]["base"]["Q"] == spec.base.Q
        assert data["spec"]["master_seed"] == spec.master_seed
        assert data["spec"]["als"] == {"max_iters": spec.als.max_iters, "tol": spec.als.tol}
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
        assert Path(a).read_bytes() == Path(b).read_bytes()

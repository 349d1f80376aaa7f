"""Harness tests: trial/sweep determinism, RMSE aggregation, persistence,
and the complexity model."""

import itertools
import json
import math
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ristensor import (
    AlsSettings,
    EmptyCellError,
    ExperimentSpec,
    IdentifiabilityError,
    TargetParameters,
    complexity_estimate,
    relative_errors,
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
            t, channel = draw_target(cfg, rng)
            t.validate(cfg)  # raises when out of range
            assert abs(t.nu) * cfg.T_s >= 0.05 - 1e-12
            assert min(abs(t.mu_d), abs(t.psi_d)) > 1e-3
            assert channel.shape == (cfg.L, cfg.N)

    def test_deterministic(self):
        cfg = small_config()
        a, channel_a = draw_target(cfg, np.random.default_rng(9))
        b, channel_b = draw_target(cfg, np.random.default_rng(9))
        assert a == b and np.array_equal(channel_a, channel_b)

    def test_target_holds_exactly_the_estimated_parameters(self):
        assert [f.name for f in fields(TargetParameters)] == [p.lower() for p in PARAMETERS]


class TestRunTrial:
    def test_near_noiseless_recovery(self):
        cfg = small_config()
        est, diag = run_trial(cfg, AlsSettings(max_iters=400, tol=1e-16), 300.0,
                              trial_seed_sequence(7, 0, 0, 0))
        assert max(est.rel_errors.values()) < 1e-6

    def test_estimate_is_a_target_scored_against_the_truth(self):
        cfg = small_config()
        est, diag = run_trial(cfg, FAST, 10.0, trial_seed_sequence(4, 0, 0, 0))
        assert isinstance(est, TargetParameters)
        assert [f.name for f in fields(est)] == [p.lower() for p in PARAMETERS] + ["rel_errors"]
        assert est.rel_errors == relative_errors(diag["target"], est, cfg)

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

    @pytest.mark.parametrize("dims", [dict(N_y=1, N_z=4), dict(N_y=4, N_z=1)])
    def test_singleton_ris_axis_rejected(self, dims):
        # each angle is read off a phase step along its RIS axis
        with pytest.raises(ValueError, match="N_y >= 2 by N_z >= 2"):
            run_trial(small_config(K=16, **dims), FAST, 20.0, 0)
        with pytest.raises(ValueError, match="N_y >= 2 by N_z >= 2"):
            tiny_spec(base=small_config(K=16, **dims)).validate()

    @pytest.mark.parametrize("dims", [dict(K=15), dict(L=5, M=2, Q=2)])
    def test_unidentifiable_rejected_before_synthesis(self, monkeypatch, dims):
        # K < N^2, or M*Q < L: nothing is drawn or synthesized
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "generate_echo_tensor", lambda *a: calls.append(a))
        with pytest.raises(IdentifiabilityError, match="K >= N\\^2 and M\\*Q >= L"):
            run_trial(small_config(**dims), FAST, 20.0, 0)
        assert calls == []

    def test_relative_fit_errors_reported(self):
        _, diag = run_trial(small_config(), FAST, 10.0, trial_seed_sequence(4, 0, 0, 0))
        for key in ("stage1_rel_fit", "stage2_rel_fit"):
            assert np.isfinite(diag[key]) and -1e-12 <= diag[key] <= 1

    def test_low_snr_completes(self):
        cfg = small_config()
        est, diag = run_trial(cfg, FAST, -20.0, trial_seed_sequence(2, 0, 0, 0))
        assert np.isfinite(est.tau) and np.isfinite(est.nu)


class TestRunSweep:
    def test_single_trial_matches_run_trial(self):
        spec = tiny_spec(trials=1, snr_grid_db=(12.0,))
        records = run_sweep(spec)
        est, diag = run_trial(spec.base, spec.als, 12.0, trial_seed_sequence(5, 0, 0, 0))
        by_param = {r.parameter: r for r in records}
        assert by_param["tau"].rmse == pytest.approx(est.rel_errors["tau"], rel=1e-12)
        assert by_param["nu"].rmse == pytest.approx(est.rel_errors["nu"], rel=1e-12)
        assert by_param["tau"].trials_used == 1
        assert by_param["tau"].stage1_iters == diag["stage1_iters"]

    def test_output_pure_function_of_spec(self):
        spec = tiny_spec()
        assert run_sweep(spec) == run_sweep(tiny_spec())

    def test_jobs_do_not_change_output(self):
        spec = tiny_spec()
        assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=4)

    @pytest.mark.parametrize("jobs", [True, 2.5, 0])
    def test_bad_jobs_rejected_before_any_trial(self, monkeypatch, jobs):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs!r}"):
            run_sweep(tiny_spec(), jobs=jobs)
        assert calls == []

    def test_trials_run_in_calling_thread_in_order(self, monkeypatch):
        import ristensor.experiment as exp

        real_run_trial = exp.run_trial
        seen = []

        def recording(cfg, als, snr_db, seed):
            seen.append((threading.get_ident(), tuple(seed.entropy[1:])))
            return real_run_trial(cfg, als, snr_db, seed)

        monkeypatch.setattr(exp, "run_trial", recording)
        spec = tiny_spec(sweep_variable="Q", sweep_values=(8, 4), snr_grid_db=(15.0, 10.0),
                         trials=2)
        run_sweep(spec, jobs=2)
        cells = itertools.product(range(2), range(2))
        expected = [(si, ni, vi) for (si, ni), vi in itertools.product(cells, range(2))]
        assert [task for _, task in seen] == expected
        assert {ident for ident, _ in seen} == {threading.get_ident()}

    def test_record_grid_shape(self):
        spec = tiny_spec(sweep_variable="Q", sweep_values=(4, 8), trials=2)
        records = run_sweep(spec)
        assert len(records) == 2 * 2 * 4  # values x snrs x parameters
        assert {r.sweep_var for r in records} == {"Q"}
        assert all(r.trials_used + 0 == 2 for r in records)

    # 10^(snr/10) overflows above about 3082 dB and reaches 0 below about -3233 dB
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 4000.0, -4000.0])
    def test_non_finite_snr_rejected_before_any_trial(self, monkeypatch, bad):
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="snr_grid_db"):
            run_sweep(tiny_spec(snr_grid_db=(0.0, bad)))
        assert calls == []

    @pytest.mark.parametrize("field,values", [
        ("sweep_values", (8, 16, 8)),
        ("snr_grid_db", (10.0, 10.0)),
        ("snr_grid_db", (0, 10, 0.0)),
    ])
    def test_repeated_values_rejected_before_any_trial(self, monkeypatch, field, values):
        # each (sweep value, SNR) pair keys its CSV rows, so a repeat is an error
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        spec = tiny_spec(**{"sweep_variable": "Q", "sweep_values": (8,), field: values})
        with pytest.raises(ValueError, match=f"{field} must not repeat"):
            run_sweep(spec)
        assert calls == []

    @pytest.mark.parametrize("values", [(8.7, 8.2), (8, 4.5)])
    def test_non_integer_sweep_values_rejected_before_any_trial(self, monkeypatch, values):
        # a count is a whole number: 8.7 and 8.2 would both run at Q=8 under two labels
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        spec = tiny_spec(sweep_variable="Q", sweep_values=values)
        with pytest.raises(ValueError, match="integers >= 1"):
            run_sweep(spec)
        assert calls == []

    def test_out_of_range_delay_rejected_before_any_trial(self, monkeypatch):
        # d1 = 2000 m puts the round trip at 1.6 / delta_f
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="unambiguous range"):
            run_sweep(tiny_spec(base=small_config(d1=2000.0)))
        assert calls == []

    @pytest.mark.parametrize("field,value", [("trials", 2.5), ("trials", 0), ("trials", "4"),
                                             ("trials", True), ("master_seed", -1),
                                             ("master_seed", 1.5), ("master_seed", False)])
    def test_counts_validated_up_front(self, monkeypatch, field, value):
        # a float trial count used to reach range() inside run_sweep, and a
        # negative seed every trial's SeedSequence
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"{field} must be an integer") as info:
            run_sweep(tiny_spec(**{field: value}))
        assert repr(value) in str(info.value) and calls == []

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_iteration_cap_revalidated_up_front(self, monkeypatch, value):
        # AlsSettings checks max_iters when built; one set afterwards used to
        # pass validate() and abort the sweep inside stage 1 with a TypeError
        import ristensor.experiment as exp

        calls = []
        monkeypatch.setattr(exp, "run_trial", lambda *a: calls.append(a))
        spec = tiny_spec(als=AlsSettings(max_iters=5))
        spec.als.max_iters = value
        with pytest.raises(ValueError, match=f"max_iters must be an integer >= 1, got {value!r}"):
            run_sweep(spec)
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
        # N splits as N_y x N_z, N_y the largest divisor <= sqrt(N), and K is
        # raised to N^2 where the base K is smaller
        for base_k in (1, 16, 100):
            spec = tiny_spec(sweep_variable="N", sweep_values=(4, 8, 9),
                             base=small_config(K=base_k))
            dims = [(c.N_y, c.N_z, c.K) for c in map(spec.config_for, spec.sweep_values)]
            assert dims == [(2, 2, max(base_k, 16)), (2, 4, max(base_k, 64)),
                            (3, 3, max(base_k, 81))]

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

    def test_failures_land_in_their_own_cell(self, monkeypatch):
        import ristensor.experiment as exp
        from ristensor import DivergenceError

        real_run_trial = exp.run_trial
        failing = {(0, 0, 1), (1, 0, 0), (1, 0, 2)}  # (si, ni, vi)

        def flaky(cfg, als, snr_db, seed):
            if tuple(seed.entropy[1:]) in failing:
                raise DivergenceError("forced")
            return real_run_trial(cfg, als, snr_db, seed)

        monkeypatch.setattr(exp, "run_trial", flaky)
        spec = tiny_spec(sweep_variable="Q", sweep_values=(8, 4), snr_grid_db=(15.0, 10.0),
                         trials=3)
        records = run_sweep(spec, jobs=1)
        used = {(r.sweep_value, r.snr_db): r.trials_used for r in records}
        assert used == {(8.0, 15.0): 2, (8.0, 10.0): 3, (4.0, 15.0): 1, (4.0, 10.0): 3}
        assert run_sweep(spec, jobs=3) == records

    def test_degenerate_trial_counts_as_failed(self, monkeypatch):
        # an all-zero stage-1 channel leaves stage 2 no pilot energy to fit
        # against, which it rejects with a DivergenceError
        import ristensor.experiment as exp

        real_stage1 = exp.als_stage1
        calls = {"n": 0}

        def degenerate_second(*args, **kwargs):
            est = real_stage1(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                est.channel_hat[:] = 0.0
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
        # 8 once: the block projection, the echo's thin QR, the start and U C
        assert report.stage1_ops == 23
        # 1 once: the SVD of the nearest-Kronecker start
        assert report.stage2_ops == 6

    def test_doubling_n_with_k_fixed(self):
        base = small_config(K=300)
        big = base.replace(N_y=4, N_z=4)  # N: 4 -> 16 would be x4; use x4 here
        r_base = complexity_estimate(base, 1, 1)
        r_big = complexity_estimate(big, 1, 1)
        n, l, m, q, k = 4, base.L, base.M, base.Q, base.K
        # K = 300 blocks project once onto r_W = N(N+1)/2 basis vectors, whose
        # N^2 x N^2 Gram is formed once; the projected echo's mode-2
        # unfolding is compressed once to r_F = min(M*Q, r_W*L) rows; the
        # core update's N^2 x N^2 normal-equation solve, N^6, dominates a
        # sweep, whatever K
        r_w = lambda nn: nn * (nn + 1) // 2
        r_f = lambda nn: min(m * q, r_w(nn) * l)
        f_terms = lambda nn: r_f(nn) * nn * (nn + l * r_w(nn))
        once = lambda nn: (k * r_w(nn) * (l * m * q + r_w(nn)) + r_w(nn) * nn**4
                           + m * q * r_w(nn) * l * r_f(nn) + m * q * nn * (nn + 2 * r_f(nn))
                           + r_f(nn) * nn * l * r_w(nn))
        sweep = lambda nn: (2 * nn * r_w(nn) * (nn**2 + l * nn) + nn * r_w(nn) * l * r_f(nn)
                            + nn**4 + 2 * nn**3 + f_terms(nn)
                            + nn**6 + nn**4 + nn**2 * l
                            + nn * r_w(nn) * (l * nn + nn))
        assert r_base.stage1_ops == once(4) + sweep(4)
        assert r_big.stage1_ops == once(16) + sweep(16)
        assert sweep(8) == (2 * 8 * 36 * (8 * 8 + 2 * 8) + 8 * 36 * 2 * 64
                            + 8**4 + 2 * 8**3 + 64 * 8 * (8 + 2 * 36)
                            + 8**6 + 8**4 + 64 * 2
                            + 8 * 36 * (2 * 8 + 8))
        for nn in (8, 16):
            assert 2 * nn**6 > sweep(nn) > nn**6
        # stage 2 has no block or N^2 term: linear in N at fixed L, M, Q, plus
        # the one-time SVD of its Q x M start
        start = q * m * min(q, m)
        assert r_base.stage2_ops == start + m * q * (2 * 4 * l + l * l + 2 * 4)
        assert r_big.stage2_ops == start + m * q * (2 * 16 * l + l * l + 2 * 16)

    def test_closed_form_values(self):
        for side in (2, 3, 4):
            n = side * side
            cfg = small_config(N_y=side, N_z=side, K=n * n, Q=8, M=8, L=2)
            report = complexity_estimate(cfg, 7, 5)
            r_w = n * (n + 1) // 2
            r_f = min(8 * 8, 2 * r_w)
            f_terms = r_f * n * (n + 2 * r_w)
            assert report.stage1_ops == (
                n**2 * r_w * (2 * 8 * 8 + r_w) + r_w * n**4 + 8 * 8 * r_w * 2 * r_f
                + 8 * 8 * n * (n + 2 * r_f) + r_f * n * 2 * r_w + 7 * (
                    2 * n * r_w * (n * n + 2 * n) + n * r_w * 2 * r_f + n**4 + 2 * n**3
                    + f_terms + n**6 + n**4 + n**2 * 2 + n * r_w * (2 * n + n)))
            assert report.stage2_ops == 8 * 8 * 8 + 5 * (8 * 8 * (2 * n * 2 + 2 * 2 + 2 * n))

    def test_compression_caps_the_per_sweep_rows(self):
        # beyond M*Q = r_W*L, more subcarriers cost only one-time work
        cfg = small_config(Q=10)  # M*Q = 80 > r_W*L = 20
        per_sweep = lambda c: (complexity_estimate(c, 2, 1).stage1_ops
                               - complexity_estimate(c, 1, 1).stage1_ops)
        assert per_sweep(cfg) == per_sweep(cfg.replace(Q=40))
        assert per_sweep(small_config(M=2, Q=2)) < per_sweep(small_config(M=2, Q=4))

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

    def test_roundtrip_none_sweep_and_infinite_rmse(self, tmp_path):
        # a none sweep leaves sweep_value empty, and a zero truth gives an inf RMSE
        path = str(tmp_path / "out.csv")
        records = [RmseRecord("none", None, -5.0, p, math.inf if p == "nu" else 0.5, 3, 7.0, 2.5)
                   for p in PARAMETERS]
        write_results(records, path)
        assert Path(path).read_text().splitlines()[2] == "none,,-5.0,nu,inf,3,7.0,2.5"
        assert read_results(path) == records

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

import dataclasses

import numpy as np
import pytest

from ebsparse.lasso import cv_fit, kkt_gap
from ebsparse.posterior import Hyperparams
from ebsparse.priors import ComplexityPrior
from ebsparse.sampler import ChainConfig
from ebsparse.simharness import (
    Metrics,
    RepRecord,
    SettingSpec,
    _run_rep,
    evaluate_selection,
    generate_design,
    generate_response,
    preset_setting,
    run_setting,
)

SHRUNK = SettingSpec(
    n=60,
    p=120,
    rho=0.25,
    beta_star_values=(1.5, 2.5, 3.5),
    s_star_positions=(0, 1, 2),
    sigma2=1.0,
    reps=6,
    seed=42,
)


class TestSettingSpec:
    def test_true_beta_layout(self):
        spec = SettingSpec(
            n=10, p=6, rho=0.0, beta_star_values=(2.0, -1.0),
            s_star_positions=(4, 1), sigma2=1.0, reps=1, seed=0,
        )
        np.testing.assert_array_equal(spec.true_beta, [0.0, -1.0, 0.0, 0.0, 2.0, 0.0])
        assert spec.true_model == (1, 4)

    def test_validation(self):
        good = dict(
            n=10, p=6, rho=0.2, beta_star_values=(1.0,),
            s_star_positions=(0,), sigma2=1.0, reps=2, seed=0,
        )
        SettingSpec(**good)
        for bad in (
            dict(rho=1.0),
            dict(rho=-0.1),
            dict(beta_star_values=(1.0, 2.0)),
            dict(s_star_positions=(0, 0), beta_star_values=(1.0, 1.0)),
            dict(s_star_positions=(6,)),
            dict(n=0),
            dict(sigma2=-1.0),
            dict(reps=0),
        ):
            with pytest.raises(ValueError):
                SettingSpec(**{**good, **bad})

    def test_true_size_cannot_exceed_sample(self):
        with pytest.raises(ValueError):
            SettingSpec(
                n=2, p=6, rho=0.0, beta_star_values=(1.0, 1.0, 1.0),
                s_star_positions=(0, 1, 2), sigma2=1.0, reps=1, seed=0,
            )


class TestPresets:
    def test_shapes_and_signals(self):
        one = preset_setting(1)
        two = preset_setting(2)
        three = preset_setting(3)
        assert (one.n, one.p) == (100, 500)
        assert (two.n, two.p) == (200, 1000)
        assert (three.n, three.p) == (100, 500)
        assert one.beta_star_values == (0.6, 1.2, 1.8, 2.4, 3.0)
        assert two.beta_star_values == one.beta_star_values
        assert three.beta_star_values == (0.6,) * 5
        for spec in (one, two, three):
            assert spec.rho == 0.25
            assert spec.sigma2 == 1.0
            assert spec.s_star_positions == (0, 1, 2, 3, 4)
            assert spec.reps == 200

    def test_overrides_and_validation(self):
        spec = preset_setting(2, reps=7, seed=99)
        assert (spec.reps, spec.seed) == (7, 99)
        with pytest.raises(ValueError):
            preset_setting(4)


class TestGenerateDesign:
    def test_independent_case(self):
        rng = np.random.default_rng(100)
        X = generate_design(5000, 4, 0.0, rng).values
        off = np.corrcoef(X.T)[np.triu_indices(4, 1)]
        assert np.abs(off).max() < 3.0 / np.sqrt(5000)

    def test_correlated_case_matches_target(self):
        rng = np.random.default_rng(101)
        X = generate_design(5000, 40, 0.25, rng).values
        off = np.corrcoef(X.T)[np.triu_indices(40, 1)]
        assert abs(off.mean() - 0.25) < 0.02
        assert abs(X.var(axis=0).mean() - 1.0) < 0.05

    def test_shape_and_determinism(self):
        a = generate_design(12, 7, 0.5, np.random.default_rng(5)).values
        b = generate_design(12, 7, 0.5, np.random.default_rng(5)).values
        assert a.shape == (12, 7)
        np.testing.assert_array_equal(a, b)

    def test_rho_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_design(5, 3, 1.0, rng)


class TestGenerateResponse:
    def test_noiseless_case_is_exact(self):
        rng = np.random.default_rng(102)
        spec = SettingSpec(
            n=15, p=8, rho=0.25, beta_star_values=(1.0, -2.0),
            s_star_positions=(2, 5), sigma2=0.0, reps=1, seed=0,
        )
        X = generate_design(spec.n, spec.p, spec.rho, rng)
        y = generate_response(X, spec, rng)
        np.testing.assert_array_equal(y, X.values @ spec.true_beta)

    def test_pure_noise_variance(self):
        rng = np.random.default_rng(103)
        spec = SettingSpec(
            n=4000, p=3, rho=0.0, beta_star_values=(), s_star_positions=(),
            sigma2=2.0, reps=1, seed=0,
        )
        X = generate_design(spec.n, spec.p, spec.rho, rng)
        y = generate_response(X, spec, rng)
        assert abs(y.var() - 2.0) < 0.2

    def test_residual_scale_at_benchmark_size(self):
        rng = np.random.default_rng(104)
        spec = preset_setting(1, reps=1, seed=0)
        X = generate_design(spec.n, spec.p, spec.rho, rng)
        y = generate_response(X, spec, rng)
        resid = y - X.values @ spec.true_beta
        assert 0.7 < resid @ resid / spec.n < 1.3

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(105)
        spec = preset_setting(1, reps=1, seed=0)
        X = generate_design(10, 4, 0.0, rng)
        with pytest.raises(ValueError):
            generate_response(X, spec, rng)


class TestEvaluateSelection:
    def setup_method(self):
        self.inclusion = np.array([0.9, 0.8, 0.1, 0.2, 0.05])

    def test_exact_match(self):
        rec = evaluate_selection((0, 1), (0, 1), self.inclusion)
        assert (rec.exact, rec.contain, rec.fdr) == (1, 1, 0.0)
        assert rec.p_bar_1 == pytest.approx(0.85)
        assert rec.p_bar_0 == pytest.approx((0.1 + 0.2 + 0.05) / 3)

    def test_empty_selection_convention(self):
        rec = evaluate_selection((), (0, 1), self.inclusion)
        assert rec.fdr == 0.0
        assert (rec.exact, rec.contain) == (0, 0)

    def test_one_extra_variable(self):
        inclusion = np.full(10, 0.5)
        rec = evaluate_selection((0, 1, 2, 3, 4, 7), (0, 1, 2, 3, 4), inclusion)
        assert rec.fdr == pytest.approx(1.0 / 6.0)
        assert (rec.exact, rec.contain) == (0, 1)

    def test_missing_variable_breaks_containment(self):
        rec = evaluate_selection((0,), (0, 1), self.inclusion)
        assert (rec.exact, rec.contain) == (0, 0)
        assert rec.fdr == 0.0

    def test_empty_truth_gives_nan_signal_mean(self):
        rec = evaluate_selection((2,), (), self.inclusion)
        assert np.isnan(rec.p_bar_1)
        assert rec.p_bar_0 == pytest.approx(self.inclusion.mean())
        assert rec.fdr == 1.0

    def test_order_is_irrelevant(self):
        a = evaluate_selection((1, 0), (0, 1), self.inclusion)
        b = evaluate_selection((0, 1), (1, 0), self.inclusion)
        assert a == b


class TestRunSetting:
    def test_recovers_strong_signal(self):
        m = run_setting(SHRUNK, ChainConfig(iterations=1200))
        assert isinstance(m, Metrics)
        assert m.failures == 0
        assert m.pr_contain >= 0.8
        assert m.p_bar_1 > 0.9
        assert m.fdr < 0.2
        assert m.pr_exact <= m.pr_contain
        assert m.wall_time_s > 0.0

    def test_deterministic_given_seed(self):
        cfg = ChainConfig(iterations=600)
        spec = dataclasses.replace(SHRUNK, reps=3)
        a = run_setting(spec, cfg)
        b = run_setting(spec, cfg)
        assert (a.p_bar_0, a.p_bar_1, a.pr_exact, a.pr_contain, a.fdr, a.failures) == (
            b.p_bar_0, b.p_bar_1, b.pr_exact, b.pr_contain, b.fdr, b.failures
        )

    def test_worker_count_does_not_change_results(self):
        spec = SettingSpec(
            n=40, p=50, rho=0.25, beta_star_values=(2.0, 3.0),
            s_star_positions=(0, 1), sigma2=1.0, reps=4, seed=11,
        )
        cfg = ChainConfig(iterations=600)
        serial = run_setting(spec, cfg, workers=1)
        parallel = run_setting(spec, cfg, workers=2)
        assert (serial.p_bar_0, serial.p_bar_1, serial.pr_exact,
                serial.pr_contain, serial.fdr, serial.failures) == (
            parallel.p_bar_0, parallel.p_bar_1, parallel.pr_exact,
            parallel.pr_contain, parallel.fdr, parallel.failures
        )

    def test_known_noise_mode(self):
        spec = dataclasses.replace(SHRUNK, reps=4)
        cfg = ChainConfig(iterations=800)
        m = run_setting(spec, cfg, hyper=Hyperparams(noise=1.0))
        assert m.failures == 0
        assert m.pr_contain >= 0.75

    def test_degenerate_reps_are_counted_not_fatal(self):
        # An exactly-zero response makes the noise estimate collapse;
        # every rep must fail gracefully.
        spec = SettingSpec(
            n=30, p=10, rho=0.0, beta_star_values=(), s_star_positions=(),
            sigma2=0.0, reps=3, seed=1,
        )
        m = run_setting(spec, ChainConfig(iterations=200))
        assert m.failures == 3
        assert np.isnan(m.pr_exact)

    def test_hyper_argument_validation(self):
        with pytest.raises(ValueError):
            run_setting(SHRUNK, ChainConfig(iterations=100), hyper="guess")

    def test_rep_whose_lasso_selects_the_last_grid_penalty(self):
        # Replication 9 of preset 1 at seed 5: cross-validation picks
        # 0.001 lambda_max on this p > n problem, and the full-data fit
        # there must still be exact so the replication is not lost.
        spec = preset_setting(1, seed=5)
        data_seq, _ = np.random.SeedSequence(entropy=spec.seed, spawn_key=(9,)).spawn(2)
        rng = np.random.default_rng(data_seq)
        X = generate_design(spec.n, spec.p, spec.rho, rng)
        y = generate_response(X, spec, rng)
        assert kkt_gap(X, y, cv_fit(X, y)) <= 1e-6
        cfg = ChainConfig(iterations=500)
        assert _run_rep(spec, cfg, "estimate", ComplexityPrior(), 9) is not None

    def test_record_type_round_trip(self):
        rec = RepRecord(p_bar_0=0.0, p_bar_1=1.0, exact=1, contain=1, fdr=0.0)
        assert rec.exact == 1


class TestNoiseModeRobustness:
    def test_estimated_vs_known_noise_agree_at_benchmark_scale(self):
        spec = preset_setting(1, reps=15, seed=3)
        cfg = ChainConfig(iterations=3000)
        est = run_setting(spec, cfg, hyper="estimate")
        known = run_setting(spec, cfg, hyper=Hyperparams(noise=1.0))
        assert abs(est.pr_exact - known.pr_exact) <= 0.10
        assert est.failures == 0 and known.failures == 0

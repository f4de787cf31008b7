import itertools

import numpy as np
import pytest
from scipy import stats

from ebsparse.linalg import DesignMatrix, fit_model
from ebsparse.posterior import Hyperparams
from ebsparse.priors import BetaBinomialPrior, BinomialPrior, ComplexityPrior
from ebsparse.oracle import (
    DenominatorCheck,
    ExactPosterior,
    RateConstants,
    TooLarge,
    beta_min_cutoff,
    concentration_diagnostic,
    denominator_bound_check,
    enumerate_posterior,
    log_rate_factor,
    min_sparse_singular_value,
    nested_chisq_stat,
    sample_posterior_betas,
)
from ebsparse.sampler import ChainConfig, run_chain


def random_design(rng, n=30, p=8):
    return DesignMatrix.from_array(rng.standard_normal((n, p)))


def hand_table(rss_by_model, p, a, power, noise):
    # Recompute the posterior from raw float arithmetic only: complexity
    # prior mass (p^a)^(-s) normalized over sizes, spread over subsets,
    # times exp(-power/(2 noise) rss - s * occam).
    occam = 0.5 * np.log(1.0 + power / (0.001 * noise))
    raw_size = [(p**a) ** (-s) for s in range(p + 1)]
    norm = sum(raw_size)
    weights = {}
    for model, rss in rss_by_model.items():
        s = len(model)
        prior = raw_size[s] / norm / len(list(itertools.combinations(range(p), s)))
        weights[model] = prior * np.exp(-0.5 * power / noise * rss - s * occam)
    total = sum(weights.values())
    return {m: w / total for m, w in weights.items()}


class TestEnumeratePosterior:
    def test_single_column_hand_case(self):
        X = DesignMatrix.from_array(np.array([[1.0], [1.0]]))
        y = np.array([1.0, 3.0])
        # rss: empty model 1+9=10; {0} has beta_hat=2, rss=(1-2)^2+(3-2)^2=2.
        expected = hand_table({(): 10.0, (0,): 2.0}, p=1, a=0.05, power=0.999, noise=1.0)
        ex = enumerate_posterior(X, y, ComplexityPrior(), Hyperparams())
        assert set(ex.table) == {(), (0,)}
        for model in expected:
            assert ex.table[model] == pytest.approx(expected[model], rel=1e-10)
        assert ex.inclusion[0] == pytest.approx(expected[(0,)], rel=1e-10)

    def test_two_column_hand_case(self):
        X = DesignMatrix.from_array(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        y = np.array([1.0, 2.0, 2.0])
        # rss by hand: empty 9, {0} 8, {1} 5, {0,1} 4.
        expected = hand_table(
            {(): 9.0, (0,): 8.0, (1,): 5.0, (0, 1): 4.0}, p=2, a=0.05, power=0.999, noise=1.0
        )
        ex = enumerate_posterior(X, y, ComplexityPrior(), Hyperparams())
        assert len(ex.table) == 4
        for model in expected:
            assert ex.table[model] == pytest.approx(expected[model], rel=1e-10)

    def test_sums_to_one_and_inclusion_consistent(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            X = random_design(rng, n=25, p=7)
            y = rng.standard_normal(25)
            prior = (ComplexityPrior(), BetaBinomialPrior(), BinomialPrior())[trial % 3]
            ex = enumerate_posterior(X, y, prior, Hyperparams())
            assert sum(ex.table.values()) == pytest.approx(1.0, abs=1e-10)
            for j in range(7):
                mass = sum(p for m, p in ex.table.items() if j in m)
                assert ex.inclusion[j] == pytest.approx(mass, abs=1e-12)

    def test_size_cap_truncates_support(self):
        rng = np.random.default_rng(1)
        X = random_design(rng, n=20, p=6)
        y = rng.standard_normal(20)
        ex = enumerate_posterior(X, y, ComplexityPrior(), Hyperparams(), size_cap=1)
        assert set(ex.table) == {()} | {(j,) for j in range(6)}
        assert sum(ex.table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_pairs_get_zero_mass(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((20, 3))
        X = DesignMatrix.from_array(np.column_stack([base, base[:, 0]]))
        y = rng.standard_normal(20)
        ex = enumerate_posterior(X, y, ComplexityPrior(), Hyperparams())
        assert all(not {0, 3} <= set(m) for m in ex.table)
        assert sum(ex.table.values()) == pytest.approx(1.0, abs=1e-10)

    def test_guard_raises_on_large_spaces(self):
        rng = np.random.default_rng(3)
        X = random_design(rng, n=25, p=25)
        with pytest.raises(TooLarge):
            enumerate_posterior(X, rng.standard_normal(25), ComplexityPrior(), Hyperparams())

    def test_result_type(self):
        rng = np.random.default_rng(4)
        X = random_design(rng, n=15, p=4)
        ex = enumerate_posterior(X, rng.standard_normal(15), ComplexityPrior(), Hyperparams())
        assert isinstance(ex, ExactPosterior)
        assert np.isfinite(ex.log_normalizer)
        assert ex.inclusion.shape == (4,)


class TestMinSparseSingularValue:
    def test_orthonormal_columns_give_one(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        X = DesignMatrix.from_array(Q)
        for s in range(1, 5):
            assert min_sparse_singular_value(X, s) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_column_gives_exact_zero(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(15)
        X = DesignMatrix.from_array(np.column_stack([col, col, rng.standard_normal(15)]))
        assert min_sparse_singular_value(X, 2) == 0.0

    def test_diagonal_hand_case(self):
        X = DesignMatrix.from_array(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert min_sparse_singular_value(X, 1) == pytest.approx(2.0, abs=1e-12)
        assert min_sparse_singular_value(X, 2) == pytest.approx(2.0, abs=1e-12)

    def test_nonincreasing_in_size(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = random_design(rng, n=20, p=10)
            vals = [min_sparse_singular_value(X, s) for s in range(1, 7)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_more_columns_than_rows_is_zero(self):
        rng = np.random.default_rng(8)
        X = DesignMatrix.from_array(rng.standard_normal((2, 30)))
        # C(30, 20) is far past the guard, but rank alone settles it.
        assert min_sparse_singular_value(X, 20) == 0.0

    def test_guard_and_validation(self):
        rng = np.random.default_rng(9)
        X = DesignMatrix.from_array(rng.standard_normal((30, 50)))
        with pytest.raises(TooLarge):
            min_sparse_singular_value(X, 10)
        with pytest.raises(ValueError):
            min_sparse_singular_value(X, 0)
        with pytest.raises(ValueError):
            min_sparse_singular_value(X, 51)


class TestDenominatorBound:
    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(10)
        priors = (ComplexityPrior(), BetaBinomialPrior(), BinomialPrior())
        for trial in range(60):
            X = random_design(rng, n=30, p=8)
            beta = np.zeros(8)
            size = rng.integers(0, 4)
            support = rng.choice(8, size=size, replace=False)
            beta[support] = rng.normal(0.0, 2.0, size=size)
            y = X.values @ beta + rng.standard_normal(30)
            hyper = Hyperparams(
                power=rng.uniform(0.5, 0.999), ridge=rng.uniform(1e-3, 1.0), noise=1.0
            )
            chk = denominator_bound_check(X, y, beta, priors[trial % 3], hyper)
            assert isinstance(chk, DenominatorCheck)
            assert chk.holds
            assert chk.log_lhs >= chk.log_rhs - 1e-9

    def test_guard_raises_on_large_spaces(self):
        rng = np.random.default_rng(15)
        X = random_design(rng, n=25, p=25)
        with pytest.raises(TooLarge):
            denominator_bound_check(
                X, rng.standard_normal(25), np.zeros(25), ComplexityPrior(), Hyperparams()
            )

    def test_zero_signal_edge(self):
        rng = np.random.default_rng(11)
        X = random_design(rng, n=20, p=5)
        y = rng.standard_normal(20)
        chk = denominator_bound_check(X, y, np.zeros(5), ComplexityPrior(), Hyperparams())
        assert chk.holds

    def test_default_constant_value(self):
        rng = np.random.default_rng(12)
        X = random_design(rng, n=15, p=4)
        chk = denominator_bound_check(
            X, rng.standard_normal(15), np.zeros(4), ComplexityPrior(), Hyperparams()
        )
        # (1/2) log(1 + 0.999/0.001) = (1/2) log 1000.
        assert chk.constant == pytest.approx(3.4538776, abs=1e-6)

    def test_single_column_hand_value(self):
        # Recompute the rescaled normalizer from raw arithmetic.
        X = DesignMatrix.from_array(np.array([[1.0], [1.0]]))
        y = np.array([1.0, 3.0])
        beta = np.array([2.0])
        power, ridge, noise, a = 0.9, 0.01, 1.0, 0.05
        occam = 0.5 * np.log(1.0 + power / (ridge * noise))
        raw = [(1**a) ** (-s) for s in range(2)]
        f = np.array(raw) / sum(raw)
        shift = 0.5 * power / noise * 2.0  # rss at the true beta is 2
        lhs = np.log(
            f[0] * np.exp(-0.5 * power / noise * 10.0 + shift)
            + f[1] * np.exp(-0.5 * power / noise * 2.0 - occam + shift)
        )
        chk = denominator_bound_check(
            X, y, beta, ComplexityPrior(), Hyperparams(power=power, ridge=ridge, noise=noise)
        )
        assert chk.log_lhs == pytest.approx(lhs, abs=1e-10)
        assert chk.log_rhs == pytest.approx(np.log(f[1]) - occam, abs=1e-10)


class TestNestedChisq:
    def test_equal_models_give_zero(self):
        rng = np.random.default_rng(13)
        X = random_design(rng, n=20, p=5)
        y = rng.standard_normal(20)
        assert nested_chisq_stat(X, y, (0, 2), (0, 2), 1.0) == 0.0

    def test_orthonormal_projection_identity(self):
        rng = np.random.default_rng(14)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        X = DesignMatrix.from_array(Q)
        y = rng.standard_normal(30)
        stat = nested_chisq_stat(X, y, (0, 1), (0, 1, 2, 3), 1.0)
        expected = (Q[:, 2] @ y) ** 2 + (Q[:, 3] @ y) ** 2
        assert stat == pytest.approx(expected, abs=1e-10)

    def test_central_chisq_distribution(self):
        rng = np.random.default_rng(15)
        X = random_design(rng, n=30, p=6)
        beta = np.zeros(6)
        beta[:2] = (1.5, -2.0)
        stats_out = []
        for _ in range(600):
            y = X.values @ beta + rng.standard_normal(30)
            stats_out.append(nested_chisq_stat(X, y, (0, 1), (0, 1, 2, 3), 1.0))
        ks = stats.kstest(stats_out, stats.chi2(df=2).cdf).statistic
        assert ks < 1.628 / np.sqrt(600)

    def test_validation(self):
        rng = np.random.default_rng(16)
        X = random_design(rng, n=20, p=5)
        y = rng.standard_normal(20)
        with pytest.raises(ValueError):
            nested_chisq_stat(X, y, (0, 1), (1, 2), 1.0)
        with pytest.raises(ValueError):
            nested_chisq_stat(X, y, (0,), (0, 1), 0.0)


class TestBetaMinCutoff:
    def test_default_pin(self):
        cut = beta_min_cutoff(Hyperparams(), 1.0, 500, 1.1)
        assert cut == pytest.approx(5.2305, abs=5e-4)

    def test_limit_case(self):
        # margin 1, one log unit, power near 1: sqrt(2 * 2 * 1) = 2.
        cut = beta_min_cutoff(Hyperparams(power=0.9999999), 1.0, np.e, 1.0)
        assert cut == pytest.approx(2.0, rel=1e-5)

    def test_monotonicity(self):
        h = Hyperparams()
        assert beta_min_cutoff(h, 2.0, 500, 1.1) < beta_min_cutoff(h, 1.0, 500, 1.1)
        assert beta_min_cutoff(h, 1.0, 500, 2.0) > beta_min_cutoff(h, 1.0, 500, 1.1)
        assert beta_min_cutoff(h, 1.0, 1000, 1.1) > beta_min_cutoff(h, 1.0, 500, 1.1)

    def test_noise_scaling(self):
        lo = beta_min_cutoff(Hyperparams(noise=1.0), 1.0, 100, 1.5)
        hi = beta_min_cutoff(Hyperparams(noise=2.0), 1.0, 100, 1.5)
        assert hi == pytest.approx(np.sqrt(2.0) * lo, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ZeroDivisionError):
            beta_min_cutoff(Hyperparams(), 0.0, 100, 1.1)
        with pytest.raises(ValueError):
            beta_min_cutoff(Hyperparams(), 1.0, 100, 0.0)


class TestRateConstants:
    def test_default_values(self):
        rc = RateConstants.from_hyperparams(Hyperparams())
        assert rc.split_exponent == pytest.approx(1.0005005005, abs=1e-9)
        # split * power = (power + 1)/2 = 0.9995 exactly, so the decay
        # rate is 0.999 * 0.0005 / 2.
        assert rc.decay_rate == pytest.approx(0.00024975, abs=1e-12)
        assert rc.prior_inflation == pytest.approx(0.9995004, abs=1e-6)
        assert rc.occam_cost == pytest.approx(3.4538776, abs=1e-6)
        assert rc.coef_precision_root == 1.0

    def test_invariants_across_hyperparams(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            hyper = Hyperparams(
                power=rng.uniform(0.3, 0.999),
                ridge=rng.uniform(1e-3, 2.0),
                noise=rng.uniform(0.2, 3.0),
            )
            rc = RateConstants.from_hyperparams(hyper)
            assert 1.0 < rc.split_exponent < 1.0 / hyper.power
            assert rc.decay_rate > 0.0
            assert rc.prior_inflation > 0.0
            assert rc.occam_cost > 0.0
            assert rc.split_exponent * hyper.power < 1.0

    def test_explicit_exponent_formulas(self):
        hyper = Hyperparams(power=0.5, ridge=0.1, noise=2.0)
        rc = RateConstants.from_hyperparams(hyper, split_exponent=1.5)
        assert rc.conjugate_ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rc.decay_rate == pytest.approx(0.5 * (1.0 - 0.75) / 4.0, rel=1e-12)
        assert rc.prior_inflation == pytest.approx(0.6629126074, abs=1e-9)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            RateConstants.from_hyperparams(Hyperparams(power=0.5), split_exponent=1.0)
        with pytest.raises(ValueError):
            RateConstants.from_hyperparams(Hyperparams(power=0.5), split_exponent=2.0)


class TestLogRateFactor:
    def test_growth_stays_proportional_to_ideal_rate(self):
        rc = RateConstants.from_hyperparams(Hyperparams())
        for prior in (ComplexityPrior(), BetaBinomialPrior(), BinomialPrior()):
            for s in range(1, 11):
                value = log_rate_factor(prior, 500, 100, s, rc)
                ratio = value / (s * np.log(500 / s))
                assert 0.5 < ratio < 3.0

    def test_zero_size_case(self):
        rc = RateConstants.from_hyperparams(Hyperparams())
        value = log_rate_factor(ComplexityPrior(), 500, 100, 0, rc)
        assert np.isfinite(value)
        assert value > 0.0

    def test_matches_direct_sum(self):
        from math import comb, log

        from ebsparse.priors import log_size_mass

        rc = RateConstants.from_hyperparams(Hyperparams(power=0.8, ridge=0.05))
        prior = BetaBinomialPrior()
        n_vars, max_size, true_size = 30, 10, 3
        f = np.exp([log_size_mass(prior, s, n_vars, max_size) for s in range(max_size + 1)])
        direct = (
            log(comb(n_vars, true_size))
            - log(f[true_size])
            + log(sum(rc.prior_inflation**s * f[s] for s in range(max_size + 1)))
        )
        value = log_rate_factor(prior, n_vars, max_size, true_size, rc)
        assert value == pytest.approx(direct, rel=1e-10)

    def test_validation(self):
        rc = RateConstants.from_hyperparams(Hyperparams())
        with pytest.raises(ValueError):
            log_rate_factor(ComplexityPrior(), 20, 5, 6, rc)


class TestPosteriorDrawsAndConcentration:
    def chain_and_draws(self, seed=18, n=60, p=20, draws=1000):
        rng = np.random.default_rng(seed)
        X = random_design(rng, n=n, p=p)
        beta = np.zeros(p)
        beta[:2] = (2.0, 3.0)
        y = X.values @ beta + rng.standard_normal(n)
        chain = run_chain(
            X, y, ComplexityPrior(), Hyperparams(),
            ChainConfig(iterations=4000, seed=11, max_size=10),
        )
        out = sample_posterior_betas(X, y, chain, Hyperparams(), np.random.default_rng(3), draws)
        return X, y, beta, chain, out

    def test_draw_shapes_and_supports(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        assert draws.shape == (1000, 20)
        visited = set(chain.visit_counts)
        for row in draws[:50]:
            support = tuple(int(j) for j in np.flatnonzero(row))
            assert tuple(sorted(support)) in visited

    def test_draw_means_track_truth(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        assert np.abs(draws[:, :2].mean(axis=0) - beta[:2]).max() < 0.5

    def test_masses_at_extreme_thresholds(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        diag = concentration_diagnostic(chain, draws, X, beta, 1e12, 1e12, 0)
        assert diag == {"mass_pred": 0.0, "mass_l2": 0.0, "mass_dim": 1.0}
        diag = concentration_diagnostic(chain, draws, X, beta, 0.0, 0.0, 21)
        assert diag["mass_pred"] == 1.0
        assert diag["mass_l2"] == 1.0
        assert diag["mass_dim"] == 0.0

    def test_concentration_at_theory_scale(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        eps = 4.0 * 2 * np.log(20)
        diag = concentration_diagnostic(chain, draws, X, beta, eps, 2.0, 6)
        assert diag["mass_pred"] < 0.05
        assert diag["mass_l2"] < 0.05
        assert diag["mass_dim"] < 0.05

    def test_dimension_mass_matches_visit_counts(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        total = sum(chain.visit_counts.values())
        heavy = sum(c for m, c in chain.visit_counts.items() if len(m) >= 3)
        diag = concentration_diagnostic(chain, draws, X, beta, 1.0, 1.0, 3)
        assert diag["mass_dim"] == pytest.approx(heavy / total, abs=1e-12)

    def test_draws_deterministic_given_rng(self):
        X, y, beta, chain, _ = self.chain_and_draws()
        a = sample_posterior_betas(X, y, chain, Hyperparams(), np.random.default_rng(9), 200)
        b = sample_posterior_betas(X, y, chain, Hyperparams(), np.random.default_rng(9), 200)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_shape(self):
        X, y, beta, chain, draws = self.chain_and_draws()
        with pytest.raises(ValueError):
            concentration_diagnostic(chain, draws[:, :5], X, beta, 1.0, 1.0, 3)

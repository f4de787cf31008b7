import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from ebsparse.linalg import DesignMatrix, fit_model
from ebsparse.posterior import Hyperparams, log_marginal
from ebsparse.priors import BinomialPrior, ComplexityPrior
from ebsparse.sampler import (
    ChainConfig,
    ChainOutput,
    InitSingular,
    median_probability_model,
    mh_step,
    propose_flip,
    run_chain,
)


class TestProposeFlip:
    def test_single_coordinate_flip(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            p = int(rng.integers(1, 12))
            size = int(rng.integers(0, p + 1))
            model = tuple(int(j) for j in rng.choice(p, size=size, replace=False))
            prop = propose_flip(model, p, rng)
            assert len(set(model) ^ set(prop)) == 1

    def test_uniform_frequencies(self):
        # p=3 from S={0}: three outcomes, each 1/3, within 3-sigma bounds.
        rng = np.random.default_rng(41)
        n_draws = 100_000
        counts = {(): 0, (0, 1): 0, (0, 2): 0}
        for _ in range(n_draws):
            counts[propose_flip((0,), 3, rng)] += 1
        bound = 3 * np.sqrt(n_draws * (1 / 3) * (2 / 3))
        for k, c in counts.items():
            assert abs(c - n_draws / 3) < bound, (k, c)

    def test_add_appends_drop_preserves_order(self):
        rng = np.random.default_rng(42)
        seen_add = seen_drop = False
        while not (seen_add and seen_drop):
            prop = propose_flip((3, 1), 4, rng)
            if len(prop) == 3:
                assert prop[:2] == (3, 1)
                seen_add = True
            else:
                assert prop in ((3,), (1,))
                seen_drop = True


def make_problem(rng, n=30, p=6, beta=None, noise=1.0):
    X = DesignMatrix.from_array(rng.standard_normal((n, p)))
    b = np.zeros(p) if beta is None else np.asarray(beta, dtype=float)
    y = X.values @ b + noise * rng.standard_normal(n)
    return X, y


def exact_posterior_by_enumeration(X, y, prior, hyper, max_size):
    models = []
    logs = []
    for s in range(max_size + 1):
        for model in itertools.combinations(range(X.p), s):
            fit = fit_model(X, y, model)
            models.append(model)
            logs.append(log_marginal(fit, prior, hyper, X.p, max_size))
    logs = np.array(logs)
    probs = np.exp(logs - logsumexp(logs))
    return dict(zip(models, probs))


class TestMhStep:
    def test_certain_acceptance_of_dominant_move(self):
        # One column explains y almost perfectly: the add must always accept.
        rng = np.random.default_rng(43)
        X, y = make_problem(rng, n=40, p=1, beta=[10.0], noise=0.01)
        prior = ComplexityPrior()
        hyper = Hyperparams()
        for seed in range(20):
            fit = fit_model(X, y, ())
            lm = log_marginal(fit, prior, hyper, 1, 1)
            fit2, lm2, acc = mh_step(fit, lm, X, y, prior, hyper, 1, np.random.default_rng(seed))
            assert acc and fit2.model == (0,)

    def test_oversize_proposal_surely_rejected(self):
        rng = np.random.default_rng(44)
        X, y = make_problem(rng, n=20, p=3)
        prior = ComplexityPrior()
        hyper = Hyperparams()
        fit = fit_model(X, y, (0, 1))
        lm = log_marginal(fit, prior, hyper, 3, 2)
        for seed in range(40):
            step_rng = np.random.default_rng(seed)
            f2, lm2, acc = mh_step(fit, lm, X, y, prior, hyper, 2, step_rng)
            assert f2.size <= 2

    def test_singular_proposal_rejected(self):
        rng = np.random.default_rng(45)
        A = rng.standard_normal((20, 2))
        X = DesignMatrix.from_array(np.column_stack([A, A[:, 0]]))
        y = rng.standard_normal(20)
        prior = ComplexityPrior()
        hyper = Hyperparams()
        fit = fit_model(X, y, (0, 1))
        lm = log_marginal(fit, prior, hyper, 3, 2)
        # Column 2 duplicates column 0; any proposal adding it must reject.
        for seed in range(60):
            f2, _, acc = mh_step(fit, lm, X, y, prior, hyper, 2, np.random.default_rng(seed))
            assert 2 not in f2.model

    def test_two_state_stationary_frequency(self):
        # p=1 chain: long-run occupancy of {0} matches the exact posterior.
        rng = np.random.default_rng(46)
        X, y = make_problem(rng, n=20, p=1, beta=[0.4])
        prior = ComplexityPrior()
        hyper = Hyperparams()
        exact = exact_posterior_by_enumeration(X, y, prior, hyper, 1)
        out = run_chain(X, y, prior, hyper, ChainConfig(iterations=100_000, burn_in=1000, seed=7, init=()))
        freq = out.visit_counts.get((0,), 0) / (100_000 - 1000)
        assert freq == pytest.approx(exact[(0,)], abs=0.01)


class TestRunChain:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(47)
        X, y = make_problem(rng, n=30, p=8, beta=[2, 0, 0, 0, 0, 0, 0, 0])
        cfg = ChainConfig(iterations=2000, seed=11, init=())
        a = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        b = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        assert a.visit_counts == b.visit_counts
        np.testing.assert_array_equal(a.inclusion, b.inclusion)
        np.testing.assert_array_equal(a.trace_sizes, b.trace_sizes)
        assert a.acceptance_rate == b.acceptance_rate

    def test_output_shape_invariants(self):
        rng = np.random.default_rng(48)
        X, y = make_problem(rng, n=25, p=6)
        cfg = ChainConfig(iterations=1500, burn_in=300, seed=3, init=())
        out = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        assert sum(out.visit_counts.values()) == 1200
        assert out.trace_sizes.shape == (1500,)
        assert 0.0 <= out.acceptance_rate <= 1.0
        assert np.all((out.inclusion >= 0) & (out.inclusion <= 1))
        for model in out.visit_counts:
            assert model == tuple(sorted(model))

    def test_inclusion_is_visit_weighted_model_sum(self):
        rng = np.random.default_rng(52)
        X, y = make_problem(rng, n=30, p=8, beta=[1.0, 0.5, 0, 0, 0, 0, 0, 0])
        cfg = ChainConfig(iterations=3000, burn_in=500, seed=7, init=())
        out = run_chain(X, y, BinomialPrior(), Hyperparams(power=0.5, ridge=0.5), cfg)
        assert len(out.visit_counts) > 3
        expected = np.array(
            [sum(c for m, c in out.visit_counts.items() if j in m) for j in range(8)]
        ) / 2500
        assert np.array_equal(out.inclusion, expected)

    def test_default_burn_in_is_twenty_percent(self):
        cfg = ChainConfig(iterations=5000)
        assert cfg.resolved_burn_in == 1000

    def test_pure_noise_stays_small(self):
        rng = np.random.default_rng(49)
        X, y = make_problem(rng, n=50, p=10)
        cfg = ChainConfig(iterations=4000, seed=5, init=())
        out = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        assert out.trace_sizes[cfg.resolved_burn_in :].mean() < 1.0

    def test_strong_signal_visits_true_model(self):
        rng = np.random.default_rng(50)
        beta = np.zeros(60)
        beta[[4, 17, 33]] = [1.5, 2.0, 2.5]
        X, y = make_problem(rng, n=70, p=60, beta=beta)
        cfg = ChainConfig(iterations=5000, burn_in=0, seed=9)
        out = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        assert (4, 17, 33) in out.visit_counts
        assert median_probability_model(out.inclusion) == (4, 17, 33)

    def test_never_exceeds_max_size(self):
        rng = np.random.default_rng(51)
        X, y = make_problem(rng, n=30, p=8, beta=[3, 3, 3, 0, 0, 0, 0, 0])
        cfg = ChainConfig(iterations=3000, seed=2, init=(), max_size=3)
        out = run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)
        assert out.trace_sizes.max() <= 3

    def test_stationary_matches_enumeration(self):
        # Total-variation gap between chain occupancy and the exact
        # posterior over all 2^6 models.
        rng = np.random.default_rng(52)
        X, y = make_problem(rng, n=25, p=6, beta=[0, 1.0, 0, 0, -1.0, 0])
        prior = ComplexityPrior()
        hyper = Hyperparams()
        exact = exact_posterior_by_enumeration(X, y, prior, hyper, 6)
        cfg = ChainConfig(iterations=100_000, burn_in=10_000, seed=13, init=())
        out = run_chain(X, y, prior, hyper, cfg)
        kept = 90_000
        tv = 0.0
        for model, prob in exact.items():
            emp = out.visit_counts.get(model, 0) / kept
            tv += abs(emp - prob)
        assert tv / 2 < 0.02

    def test_init_singular_raises(self):
        rng = np.random.default_rng(53)
        A = rng.standard_normal((20, 2))
        X = DesignMatrix.from_array(np.column_stack([A, A[:, 1]]))
        y = rng.standard_normal(20)
        with pytest.raises(InitSingular):
            run_chain(X, y, ComplexityPrior(), Hyperparams(), ChainConfig(init=(1, 2)))

    def test_oversized_init_raises(self):
        rng = np.random.default_rng(54)
        X, y = make_problem(rng, n=20, p=5)
        cfg = ChainConfig(init=(0, 1, 2), max_size=2)
        with pytest.raises(InitSingular):
            run_chain(X, y, ComplexityPrior(), Hyperparams(), cfg)

    def test_init_without_prior_mass_raises(self):
        # Binomial size mass vanishes at size 0 when the rank is 1.
        X = DesignMatrix.from_array(np.ones((6, 1)))
        y = np.arange(6.0)
        with pytest.raises(InitSingular):
            run_chain(X, y, BinomialPrior(), Hyperparams(), ChainConfig(init=()))

    def test_lasso_default_init(self):
        rng = np.random.default_rng(55)
        beta = np.zeros(30)
        beta[[2, 11]] = [2.0, -2.0]
        X, y = make_problem(rng, n=50, p=30, beta=beta)
        out = run_chain(X, y, ComplexityPrior(), Hyperparams(), ChainConfig(iterations=2000, seed=1))
        assert median_probability_model(out.inclusion) == (2, 11)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(iterations=0)
        with pytest.raises(ValueError):
            ChainConfig(iterations=100, burn_in=100)


class TestMedianProbabilityModel:
    def test_all_zero(self):
        assert median_probability_model(np.zeros(5)) == ()

    def test_strict_threshold(self):
        assert median_probability_model(np.array([0.9, 0.5, 0.51])) == (0, 2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            median_probability_model(np.array([0.2, 1.3]))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebsparse.lasso import (
    DegenerateFit,
    LassoFit,
    _grid,
    _path,
    _standardize,
    cd_lasso,
    cv_fit,
    estimate_sigma2,
    initial_model,
    kkt_gap,
    lambda_max,
    select_lambda,
    sigma2_from_fit,
)
from ebsparse.linalg import DesignMatrix


def objective(X, y, beta, lam):
    # On the standardized problem, matching the solver's internal objective.
    yc = y - y.mean()
    Xc = X.values - X.values.mean(axis=0)
    scale = np.sqrt((Xc**2).sum(axis=0) / X.n)
    Xs = Xc / np.where(scale > 0, scale, 1.0)
    b = beta * scale
    r = yc - Xs @ b
    return 0.5 * (r @ r) / X.n + lam * np.abs(b).sum()


def signal_problem(rng, n=60, p=30, k=4, snr=3.0):
    X = DesignMatrix.from_array(rng.standard_normal((n, p)))
    beta = np.zeros(p)
    beta[:k] = snr
    y = X.values @ beta + rng.standard_normal(n)
    return X, y, beta


class TestCdLasso:
    def test_zero_solution_at_lambda_max(self):
        rng = np.random.default_rng(20)
        X, y, _ = signal_problem(rng)
        lam = lambda_max(X, y)
        for factor in [1.0, 1.5, 10.0]:
            fit = cd_lasso(X, y, lam * factor)
            assert np.all(fit.beta == 0.0)

    def test_single_column_soft_threshold(self):
        # One standardized column: solution is the soft-thresholded
        # correlation, mapped back to the original scale.
        rng = np.random.default_rng(21)
        n = 50
        x = rng.standard_normal(n)
        y = 2.0 * x + 0.1 * rng.standard_normal(n)
        X = DesignMatrix.from_array(x[:, None])
        xc = x - x.mean()
        scale = np.sqrt((xc**2).sum() / n)
        yc = y - y.mean()
        z = (xc / scale) @ yc / n
        for lam in [0.1, 0.5 * abs(z), 2 * abs(z)]:
            fit = cd_lasso(X, y, lam)
            expect = np.sign(z) * max(abs(z) - lam, 0.0) / scale
            assert fit.beta[0] == pytest.approx(expect, abs=1e-9)

    def test_orthonormal_lambda_zero_is_ols(self):
        rng = np.random.default_rng(22)
        n, p = 40, 8
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        X = DesignMatrix.from_array(Q)
        y = rng.standard_normal(n)
        fit = cd_lasso(X, y, 0.0)
        yc = y - y.mean()
        Xc = Q - Q.mean(axis=0)
        ref, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
        np.testing.assert_allclose(fit.beta, ref, atol=1e-6)

    def test_negative_lambda_rejected(self):
        X = DesignMatrix.from_array(np.eye(4))
        with pytest.raises(ValueError):
            cd_lasso(X, np.ones(4), -0.1)

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(25, 70))
            p = int(rng.integers(5, 50))
            X = DesignMatrix.from_array(rng.standard_normal((n, p)))
            beta = np.zeros(p)
            k = min(p, 3)
            beta[rng.choice(p, k, replace=False)] = rng.normal(0, 2, k)
            y = X.values @ beta + rng.standard_normal(n)
            lam = lambda_max(X, y) * float(rng.uniform(0.05, 0.9))
            fit = cd_lasso(X, y, lam)
            assert kkt_gap(X, y, fit) <= 1e-6

    def test_wide_design_kkt(self):
        rng = np.random.default_rng(24)
        X, y, _ = signal_problem(rng, n=40, p=120, k=3)
        lam = 0.1 * lambda_max(X, y)
        fit = cd_lasso(X, y, lam)
        assert kkt_gap(X, y, fit) <= 1e-6

    def test_rss_matches_centered_residual(self):
        rng = np.random.default_rng(25)
        X, y, _ = signal_problem(rng)
        fit = cd_lasso(X, y, 0.2 * lambda_max(X, y))
        yc = y - y.mean()
        Xc = X.values - X.values.mean(axis=0)
        r = yc - Xc @ fit.beta
        assert fit.rss == pytest.approx(r @ r, rel=1e-9)

    def test_cross_penalty_objective_ordering(self):
        # The lam2-solution must beat the lam1-solution on the lam2 objective.
        rng = np.random.default_rng(26)
        X, y, _ = signal_problem(rng)
        top = lambda_max(X, y)
        lam1, lam2 = 0.5 * top, 0.1 * top
        f1 = cd_lasso(X, y, lam1)
        f2 = cd_lasso(X, y, lam2)
        assert objective(X, y, f1.beta, lam2) >= objective(X, y, f2.beta, lam2) - 1e-12

    def test_objective_no_worse_than_zero_vector(self):
        rng = np.random.default_rng(27)
        X, y, _ = signal_problem(rng)
        lam = 0.3 * lambda_max(X, y)
        fit = cd_lasso(X, y, lam)
        assert objective(X, y, fit.beta, lam) <= objective(X, y, np.zeros(X.p), lam) + 1e-12


def fold_path(X, y, rows, grid):
    """Path solutions on the given rows, on the original scale."""
    Xf = DesignMatrix.from_array(X.values[rows])
    Xs, yc, scale, _, _ = _standardize(Xf, y[rows])
    return Xf, y[rows], _path(Xs, yc, grid) / scale[:, None]


def worst_path_kkt(X, y, B, grid):
    return max(kkt_gap(X, y, LassoFit(beta=b, lam=float(lam), rss=0.0)) for b, lam in zip(B.T, grid))


class TestPath:
    def test_fold_path_grid_solutions_are_exact(self):
        # p > n: the active set fills the fold's rank, n - 1 after
        # centering, before the grid ends.
        rng = np.random.default_rng(40)
        X, y, _ = signal_problem(rng, n=40, p=120, k=3)
        grid = _grid(lambda_max(X, y), 50, 0.001)
        Xf, yf, B = fold_path(X, y, np.arange(8, 40), grid)
        assert worst_path_kkt(Xf, yf, B, grid) <= 1e-9
        assert np.count_nonzero(B[:, -1]) == Xf.n - 1

    def test_duplicate_and_constant_columns(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((30, 60))
        values[:, 10] = values[:, 0]
        values[:, 11] = -2.0 * values[:, 1]
        values[:, 12] = 0.1  # centering leaves rounding error here
        values[:, 13] = 3.0
        X = DesignMatrix.from_array(values)
        y = values[:, :3] @ np.array([2.0, -1.5, 1.0]) + rng.standard_normal(30)
        fit = cd_lasso(X, y, 0.001 * lambda_max(X, y))
        assert kkt_gap(X, y, fit) <= 1e-6
        assert fit.beta[12] == 0.0 and fit.beta[13] == 0.0
        assert fit.beta[0] * fit.beta[10] == 0.0
        assert fit.beta[1] * fit.beta[11] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 25),
        p=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        duplicate=st.booleans(),
        constant=st.booleans(),
    )
    def test_random_small_designs(self, n, p, seed, duplicate, constant):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, p))
        if duplicate and p > 1:
            values[:, -1] = -3.0 * values[:, 0]
        if constant and p > 2:
            values[:, 1] = 0.1
        X = DesignMatrix.from_array(values)
        y = 2.0 * values[:, 0] + rng.standard_normal(n)
        top = lambda_max(X, y)
        grid = np.concatenate([[2.0 * top], _grid(top, 20, 0.001)])
        Xf, yf, B = fold_path(X, y, np.arange(n), grid)
        assert np.all(B[:, :2] == 0.0)
        assert worst_path_kkt(Xf, yf, B, grid) <= 1e-9


class TestSelectLambda:
    def test_returns_grid_point(self):
        rng = np.random.default_rng(28)
        X, y, _ = signal_problem(rng, n=50, p=20)
        lam = select_lambda(X, y, folds=5)
        top = lambda_max(X, y)
        grid = np.geomspace(top, 0.001 * top, 50)
        assert np.min(np.abs(grid - lam)) < 1e-12

    def test_pure_noise_prefers_heavy_shrinkage(self):
        rng = np.random.default_rng(29)
        X = DesignMatrix.from_array(rng.standard_normal((60, 25)))
        y = rng.standard_normal(60)
        lam = select_lambda(X, y)
        top = lambda_max(X, y)
        grid = np.geomspace(top, 0.001 * top, 50)
        # Selected penalty sits in the top quartile of the grid.
        assert lam >= grid[12]

    def test_strong_signal_support_recovered(self):
        rng = np.random.default_rng(30)
        X, y, beta = signal_problem(rng, n=80, p=40, k=3, snr=4.0)
        fit = cv_fit(X, y)
        assert set(np.flatnonzero(beta)) <= set(fit.support)

    def test_leave_one_out_runs(self):
        rng = np.random.default_rng(31)
        X, y, _ = signal_problem(rng, n=20, p=6, k=2)
        lam = select_lambda(X, y, folds=20)
        assert lam > 0

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        X, y, _ = signal_problem(rng)
        assert select_lambda(X, y) == select_lambda(X, y)

    def test_fold_bounds(self):
        X = DesignMatrix.from_array(np.eye(5))
        with pytest.raises(ValueError):
            select_lambda(X, np.ones(5), folds=1)


class TestSigma2:
    def test_null_fit_gives_centered_mse(self):
        rng = np.random.default_rng(33)
        X = DesignMatrix.from_array(rng.standard_normal((30, 5)))
        y = rng.standard_normal(30)
        fit = cd_lasso(X, y, 10 * lambda_max(X, y))
        yc = y - y.mean()
        assert sigma2_from_fit(fit, X.n) == pytest.approx((yc @ yc) / 30, rel=1e-12)

    def test_recovers_unit_variance(self):
        rng = np.random.default_rng(34)
        vals = []
        for _ in range(12):
            X, y, _ = signal_problem(rng, n=80, p=60, k=4, snr=2.0)
            vals.append(estimate_sigma2(X, y))
        assert 0.7 <= float(np.median(vals)) <= 1.4

    def test_near_exact_fit_stays_positive(self):
        rng = np.random.default_rng(35)
        X, y, _ = signal_problem(rng, n=30, p=5, k=2, snr=10.0)
        y = y - (y - X.values @ np.array([10.0, 10.0, 0, 0, 0])) * 0.999
        s2 = estimate_sigma2(X, y)
        assert 0 < s2 < 0.05

    def test_degenerate_raises(self):
        rng = np.random.default_rng(36)
        X, y, _ = signal_problem(rng, n=12, p=4, k=2)
        full = cd_lasso(X, y, 0.001 * lambda_max(X, y))
        with pytest.raises(DegenerateFit):
            sigma2_from_fit(full, full.active_size)


class TestInitialModel:
    def test_recovers_strong_support(self):
        rng = np.random.default_rng(37)
        X, y, beta = signal_problem(rng, n=80, p=40, k=3, snr=4.0)
        model = initial_model(X, y, max_size=20)
        assert set(np.flatnonzero(beta)) <= set(model)

    def test_truncation_to_max_size(self):
        rng = np.random.default_rng(38)
        X, y, _ = signal_problem(rng, n=60, p=40, k=5, snr=3.0)
        model = initial_model(X, y, max_size=2)
        assert len(model) <= 2
        assert model == tuple(sorted(model))

    def test_pure_noise_small_model(self):
        rng = np.random.default_rng(39)
        X = DesignMatrix.from_array(rng.standard_normal((50, 20)))
        y = rng.standard_normal(50)
        model = initial_model(X, y, max_size=10)
        assert len(model) <= 10

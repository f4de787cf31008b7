import numpy as np
import pytest

from ebsparse.linalg import (
    DesignMatrix,
    SingularModel,
    drop_fit,
    extend_fit,
    fit_model,
    rank_of,
)


def random_design(rng, n, p):
    return DesignMatrix.from_array(rng.standard_normal((n, p)))


class TestDesignMatrix:
    def test_column_norms_match_recomputation(self):
        rng = np.random.default_rng(0)
        X = random_design(rng, 17, 9)
        direct = np.array([X.column(j) @ X.column(j) for j in range(X.p)])
        np.testing.assert_allclose(X.column_sq_norms, direct, rtol=1e-12)

    def test_fortran_order_and_shape(self):
        X = DesignMatrix.from_array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert X.values.flags.f_contiguous
        assert (X.n, X.p) == (3, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DesignMatrix.from_array(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            DesignMatrix.from_array(np.zeros(5))


class TestRank:
    def test_identity_full_rank(self):
        X = DesignMatrix.from_array(np.eye(6))
        assert rank_of(X) == 6

    def test_duplicate_column_drops_rank(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 4))
        A[:, 3] = A[:, 0]
        assert rank_of(DesignMatrix.from_array(A)) == 3

    def test_wide_matrix_capped_at_n(self):
        rng = np.random.default_rng(2)
        X = random_design(rng, 5, 40)
        assert rank_of(X) == 5

    def test_zero_matrix(self):
        assert rank_of(DesignMatrix.from_array(np.zeros((4, 4)))) == 0

    def test_bad_tol(self):
        X = DesignMatrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            rank_of(X, tol=0.0)


class TestFitModel:
    def test_hand_solved_two_column_fit(self):
        # Normal equations [[4,10],[10,30]] beta = [11,33] give beta=(0,1.1);
        # rss = y.y - beta.xty = 39 - 33*1.1 = 2.7.
        X = DesignMatrix.from_array(
            [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 9.0], [1.0, 4.0, 16.0]]
        )
        y = np.array([1.0, 3.0, 2.0, 5.0])
        fit = fit_model(X, y, (0, 1))
        np.testing.assert_allclose(fit.beta_hat, [0.0, 1.1], atol=1e-12)
        np.testing.assert_allclose(fit.rss, 2.7, atol=1e-12)
        assert fit.model == (0, 1)

    def test_empty_model_gives_yty(self):
        X = DesignMatrix.from_array(np.eye(3))
        y = np.array([1.0, -2.0, 2.0])
        fit = fit_model(X, y, ())
        assert fit.rss == pytest.approx(9.0)
        assert fit.beta_hat.size == 0
        assert fit.model == ()

    def test_matches_lstsq(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, p = 30, 10
            X = random_design(rng, n, p)
            y = rng.standard_normal(n)
            S = tuple(rng.choice(p, size=rng.integers(1, 8), replace=False))
            fit = fit_model(X, y, S)
            ref, *_ = np.linalg.lstsq(X.submatrix(S), y, rcond=None)
            np.testing.assert_allclose(fit.beta_hat, ref, atol=1e-9)
            r = y - X.submatrix(S) @ ref
            np.testing.assert_allclose(fit.rss, r @ r, rtol=1e-10)

    def test_cholesky_identity(self):
        rng = np.random.default_rng(4)
        X = random_design(rng, 25, 12)
        y = rng.standard_normal(25)
        fit = fit_model(X, y, (2, 7, 4))
        Xs = X.submatrix(fit.model)
        np.testing.assert_allclose(fit.chol @ fit.chol.T, Xs.T @ Xs, rtol=1e-10)
        np.testing.assert_allclose(fit.xty, Xs.T @ y, rtol=1e-12)

    def test_duplicate_columns_raise(self):
        A = np.ones((5, 3))
        A[:, 1] = np.arange(5.0)
        X = DesignMatrix.from_array(A)
        y = np.zeros(5)
        with pytest.raises(SingularModel):
            fit_model(X, y, (0, 2))

    def test_oversized_model_raises(self):
        rng = np.random.default_rng(5)
        X = random_design(rng, 4, 8)
        y = rng.standard_normal(4)
        with pytest.raises(SingularModel):
            fit_model(X, y, (0, 1, 2, 3, 4))


class TestExtendFit:
    def test_identity_design_rss_drop(self):
        # On X = I, adding column j removes exactly y_j^2 from the rss.
        X = DesignMatrix.from_array(np.eye(4))
        y = np.array([1.5, -2.0, 0.5, 3.0])
        fit = fit_model(X, y, ())
        fit1 = extend_fit(fit, X, y, 1)
        assert fit1.rss == pytest.approx(fit.rss - 4.0, abs=1e-12)
        assert fit1.model == (1,)
        np.testing.assert_allclose(fit1.beta_hat, [-2.0])

    def test_agrees_with_direct_fit(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n, p = 40, 15
            X = random_design(rng, n, p)
            y = rng.standard_normal(n)
            size = int(rng.integers(0, 10))
            cols = rng.permutation(p)
            fit = fit_model(X, y, tuple(cols[:size]))
            j = int(cols[size])
            inc = extend_fit(fit, X, y, j)
            direct = fit_model(X, y, fit.model + (j,))
            np.testing.assert_allclose(inc.beta_hat, direct.beta_hat, atol=1e-10)
            assert inc.rss == pytest.approx(direct.rss, abs=1e-10)
            np.testing.assert_allclose(inc.chol, direct.chol, atol=1e-10)

    def test_collinear_extension_raises(self):
        A = np.ones((6, 3))
        A[:, 1] = np.arange(6.0)
        A[:, 2] = 2.0 * A[:, 0]
        X = DesignMatrix.from_array(A)
        y = np.arange(6.0)
        fit = fit_model(X, y, (0,))
        with pytest.raises(SingularModel):
            extend_fit(fit, X, y, 2)

    def test_zero_column_raises(self):
        A = np.eye(3)
        A[:, 2] = 0.0
        X = DesignMatrix.from_array(A)
        y = np.ones(3)
        with pytest.raises(SingularModel):
            extend_fit(fit_model(X, y, ()), X, y, 2)

    def test_repeated_column_rejected(self):
        X = DesignMatrix.from_array(np.eye(3))
        y = np.ones(3)
        fit = fit_model(X, y, (0,))
        with pytest.raises(ValueError):
            extend_fit(fit, X, y, 0)


class TestDropFit:
    def test_small_model_downdate_path(self):
        rng = np.random.default_rng(7)
        X = random_design(rng, 20, 8)
        y = rng.standard_normal(20)
        fit = fit_model(X, y, (3, 1, 6))
        dropped = drop_fit(fit, X, y, 1)
        direct = fit_model(X, y, (3, 6))
        assert dropped.model == (3, 6)
        np.testing.assert_allclose(dropped.beta_hat, direct.beta_hat, atol=1e-12)

    def test_downdate_path_matches_direct(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, p = 60, 20
            X = random_design(rng, n, p)
            y = rng.standard_normal(n)
            cols = tuple(int(c) for c in rng.permutation(p)[:12])
            fit = fit_model(X, y, cols)
            k = int(rng.integers(0, 12))
            j = cols[k]
            dropped = drop_fit(fit, X, y, j)
            direct = fit_model(X, y, tuple(c for c in cols if c != j))
            assert dropped.model == direct.model
            np.testing.assert_allclose(dropped.beta_hat, direct.beta_hat, atol=1e-8)
            assert dropped.rss == pytest.approx(direct.rss, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(dropped.chol, direct.chol, atol=1e-8)

    def test_drop_last_entered(self):
        rng = np.random.default_rng(9)
        X = random_design(rng, 40, 14)
        y = rng.standard_normal(40)
        cols = tuple(range(12))
        fit = fit_model(X, y, cols)
        dropped = drop_fit(fit, X, y, 11)
        direct = fit_model(X, y, cols[:11])
        np.testing.assert_allclose(dropped.beta_hat, direct.beta_hat, atol=1e-9)

    def test_drop_to_empty(self):
        X = DesignMatrix.from_array(np.eye(3))
        y = np.array([1.0, 2.0, 2.0])
        fit = fit_model(X, y, (2,))
        dropped = drop_fit(fit, X, y, 2)
        assert dropped.model == ()
        assert dropped.rss == pytest.approx(9.0)

    def test_absent_column_rejected(self):
        X = DesignMatrix.from_array(np.eye(3))
        y = np.ones(3)
        fit = fit_model(X, y, (0,))
        with pytest.raises(ValueError):
            drop_fit(fit, X, y, 1)


class TestRandomWalkSequence:
    def test_long_add_drop_chain_stays_accurate(self):
        # Interleaved extend/drop operations must not drift from direct refits.
        rng = np.random.default_rng(10)
        n, p = 50, 30
        X = random_design(rng, n, p)
        y = rng.standard_normal(n)
        fit = fit_model(X, y, ())
        for step in range(300):
            inside = set(fit.model)
            j = int(rng.integers(0, p))
            if j in inside:
                fit = drop_fit(fit, X, y, j)
            else:
                try:
                    fit = extend_fit(fit, X, y, j)
                except SingularModel:
                    continue
            if step % 50 == 49:
                direct = fit_model(X, y, fit.model)
                assert fit.rss == pytest.approx(direct.rss, rel=1e-8)
                np.testing.assert_allclose(fit.beta_hat, direct.beta_hat, atol=1e-8)

    def test_correlated_capped_walk_crosses_downdate_sizes(self):
        # rho = 0.99 equicorrelated columns, models capped at size 10: the
        # walk passes size 8 both ways, so small and large drops both downdate.
        rng = np.random.default_rng(11)
        n, p, cap, rho = 50, 30, 10, 0.99
        X = DesignMatrix.from_array(
            np.sqrt(rho) * rng.standard_normal((n, 1)) + np.sqrt(1 - rho) * rng.standard_normal((n, p))
        )
        y = X.values[:, :3] @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(n)
        fit = fit_model(X, y, ())
        crossings = {"up": 0, "down": 0}
        for step in range(20_000):
            j = int(rng.integers(0, p))
            size = fit.size
            if j in fit.model:
                fit = drop_fit(fit, X, y, j)
            elif size < cap:
                try:
                    fit = extend_fit(fit, X, y, j)
                except SingularModel:
                    continue
            if (size, fit.size) == (8, 9):
                crossings["up"] += 1
            elif (size, fit.size) == (9, 8):
                crossings["down"] += 1
            if step % 50 == 49:
                direct = fit_model(X, y, fit.model)
                np.testing.assert_allclose(fit.chol, direct.chol, atol=1e-8)
                assert fit.rss == pytest.approx(direct.rss, rel=1e-8)
                np.testing.assert_allclose(fit.beta_hat, direct.beta_hat, atol=1e-8)
        assert crossings["up"] > 0 and crossings["down"] > 0

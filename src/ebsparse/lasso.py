"""Exact homotopy (LARS-lasso) path for chain initialization and noise
estimation.

The objective is (1/2n) * ||y - X beta||^2 + lam * ||beta||_1. Data are
standardized internally (y centered, columns centered and scaled to squared
sample norm n) and coefficients are reported back on the original scale.
The solution is piecewise linear in lam. It is followed from lam_max down,
one kink at a time (Efron, Hastie, Johnstone & Tibshirani 2004; Osborne,
Presnell & Turlach 2000), so every requested penalty gets the exact
solution, with no tolerance or iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .linalg import DesignMatrix, SingularModel, chol_append, chol_delete, fit_model


class DegenerateFit(Exception):
    """Noise estimation needs more observations than active coefficients."""


@dataclass(frozen=True)
class LassoFit:
    """Solution at one penalty level, coefficients on the original scale.

    ``rss`` is measured on centered data, ||y_c - X_c beta||^2, i.e. with
    the intercept profiled out.
    """

    beta: np.ndarray
    lam: float
    rss: float

    @property
    def active_size(self) -> int:
        return int(np.count_nonzero(self.beta))

    @property
    def support(self) -> tuple:
        return tuple(int(j) for j in np.flatnonzero(self.beta))


def _standardize(X: DesignMatrix, y: np.ndarray):
    y = np.asarray(y, dtype=np.float64)
    ybar = float(y.mean())
    yc = y - ybar
    mu = X.values.mean(axis=0)
    Xc = X.values - mu
    scale = np.sqrt(np.einsum("ij,ij->j", Xc, Xc) / X.n)
    # A constant column keeps the rounding error of its mean after
    # centering; below this level the column counts as zero-variance.
    varies = scale > 1e-12 * np.abs(mu)
    safe = np.where(varies, scale, 1.0)
    Xs = Xc / safe
    Xs[:, ~varies] = 0.0
    return Xs, yc, safe, mu, ybar


def _path(Xs: np.ndarray, yc: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Standardized solutions at the descending penalties ``lams``, one column each.

    On a segment with active set A and signs s the solution is
    beta_A(lam) = w - lam * d, where w is the least-squares fit on A and
    X_A'X_A d = n s, and the correlations are c(lam) = e + lam * a, with
    e = Xs'(yc - X_A w) / n and a = Xs'X_A d / n. The segment ends at the
    largest lower lam where an inactive |c_j| reaches lam (a join) or an
    active coefficient reaches zero (a drop). Events are taken one at a
    time, so ties become zero-length steps. A joining column that fails
    the Cholesky pivot test is collinear with A; its KKT condition holds
    with equality and it stays blocked until a column drops.
    """
    n, p = Xs.shape
    norms = np.einsum("ij,ij->j", Xs, Xs)
    free = norms > 0.0  # inactive columns with nonzero variance
    blocked = np.zeros(p, dtype=bool)
    A: list = []
    L, xty, s = np.zeros((0, 0)), np.zeros(0), np.zeros(0)
    out = np.zeros((p, lams.size))
    lam, g, changed = np.inf, 0, True
    while True:
        if changed:
            XA = Xs[:, A]
            wd = cho_solve((L, True), np.column_stack([xty, n * s]), check_finite=False)
            w, d = wd.T
            # With A empty, e is computed exactly as in lambda_max, so the
            # first join falls exactly on lambda_max.
            e = Xs.T @ (yc - XA @ w) / n
            a = Xs.T @ (XA @ d) / n
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(a < 1.0, e / (1.0 - a), -np.inf)
                down = np.where(a > -1.0, -e / (1.0 + a), -np.inf)
                drop = np.where(s * d < 0.0, w / d, -np.inf)
            join = np.maximum(up, down)
        # Centered columns span at most n - 1 dimensions; a full active set
        # only loses columns.
        open_ = free & ~blocked if len(A) < n - 1 else np.zeros(p, dtype=bool)
        j = int(np.argmax(np.where(open_, join, -np.inf)))
        lam_join = join[j] if open_[j] else -np.inf
        lam_drop = drop.max(initial=-np.inf)
        nxt = min(lam, max(lam_join, lam_drop, 0.0))
        while g < lams.size and lams[g] >= nxt:
            # On a segment each coefficient keeps its sign s; the opposite
            # sign is rounding at a kink, where the exact value is zero.
            b = w - lams[g] * d
            out[A, g] = np.where(s * b > 0.0, b, 0.0)
            g += 1
        if g == lams.size:
            return out
        lam = nxt
        if lam_drop >= lam_join:
            k = int(np.argmax(drop))
            L, xty, s = chol_delete(L, k), np.delete(xty, k), np.delete(s, k)
            free[A.pop(k)] = True
            blocked[:] = False
            changed = True
            continue
        grown = chol_append(L, XA.T @ Xs[:, j], norms[j])
        changed = grown is not None
        if not changed:
            blocked[j] = True
            continue
        L, xty = grown, np.append(xty, Xs[:, j] @ yc)
        s = np.append(s, 1.0 if up[j] >= down[j] else -1.0)
        A.append(j)
        free[j] = False


def cd_lasso(X: DesignMatrix, y: np.ndarray, lam: float) -> LassoFit:
    """Solve the lasso at one penalty level, following the exact path down to it.

    Parameters
    ----------
    X : DesignMatrix
        Raw design; standardization happens internally.
    y : array
        Response vector of length X.n.
    lam : float
        Nonnegative penalty on the standardized scale; at or above
        lambda_max the solution is exactly zero.
    """
    if not lam >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    Xs, yc, scale, _, _ = _standardize(X, y)
    beta_std = _path(Xs, yc, np.array([float(lam)]))[:, 0]
    r = yc - Xs @ beta_std
    return LassoFit(beta=beta_std / scale, lam=float(lam), rss=float(r @ r))


def lambda_max(X: DesignMatrix, y: np.ndarray) -> float:
    """Smallest penalty with an all-zero solution, on the standardized scale."""
    Xs, yc, _, _, _ = _standardize(X, y)
    return float(np.max(np.abs(Xs.T @ yc)) / X.n)


def _grid(lam_top: float, n_grid: int, ratio: float) -> np.ndarray:
    return np.geomspace(lam_top, ratio * lam_top, n_grid)


def select_lambda(
    X: DesignMatrix,
    y: np.ndarray,
    folds: int = 5,
    n_grid: int = 50,
    min_ratio: float = 0.001,
) -> float:
    """Penalty minimizing K-fold cross-validated squared prediction error.

    Folds are contiguous index blocks, so the result is deterministic.
    The grid is log-spaced from lambda_max down to min_ratio * lambda_max;
    ties resolve to the largest penalty.
    """
    y = np.asarray(y, dtype=np.float64)
    n = X.n
    if folds < 2 or folds > n:
        raise ValueError(f"need 2 <= folds <= n, got {folds}")
    lam_top = lambda_max(X, y)
    if lam_top <= 0.0:
        raise ValueError("response is orthogonal to every centered column")
    grid = _grid(lam_top, n_grid, min_ratio)
    err = np.zeros(n_grid)
    blocks = np.array_split(np.arange(n), folds)
    for held in blocks:
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        Xs, yc, scale, mu, ybar = _standardize(DesignMatrix.from_array(X.values[mask]), y[mask])
        B = _path(Xs, yc, grid)
        B /= scale[:, None]
        pred = ybar + (X.values[held] - mu) @ B
        err += np.sum((y[held, None] - pred) ** 2, axis=0)
    return float(grid[int(np.argmin(err))])


def cv_fit(X: DesignMatrix, y: np.ndarray, folds: int = 5, n_grid: int = 50) -> LassoFit:
    """Full-data lasso fit at the cross-validation-selected penalty."""
    lam = select_lambda(X, y, folds=folds, n_grid=n_grid)
    return cd_lasso(X, y, lam)


def sigma2_from_fit(fit: LassoFit, n: int) -> float:
    """Residual variance rss / (n - active_size) from a lasso fit."""
    s = fit.active_size
    if n <= s:
        raise DegenerateFit(f"need n > active size, got n={n}, active={s}")
    return fit.rss / (n - s)


def estimate_sigma2(X: DesignMatrix, y: np.ndarray, folds: int = 5) -> float:
    """Noise variance estimate from the cross-validated lasso fit.

    Raises DegenerateFit when the selected active set is as large as the
    sample, leaving no residual degrees of freedom.
    """
    return sigma2_from_fit(cv_fit(X, y, folds=folds), X.n)


def model_from_fit(fit: LassoFit, X: DesignMatrix, y: np.ndarray, max_size: int) -> tuple:
    """Turn a lasso fit's support into a usable starting model.

    Oversized supports keep the max_size largest standardized coefficients;
    a support the least-squares machinery cannot fit falls back to the
    empty model.
    """
    support = fit.support
    if len(support) > max_size:
        Xc = X.values - X.values.mean(axis=0)
        scale = np.sqrt(np.einsum("ij,ij->j", Xc, Xc) / X.n)
        magnitude = np.abs(fit.beta) * scale
        ranked = sorted(support, key=lambda j: -magnitude[j])
        support = tuple(sorted(ranked[:max_size]))
    try:
        fit_model(X, y, support)
    except SingularModel:
        return ()
    return support


def initial_model(X: DesignMatrix, y: np.ndarray, max_size: int, folds: int = 5) -> tuple:
    """Model suggested by the cross-validated lasso support."""
    return model_from_fit(cv_fit(X, y, folds=folds), X, y, max_size)


def kkt_gap(X: DesignMatrix, y: np.ndarray, fit: LassoFit) -> float:
    """Largest violation of the lasso optimality conditions, measured on
    the standardized problem the solver actually optimized."""
    Xs, yc, scale, _, _ = _standardize(X, y)
    beta_std = fit.beta * scale
    corr = Xs.T @ (yc - Xs @ beta_std) / X.n
    active = beta_std != 0.0
    on = np.abs(corr[active] - fit.lam * np.sign(beta_std[active]))
    return float(max(on.max(initial=0.0), (np.abs(corr[~active]) - fit.lam).max(initial=0.0)))

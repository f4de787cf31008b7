"""Dense design-matrix storage and incremental per-model least squares.

A "model" is a tuple of active column indices (0-based). Fits are cached
as a Cholesky factor of the active Gram matrix so that adding or removing
one variable costs O(|S|^2) plus a single pass over the n rows, instead of
a fresh factorization: an add appends a row to the factor, a drop
downdates it. Every fit, fresh or incremental, then ends in the same two
triangular solves and residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Cholesky pivot threshold, relative to the entering column's squared norm.
PIVOT_TOL = 1e-10

Model = tuple


class SingularModel(Exception):
    """The active submatrix X_S is numerically rank-deficient."""


@dataclass(frozen=True)
class DesignMatrix:
    """Immutable n x p design matrix with cached column norms.

    ``values`` is stored Fortran-ordered so column slices are contiguous.
    Safe to share across workers; never mutated after construction.
    """

    values: np.ndarray
    column_sq_norms: np.ndarray

    @classmethod
    def from_array(cls, X) -> "DesignMatrix":
        X = np.asfortranarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"design matrix must be 2-d and non-empty, got shape {X.shape}")
        return cls(values=X, column_sq_norms=np.einsum("ij,ij->j", X, X))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def submatrix(self, model) -> np.ndarray:
        return self.values[:, list(model)]


@dataclass(frozen=True)
class ModelFit:
    """Cached least-squares state for one model.

    ``model`` records the order in which variables entered the fit;
    ``beta_hat`` and ``xty`` are aligned with that order, and ``chol`` is
    the lower-triangular factor L with L L^T = X_S^T X_S in the same
    ordering. ``rss`` is the residual sum of squares ||y - X_S beta_hat||^2.
    """

    model: Model
    chol: np.ndarray
    beta_hat: np.ndarray
    rss: float
    xty: np.ndarray

    @property
    def size(self) -> int:
        return len(self.model)


def _empty_fit(y: np.ndarray) -> ModelFit:
    return ModelFit(
        model=(),
        chol=np.zeros((0, 0)),
        beta_hat=np.zeros(0),
        rss=float(y @ y),
        xty=np.zeros(0),
    )


def rank_of(X: DesignMatrix, tol: float = 1e-8) -> int:
    """Numerical rank: singular values above ``tol`` times the largest."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sv = np.linalg.svd(X.values, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def _solved(model, L, xty, Xs, y) -> ModelFit:
    # beta from L L^T beta = X_S^T y, then the residual of the gathered X_S.
    w = solve_triangular(L, xty, lower=True, check_finite=False)
    beta = solve_triangular(L, w, lower=True, trans="T", check_finite=False)
    resid = y - Xs @ beta
    return ModelFit(model=model, chol=L, beta_hat=beta, rss=float(resid @ resid), xty=xty)


def fit_model(X: DesignMatrix, y: np.ndarray, S) -> ModelFit:
    """Least-squares fit of y on the columns in S.

    Raises SingularModel when a Cholesky pivot falls below PIVOT_TOL times
    the corresponding diagonal of the Gram matrix.
    """
    model = tuple(S)
    y = np.asarray(y, dtype=np.float64)
    if len(model) == 0:
        return _empty_fit(y)
    Xs = X.submatrix(model)
    G = Xs.T @ Xs
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise SingularModel(f"rank-deficient model {model}") from None
    diag = np.diag(L) ** 2
    if np.any(diag <= PIVOT_TOL * np.diag(G)):
        raise SingularModel(f"rank-deficient model {model}")
    return _solved(model, L, Xs.T @ y, Xs, y)


def extend_fit(fit: ModelFit, X: DesignMatrix, y: np.ndarray, j: int) -> ModelFit:
    """Fit on fit.model + (j,), reusing the cached Cholesky factor.

    Cost is O(|S|^2) plus one pass over the n rows for the new Gram column
    and residual. A zero column, like a collinear one, raises SingularModel.
    """
    if j in fit.model:
        raise ValueError(f"column {j} already in model {fit.model}")
    model = fit.model + (j,)
    Xs = X.submatrix(model)
    L = chol_append(fit.chol, Xs[:, :-1].T @ Xs[:, -1], X.column_sq_norms[j])
    if L is None:
        raise SingularModel(f"column {j} collinear with model {fit.model}")
    return _solved(model, L, np.append(fit.xty, float(Xs[:, -1] @ y)), Xs, y)


def chol_append(L: np.ndarray, g: np.ndarray, cjj: float):
    """Factor of the Gram matrix grown by one column, given that column's
    cross products g with the old columns and its squared norm cjj.

    Returns None when the new pivot falls below PIVOT_TOL * cjj, i.e. the
    column is numerically collinear with the old ones.
    """
    s = L.shape[0]
    l = solve_triangular(L, g, lower=True, check_finite=False) if s else g
    d2 = cjj - float(l @ l)
    if d2 <= PIVOT_TOL * cjj:
        return None
    out = np.zeros((s + 1, s + 1))
    out[:s, :s] = L
    out[s, :s] = l
    out[s, s] = float(np.sqrt(d2))
    return out


def chol_delete(L: np.ndarray, k: int) -> np.ndarray:
    """Factor of the Gram matrix with its k-th column and row removed."""
    s = L.shape[0]
    keep = [i for i in range(s) if i != k]
    out = L[np.ix_(keep, keep)]
    if k < s - 1:
        out[k:, k:] = _rank_one_update(out[k:, k:], L[k + 1 :, k])
    return out


def _rank_one_update(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Classic Givens-style loop computing chol(L L^T + v v^T); the additive
    # form is numerically safe (no subtractions under the square root).
    L = L.copy()
    v = v.copy()
    m = v.size
    for k in range(m):
        r = np.hypot(L[k, k], v[k])
        c = r / L[k, k]
        s = v[k] / L[k, k]
        L[k, k] = r
        if k + 1 < m:
            L[k + 1 :, k] = (L[k + 1 :, k] + s * v[k + 1 :]) / c
            v[k + 1 :] = c * v[k + 1 :] - s * L[k + 1 :, k]
    return L


def drop_fit(fit: ModelFit, X: DesignMatrix, y: np.ndarray, j: int) -> ModelFit:
    """Fit on fit.model minus {j}, downdating the cached Cholesky factor."""
    if j not in fit.model:
        raise ValueError(f"column {j} not in model {fit.model}")
    model = tuple(i for i in fit.model if i != j)
    if not model:
        return _empty_fit(y)
    k = fit.model.index(j)
    return _solved(model, chol_delete(fit.chol, k), np.delete(fit.xty, k), X.submatrix(model), y)

"""Exact small-problem enumeration and computable theory diagnostics.

Everything here is a desk-scale check: brute-force posteriors to validate
the sampler, sparse singular values, the posterior-denominator lower
bound, nested chi-square statistics, detection cutoffs, and the rate
factor controlling the prior-driven part of the concentration bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .linalg import DesignMatrix, SingularModel, fit_model, rank_of
from .posterior import Hyperparams, log_marginal, sample_beta_given_model
from .priors import ModelPrior, log_binom, log_model_prior, log_size_mass
from .sampler import ChainOutput

ENUMERATION_GUARD = 1_000_000


class TooLarge(Exception):
    """The requested enumeration exceeds the subset-count guard."""


@dataclass(frozen=True)
class ExactPosterior:
    """Brute-force normalized model posterior.

    ``table`` maps sorted model tuples to probabilities summing to one;
    ``inclusion[j]`` is the exact marginal probability that column j is
    active; ``log_normalizer`` is the log of the unnormalized mass;
    ``max_size`` is the design's numerical rank, the prior's size cap.
    """

    table: dict
    log_normalizer: float
    inclusion: np.ndarray
    max_size: int


def enumerate_posterior(
    X: DesignMatrix,
    y: np.ndarray,
    prior: ModelPrior,
    hyper: Hyperparams,
    size_cap: Optional[int] = None,
) -> ExactPosterior:
    """Exact model posterior over all models of size at most size_cap.

    size_cap defaults to the design's numerical rank. Rank-deficient
    submodels get zero mass, matching the sampler's auto-rejection.

    Raises TooLarge when the number of models exceeds 10^6.
    """
    y = np.asarray(y, dtype=np.float64)
    max_size = rank_of(X)
    if size_cap is None:
        size_cap = max_size
    top = min(size_cap, max_size)
    if sum(math.comb(X.p, s) for s in range(top + 1)) > ENUMERATION_GUARD:
        raise TooLarge(f"more than {ENUMERATION_GUARD} models of size <= {top}")
    models = []
    logs = []
    for s in range(top + 1):
        for model in itertools.combinations(range(X.p), s):
            try:
                fit = fit_model(X, y, model)
            except SingularModel:
                continue
            lm = log_marginal(fit, prior, hyper, X.p, max_size)
            if lm == -np.inf:
                continue
            models.append(model)
            logs.append(lm)
    logs = np.array(logs)
    log_norm = float(logsumexp(logs))
    probs = np.exp(logs - log_norm)
    inclusion = np.zeros(X.p)
    for model, prob in zip(models, probs):
        inclusion[list(model)] += prob
    return ExactPosterior(
        table=dict(zip(models, probs)), log_normalizer=log_norm, inclusion=inclusion, max_size=max_size
    )


def min_sparse_singular_value(X: DesignMatrix, s: int) -> float:
    """Smallest singular value over all column subsets of size s.

    Equals the infimum of ||X b|| / ||b|| over coefficient vectors with at
    most s nonzero entries, by nesting of supports. Zero without any
    enumeration when s exceeds the row count.
    """
    if not 1 <= s <= X.p:
        raise ValueError(f"need 1 <= s <= {X.p}, got {s}")
    if s > X.n:
        return 0.0
    if math.comb(X.p, s) > ENUMERATION_GUARD:
        raise TooLarge(f"C({X.p}, {s}) subsets exceed the guard")
    best = np.inf
    for subset in itertools.combinations(range(X.p), s):
        sv = np.linalg.svd(X.submatrix(subset), compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            # Below numerical rank tolerance: the subset is collinear and
            # zero is the global minimum, so stop early.
            return 0.0
        best = min(best, float(sv[-1]))
    return best


@dataclass(frozen=True)
class DenominatorCheck:
    """Exact posterior denominator versus its theoretical lower bound."""

    log_lhs: float
    log_rhs: float
    constant: float
    holds: bool


def denominator_bound_check(
    X: DesignMatrix,
    y: np.ndarray,
    true_beta: np.ndarray,
    prior: ModelPrior,
    hyper: Hyperparams,
) -> DenominatorCheck:
    """Verify that the posterior normalizer, rescaled by the likelihood at
    the true coefficients, is at least prior(true support) * exp(-constant
    * true size), with constant = (1/2) log(1 + power/(ridge*noise)).

    The normalizer is enumerate_posterior's: by log_marginal ==
    log_model_prior + log_integrated_weight, the rescaled normalizer is
    its log_normalizer plus the model-independent shift, and the same
    subset-count guard applies.
    """
    y = np.asarray(y, dtype=np.float64)
    true_beta = np.asarray(true_beta, dtype=np.float64)
    true_model = tuple(int(j) for j in np.flatnonzero(true_beta))
    resid = y - X.values @ true_beta
    shift = hyper.half_data_precision * float(resid @ resid)
    exact = enumerate_posterior(X, y, prior, hyper)
    log_lhs = exact.log_normalizer + shift
    c = hyper.occam_per_variable
    log_rhs = log_model_prior(prior, true_model, X.p, exact.max_size) - c * len(true_model)
    return DenominatorCheck(
        log_lhs=log_lhs,
        log_rhs=log_rhs,
        constant=float(c),
        holds=bool(log_lhs >= log_rhs - 1e-9),
    )


def nested_chisq_stat(
    X: DesignMatrix, y: np.ndarray, inner_model, outer_model, noise: float
) -> float:
    """Scaled fit improvement (rss_inner - rss_outer) / noise of a model
    over a nested submodel.

    When the data are generated with true support inside inner_model, the
    statistic is central chi-square with the difference of model sizes as
    degrees of freedom, because the extra fitted directions carry no
    signal.
    """
    if noise <= 0:
        raise ValueError("noise must be positive")
    if not set(inner_model) <= set(outer_model):
        raise ValueError("need inner_model contained in outer_model")
    inner = fit_model(X, y, inner_model)
    outer = fit_model(X, y, outer_model)
    return max(inner.rss - outer.rss, 0.0) / noise


def beta_min_cutoff(hyper: Hyperparams, min_singular: float, n_vars, margin: float) -> float:
    """Smallest coefficient magnitude detectable at the posterior's rate:

        sqrt(noise)/min_singular * sqrt(2*margin*(1+power)/power * log(n_vars))

    min_singular is the sparse minimum singular value at the true size;
    margin > 1 slackens the rate. Raises ZeroDivisionError when
    min_singular is zero (unidentifiable design).
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    if min_singular == 0.0:
        raise ZeroDivisionError("min_singular is zero")
    rate = 2.0 * margin * (1.0 + hyper.power) / hyper.power * np.log(n_vars)
    return float(np.sqrt(hyper.noise) / min_singular * np.sqrt(rate))


@dataclass(frozen=True)
class RateConstants:
    """Constants from the finite-sample concentration bounds.

    split_exponent : auxiliary exponent in (1, 1/power) used to split the
        numerator expectation; conjugate_ratio is (split_exponent - 1) /
        split_exponent.
    decay_rate : exponential decay rate multiplying the target in the
        numerator bound, power*(1 - split_exponent*power)/(2*noise).
    prior_inflation : per-variable inflation factor of the prior sum in
        the same bound, {(1+conjugate_ratio*ridge*noise)^(1-1/
        conjugate_ratio)/noise}^(1/2).
    occam_cost : per-variable cost in the denominator bound, matching
        Hyperparams.occam_per_variable.
    coef_precision_root : conditional posterior precision root,
        sqrt(ridge + power/noise).
    """

    split_exponent: float
    conjugate_ratio: float
    decay_rate: float
    prior_inflation: float
    occam_cost: float
    coef_precision_root: float

    @classmethod
    def from_hyperparams(
        cls, hyper: Hyperparams, split_exponent: Optional[float] = None
    ) -> "RateConstants":
        power, ridge, noise = hyper.power, hyper.ridge, hyper.noise
        if split_exponent is None:
            # Midpoint of the admissible interval (1, 1/power).
            split_exponent = 0.5 * (1.0 + 1.0 / power)
        if not 1.0 < split_exponent < 1.0 / power:
            raise ValueError(f"need 1 < split_exponent < {1.0 / power}, got {split_exponent}")
        ratio = (split_exponent - 1.0) / split_exponent
        decay = power * (1.0 - split_exponent * power) / (2.0 * noise)
        inflation = float(np.sqrt((1.0 + ratio * ridge * noise) ** (1.0 - 1.0 / ratio) / noise))
        return cls(
            split_exponent=split_exponent,
            conjugate_ratio=ratio,
            decay_rate=decay,
            prior_inflation=inflation,
            occam_cost=float(hyper.occam_per_variable),
            coef_precision_root=hyper.coef_precision_root,
        )


def log_rate_factor(
    prior: ModelPrior,
    n_vars: int,
    max_size: int,
    true_size: int,
    constants: RateConstants,
) -> float:
    """log of the prior-dependent factor in the concentration bound:
    subsets-of-true-size over the prior's mass at that size, times the
    inflation-weighted prior sum over all sizes.

    Growth proportional to true_size * log(n_vars / true_size) keeps the
    bound's rate intact; the test suite checks this across priors.
    """
    if not 0 <= true_size <= max_size:
        raise ValueError(f"need 0 <= true_size <= {max_size}")
    lf_star = log_size_mass(prior, true_size, n_vars, max_size)
    if lf_star == -np.inf:
        raise ValueError("prior puts no mass on true_size")
    sizes = np.arange(max_size + 1)
    lf = np.array([log_size_mass(prior, int(s), n_vars, max_size) for s in sizes])
    tail = float(logsumexp(sizes * np.log(constants.prior_inflation) + lf))
    return float(log_binom(n_vars, true_size)) - lf_star + tail


def sample_posterior_betas(
    X: DesignMatrix,
    y: np.ndarray,
    chain: ChainOutput,
    hyper: Hyperparams,
    rng: np.random.Generator,
    max_draws: int = 2000,
) -> np.ndarray:
    """Full coefficient vectors drawn from the fitted posterior.

    Models are resampled from the chain's visit frequencies, then the
    active coefficients are drawn from their conditional Gaussian; the
    result is a (max_draws, p) array with zeros off-model.
    """
    y = np.asarray(y, dtype=np.float64)
    models = list(chain.visit_counts)
    counts = np.array([chain.visit_counts[m] for m in models], dtype=np.float64)
    idx = rng.choice(len(models), size=max_draws, p=counts / counts.sum())
    fits = {}
    draws = np.zeros((max_draws, X.p))
    for t, i in enumerate(idx):
        model = models[i]
        if model not in fits:
            fits[model] = fit_model(X, y, model)
        fit = fits[model]
        draws[t, list(model)] = sample_beta_given_model(fit, hyper, rng)
    return draws


def concentration_diagnostic(
    chain: ChainOutput,
    beta_draws: np.ndarray,
    X: DesignMatrix,
    true_beta: np.ndarray,
    eps: float,
    delta: float,
    dim_cut: float,
) -> dict:
    """Empirical posterior masses of the three exceedance events the
    concentration bounds control.

    mass_pred : fraction of draws with ||X(beta - true_beta)||^2 > eps
    mass_l2   : fraction with ||beta - true_beta||^2 > delta
    mass_dim  : posterior frequency of models with at least dim_cut
                active variables, taken from the chain's visit counts

    The first two are Monte Carlo masses over the coefficient draws; the
    dimension mass needs no draws, so it comes from the model chain.
    """
    beta_draws = np.asarray(beta_draws, dtype=np.float64)
    true_beta = np.asarray(true_beta, dtype=np.float64)
    if beta_draws.ndim != 2 or beta_draws.shape[1] != X.p:
        raise ValueError("beta_draws must be (draws, p)")
    diff = beta_draws - true_beta
    resid = diff @ X.values.T
    pred_sq = np.einsum("ij,ij->i", resid, resid)
    l2_sq = np.einsum("ij,ij->i", diff, diff)
    total = sum(chain.visit_counts.values())
    heavy = sum(c for m, c in chain.visit_counts.items() if len(m) >= dim_cut)
    return {
        "mass_pred": float(np.mean(pred_sq > eps)),
        "mass_l2": float(np.mean(l2_sq > delta)),
        "mass_dim": heavy / total,
    }

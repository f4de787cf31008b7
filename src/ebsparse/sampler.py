"""Metropolis-Hastings search over models with one-variable flips.

Coefficients stay integrated out; the chain moves on models alone using
the closed-form marginal from the posterior module. Proposals toggle one
uniformly chosen coordinate, so the proposal kernel is symmetric and the
acceptance ratio reduces to the marginal ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lasso import initial_model
from .linalg import DesignMatrix, ModelFit, SingularModel, drop_fit, extend_fit, fit_model, rank_of
from .posterior import Hyperparams, log_marginal
from .priors import ModelPrior, log_size_mass


class InitSingular(Exception):
    """The chain's starting model cannot be fit."""


@dataclass(frozen=True)
class ChainConfig:
    """Run-length, seed, and starting state of one chain.

    ``init=None`` asks for the cross-validated lasso support, truncated to
    the ``max_size`` largest coefficients if needed; ``max_size=None``
    defaults to the numerical rank of the design. ``burn_in=None`` means
    20 percent of ``iterations``.
    """

    iterations: int = 5000
    burn_in: Optional[int] = None
    seed: int = 0
    init: Optional[tuple] = None
    max_size: Optional[int] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.iterations:
            raise ValueError("need 0 <= burn_in < iterations")

    @property
    def resolved_burn_in(self) -> int:
        return self.iterations // 5 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class ChainOutput:
    """Post burn-in visit counts, inclusion frequencies, and diagnostics.

    visit_counts maps sorted model tuples to how many retained iterations
    the chain spent there; counts sum to iterations - burn_in. inclusion[j]
    is the fraction of retained iterations with column j active.
    trace_sizes covers every iteration including burn-in.
    """

    visit_counts: dict
    inclusion: np.ndarray
    acceptance_rate: float
    trace_sizes: np.ndarray


def propose_flip(model: tuple, n_vars: int, rng: np.random.Generator) -> tuple:
    """Toggle one uniformly chosen coordinate; adds append, drops preserve order."""
    if n_vars < 1:
        raise ValueError("n_vars must be positive")
    j = int(rng.integers(n_vars))
    if j in model:
        return tuple(i for i in model if i != j)
    return model + (j,)


def mh_step(
    fit: ModelFit,
    log_marg: float,
    X: DesignMatrix,
    y: np.ndarray,
    prior: ModelPrior,
    hyper: Hyperparams,
    max_size: int,
    rng: np.random.Generator,
):
    """One accept/reject step; returns (fit, log_marg, accepted).

    Proposals outside the prior support or hitting a singular submatrix are
    rejected outright. Accepted moves update the cached fit incrementally.
    """
    proposal = propose_flip(fit.model, X.p, rng)
    if len(proposal) > fit.size:
        j = proposal[-1]
        # Prior-support check first: oversized models are free to reject.
        if log_size_mass(prior, fit.size + 1, X.p, max_size) == -np.inf:
            return fit, log_marg, False
        try:
            cand = extend_fit(fit, X, y, j)
        except SingularModel:
            return fit, log_marg, False
    else:
        j = next(i for i in fit.model if i not in proposal)
        cand = drop_fit(fit, X, y, j)
    cand_lm = log_marginal(cand, prior, hyper, X.p, max_size)
    if np.log(rng.random()) < cand_lm - log_marg:
        return cand, cand_lm, True
    return fit, log_marg, False


def run_chain(
    X: DesignMatrix,
    y: np.ndarray,
    prior: ModelPrior,
    hyper: Hyperparams,
    cfg: ChainConfig,
) -> ChainOutput:
    """Run one chain; deterministic given cfg.seed.

    Raises InitSingular when the starting model cannot be fit or has no
    prior mass.
    """
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    max_size = rank_of(X) if cfg.max_size is None else cfg.max_size
    init = cfg.init
    if init is None:
        init = initial_model(X, y, max_size)
    if len(init) > max_size:
        raise InitSingular(f"init size {len(init)} exceeds max_size {max_size}")
    try:
        fit = fit_model(X, y, init)
    except SingularModel as e:
        raise InitSingular(str(e)) from None
    log_marg = log_marginal(fit, prior, hyper, X.p, max_size)
    if log_marg == -np.inf:
        raise InitSingular(f"init model {init} has no prior mass")

    burn_in = cfg.resolved_burn_in
    kept = cfg.iterations - burn_in
    visit_counts: dict = {}
    trace_sizes = np.empty(cfg.iterations, dtype=np.int64)
    accepted = 0
    for t in range(cfg.iterations):
        fit, log_marg, acc = mh_step(fit, log_marg, X, y, prior, hyper, max_size, rng)
        accepted += acc
        trace_sizes[t] = fit.size
        if t >= burn_in:
            key = tuple(sorted(fit.model))
            visit_counts[key] = visit_counts.get(key, 0) + 1
    # Integer counts: the sums are exact, whatever the order.
    inclusion = np.zeros(X.p)
    for model, count in visit_counts.items():
        inclusion[list(model)] += count
    return ChainOutput(
        visit_counts=visit_counts,
        inclusion=inclusion / kept,
        acceptance_rate=accepted / cfg.iterations,
        trace_sizes=trace_sizes,
    )


def median_probability_model(inclusion: np.ndarray) -> tuple:
    """Columns whose inclusion probability strictly exceeds one half."""
    inclusion = np.asarray(inclusion, dtype=np.float64)
    if inclusion.size and (inclusion.min() < 0.0 or inclusion.max() > 1.0):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    return tuple(int(j) for j in np.flatnonzero(inclusion > 0.5))

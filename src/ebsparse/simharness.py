"""Synthetic benchmark harness: correlated designs, sparse signals, and
selection quality metrics averaged over independent replications.

Each replication draws a fresh design and response, estimates the noise
variance (unless given), seeds the model search from the cross-validated
lasso, runs the chain, and scores the median probability model against
the true support. Replications parallelize across processes; results are
bit-identical for any worker count because per-rep seeds come from a
splittable root and aggregation follows replication order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .lasso import DegenerateFit, cv_fit, model_from_fit, sigma2_from_fit
from .linalg import DesignMatrix, SingularModel
from .posterior import Hyperparams
from .priors import ComplexityPrior, ModelPrior
from .sampler import ChainConfig, InitSingular, median_probability_model, run_chain


@dataclass(frozen=True)
class SettingSpec:
    """One synthetic benchmark configuration.

    Rows of the design share pairwise correlation rho; the response adds
    N(0, sigma2) noise to the signal placed at s_star_positions with
    values beta_star_values (matched by position).
    """

    n: int
    p: int
    rho: float
    beta_star_values: tuple
    s_star_positions: tuple
    sigma2: float
    reps: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if len(self.beta_star_values) != len(self.s_star_positions):
            raise ValueError("signal values and positions must align")
        positions = self.s_star_positions
        if len(set(positions)) != len(positions):
            raise ValueError("signal positions must be distinct")
        if positions and not all(0 <= j < self.p for j in positions):
            raise ValueError("signal positions must lie in [0, p)")
        if len(positions) > self.n:
            raise ValueError("true size cannot exceed the sample size")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if self.reps < 1:
            raise ValueError("reps must be positive")

    @property
    def true_model(self) -> tuple:
        return tuple(sorted(int(j) for j in self.s_star_positions))

    @property
    def true_beta(self) -> np.ndarray:
        beta = np.zeros(self.p)
        beta[list(self.s_star_positions)] = self.beta_star_values
        return beta


def preset_setting(number: int, reps: int = 200, seed: int = 0) -> SettingSpec:
    """The three standard benchmark settings.

    1: n=100, p=500, staircase signal (0.6, 1.2, 1.8, 2.4, 3.0).
    2: n=200, p=1000, same staircase.
    3: n=100, p=500, five weak equal signals at 0.6.

    All use pairwise correlation 0.25, unit noise variance, and the
    signal on the first five columns.
    """
    staircase = (0.6, 1.2, 1.8, 2.4, 3.0)
    shapes = {
        1: (100, 500, staircase),
        2: (200, 1000, staircase),
        3: (100, 500, (0.6,) * 5),
    }
    if number not in shapes:
        raise ValueError(f"preset must be 1, 2 or 3, got {number}")
    n, p, values = shapes[number]
    return SettingSpec(
        n=n,
        p=p,
        rho=0.25,
        beta_star_values=values,
        s_star_positions=(0, 1, 2, 3, 4),
        sigma2=1.0,
        reps=reps,
        seed=seed,
    )


@dataclass(frozen=True)
class RepRecord:
    """Selection scores for one replication."""

    p_bar_0: float
    p_bar_1: float
    exact: int
    contain: int
    fdr: float


@dataclass(frozen=True)
class Metrics:
    """Replication averages of the selection scores.

    p_bar_0 / p_bar_1 : mean inclusion probability off/on the true
        support; pr_exact / pr_contain : fraction of reps whose selected
        model equals / contains the truth; fdr : mean false discovery
        rate; failures : reps that errored and were excluded;
        wall_time_s : elapsed time, excluded from any equality notion.
    """

    p_bar_0: float
    p_bar_1: float
    pr_exact: float
    pr_contain: float
    fdr: float
    failures: int
    wall_time_s: float


def generate_design(n: int, p: int, rho: float, rng: np.random.Generator) -> DesignMatrix:
    """Design with rows iid N(0, (1-rho) I + rho 11^T), built from the
    one-factor form x = sqrt(rho) z 1 + sqrt(1-rho) w.

    The shared factor is drawn before the idiosyncratic block, so streams
    are reproducible for every rho including zero.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    shared = rng.standard_normal((n, 1))
    own = rng.standard_normal((n, p))
    return DesignMatrix.from_array(np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * own)


def generate_response(X: DesignMatrix, spec: SettingSpec, rng: np.random.Generator) -> np.ndarray:
    """y = X beta + noise with beta from the setting's signal layout."""
    if X.p != spec.p or X.n != spec.n:
        raise ValueError("design shape disagrees with the setting")
    signal = X.values @ spec.true_beta
    return signal + np.sqrt(spec.sigma2) * rng.standard_normal(spec.n)


def evaluate_selection(selected, true_model, inclusion: np.ndarray) -> RepRecord:
    """Score one selected model against the truth.

    p_bar_1 averages inclusion over the true support (nan when empty),
    p_bar_0 over its complement; fdr uses |selected minus truth| /
    max(|selected|, 1), so selecting nothing counts as zero discoveries.
    """
    inclusion = np.asarray(inclusion, dtype=np.float64)
    p = inclusion.shape[0]
    sel = set(int(j) for j in selected)
    truth = set(int(j) for j in true_model)
    on = sorted(truth)
    off = sorted(set(range(p)) - truth)
    p_bar_1 = float(inclusion[on].mean()) if on else float("nan")
    p_bar_0 = float(inclusion[off].mean()) if off else float("nan")
    false_hits = len(sel - truth)
    return RepRecord(
        p_bar_0=p_bar_0,
        p_bar_1=p_bar_1,
        exact=int(sel == truth),
        contain=int(sel >= truth),
        fdr=false_hits / max(len(sel), 1),
    )


def _run_rep(
    spec: SettingSpec,
    chain_cfg: ChainConfig,
    hyper: Union[Hyperparams, str],
    prior: ModelPrior,
    rep: int,
) -> Optional[RepRecord]:
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(rep,))
    data_seq, chain_seq = root.spawn(2)
    rng = np.random.default_rng(data_seq)
    try:
        X = generate_design(spec.n, spec.p, spec.rho, rng)
        y = generate_response(X, spec, rng)
        max_size = chain_cfg.max_size if chain_cfg.max_size is not None else min(spec.n, spec.p)
        fit = cv_fit(X, y)
        if hyper == "estimate":
            hyper = Hyperparams(noise=sigma2_from_fit(fit, spec.n))
        cfg = replace(
            chain_cfg,
            seed=int(chain_seq.generate_state(1)[0]),
            init=model_from_fit(fit, X, y, max_size),
            max_size=max_size,
        )
        chain = run_chain(X, y, prior, hyper, cfg)
    except (
        SingularModel,
        InitSingular,
        DegenerateFit,
        ValueError,
        np.linalg.LinAlgError,
    ):
        # ValueError covers degenerate per-rep data, e.g. a zero noise
        # estimate on an exactly-fit response.
        return None
    selected = median_probability_model(chain.inclusion)
    return evaluate_selection(selected, spec.true_model, chain.inclusion)


def run_setting(
    spec: SettingSpec,
    chain_cfg: Optional[ChainConfig] = None,
    hyper: Union[Hyperparams, str] = "estimate",
    prior: Optional[ModelPrior] = None,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Metrics:
    """Replicate the setting and average the selection scores.

    hyper may be a Hyperparams (noise taken as known) or "estimate" to
    plug in the lasso residual variance per replication. Failed reps are
    counted and excluded; they never abort the batch. Results are
    bit-identical for any worker count. progress, when given, is called
    with (completed, total) after each replication.
    """
    if chain_cfg is None:
        chain_cfg = ChainConfig()
    if prior is None:
        prior = ComplexityPrior()
    if not (hyper == "estimate" or isinstance(hyper, Hyperparams)):
        raise ValueError('hyper must be a Hyperparams or "estimate"')
    start = time.perf_counter()
    args = [(spec, chain_cfg, hyper, prior, rep) for rep in range(spec.reps)]
    records = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(_run_rep, *zip(*args)):
                records.append(rec)
                if progress is not None:
                    progress(len(records), spec.reps)
    else:
        for a in args:
            records.append(_run_rep(*a))
            if progress is not None:
                progress(len(records), spec.reps)
    elapsed = time.perf_counter() - start
    kept = [r for r in records if r is not None]
    failures = len(records) - len(kept)
    if not kept:
        nan = float("nan")
        return Metrics(nan, nan, nan, nan, nan, failures, elapsed)
    return Metrics(
        p_bar_0=float(np.mean([r.p_bar_0 for r in kept])),
        p_bar_1=float(np.mean([r.p_bar_1 for r in kept])),
        pr_exact=float(np.mean([r.exact for r in kept])),
        pr_contain=float(np.mean([r.contain for r in kept])),
        fdr=float(np.mean([r.fdr for r in kept])),
        failures=failures,
        wall_time_s=elapsed,
    )

"""Command-line entry point: fit a dataset, reproduce the synthetic
benchmarks, dump an exact enumeration, or run the theory diagnostics.

Every run is driven by a validated RunConfig whose statistically
meaningful fields are embedded in the JSON report, so any report can be
re-run bit-for-bit with the `rerun` subcommand. Worker count and output
paths are execution details and stay out of the payload; reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from . import lasso
from .linalg import DesignMatrix, SingularModel, fit_model, rank_of
from .oracle import (
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
from .posterior import Hyperparams
from .priors import BetaBinomialPrior, BinomialPrior, ComplexityPrior, MixturePrior
from .sampler import ChainConfig, InitSingular, median_probability_model, run_chain
from .simharness import preset_setting, run_setting

WORKERS_ENV = "EBSPARSE_WORKERS"
COMMANDS = ("fit", "simulate", "enumerate", "diagnose")
PRIOR_NAMES = ("complexity", "betabinom", "binom", "mixture")


class MalformedInput(Exception):
    """The input dataset violates the CSV format contract."""


@dataclass(frozen=True)
class RunConfig:
    """Validated, serializable description of one CLI run.

    sigma2 is either a positive float (known noise variance) or the
    string "estimate" for the lasso plug-in. Flag names alpha/gamma map
    to the library's power/ridge hyperparameters.
    """

    command: str
    alpha: float = 0.999
    gamma: float = 0.001
    sigma2: Union[float, str] = "estimate"
    prior: str = "complexity"
    a: float = 0.05
    c: float = 1.0
    iterations: int = 5000
    burn_in: Optional[int] = None
    seed: int = 0
    preset: Optional[int] = None
    reps: Optional[int] = None
    input: Optional[str] = None
    output: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.sigma2 != "estimate" and not isinstance(self.sigma2, (int, float)):
            raise ValueError('sigma2 must be positive or "estimate"')
        if self.prior not in PRIOR_NAMES:
            raise ValueError(f"prior must be one of {PRIOR_NAMES}")
        # The library objects range-check alpha, gamma, sigma2, a, c,
        # iterations and burn_in.
        self.hyperparams(1.0 if self.sigma2 == "estimate" else self.sigma2)
        self.prior_object()
        self.chain_config()
        if self.preset is not None and self.preset not in (1, 2, 3):
            raise ValueError("preset must be 1, 2 or 3")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def payload(self) -> dict:
        """The embedded-report form: every field that affects results."""
        out = asdict(self)
        out.pop("workers")
        out.pop("output")
        return out

    @classmethod
    def from_payload(cls, payload: dict, output: Optional[str] = None, workers: int = 1):
        return cls(**payload, output=output, workers=workers)

    def prior_object(self):
        base = ComplexityPrior(a=self.a, c=self.c)
        return {
            "complexity": base,
            "betabinom": BetaBinomialPrior(),
            "binom": BinomialPrior(),
            "mixture": MixturePrior(base=base, rate=1.0, anchor=()),
        }[self.prior]

    def hyperparams(self, noise: float) -> Hyperparams:
        return Hyperparams(power=self.alpha, ridge=self.gamma, noise=noise)

    def chain_config(self, seed: Optional[int] = None, init=None, max_size=None) -> ChainConfig:
        return ChainConfig(
            iterations=self.iterations,
            burn_in=self.burn_in,
            seed=self.seed if seed is None else seed,
            init=init,
            max_size=max_size,
        )


def read_csv_dataset(path: str):
    """Load a dataset: header row, response first, predictors after.

    Returns (predictor names, DesignMatrix, response). Raises
    MalformedInput on any format violation; missing values are a hard
    error.
    """
    if path is None:
        raise MalformedInput("an input CSV is required")
    if not os.path.exists(path):
        raise MalformedInput(f"input file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise MalformedInput("need a header row and at least one data row")
    header = rows[0]
    if len(header) < 2:
        raise MalformedInput("need a response column and at least one predictor")

    def numeric(token):
        try:
            float(token)
            return True
        except ValueError:
            return False

    if all(numeric(t) for t in header):
        raise MalformedInput("header row required; the first row is all numeric")
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise MalformedInput(f"row {i} has {len(row)} cells, expected {len(header)}")
        try:
            values.append([float(t) for t in row])
        except ValueError:
            raise MalformedInput(f"non-numeric cell in row {i}")
    data = np.array(values)
    if not np.isfinite(data).all():
        raise MalformedInput("missing or non-finite values are unsupported")
    return header[1:], DesignMatrix.from_array(data[:, 1:]), data[:, 0]


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, output: Optional[str]):
    text = _json_bytes(payload)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _resolve_noise(config: RunConfig, X: DesignMatrix, y: np.ndarray) -> float:
    if config.sigma2 == "estimate":
        return lasso.estimate_sigma2(X, y)
    return float(config.sigma2)


def cmd_fit(config: RunConfig) -> dict:
    """Run the model search on a CSV dataset and report the posterior."""
    names, X, y = read_csv_dataset(config.input)
    # One lasso fit gives both the chain's start and the noise estimate.
    start = lasso.cv_fit(X, y)
    if config.sigma2 == "estimate":
        noise = lasso.sigma2_from_fit(start, X.n)
    else:
        noise = float(config.sigma2)
    max_size = rank_of(X)
    init = lasso.model_from_fit(start, X, y, max_size)
    hyper = config.hyperparams(noise)
    prior = config.prior_object()
    chain = run_chain(X, y, prior, hyper, config.chain_config(init=init, max_size=max_size))
    selected = median_probability_model(chain.inclusion)
    beta_mean = fit_model(X, y, selected).beta_hat
    total = sum(chain.visit_counts.values())
    ranked = sorted(chain.visit_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    report = {
        "config": config.payload(),
        "seed": config.seed,
        "sigma2": float(noise),
        "acceptance_rate": float(chain.acceptance_rate),
        "inclusion": {name: float(v) for name, v in zip(names, chain.inclusion)},
        "selected_model": [names[j] for j in selected],
        "beta_mean": {names[j]: float(b) for j, b in zip(selected, beta_mean)},
        "top_models": [
            {"model": [names[j] for j in model], "probability": count / total}
            for model, count in ranked
        ],
    }
    _emit(report, config.output)
    if config.output is not None:
        stem, _ = os.path.splitext(config.output)
        with open(stem + "_trace.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "model_size"])
            writer.writerows(enumerate(chain.trace_sizes))
    return report


def cmd_enumerate(config: RunConfig) -> dict:
    """Dump the exact model posterior of a CSV dataset."""
    names, X, y = read_csv_dataset(config.input)
    noise = _resolve_noise(config, X, y)
    exact = enumerate_posterior(X, y, config.prior_object(), config.hyperparams(noise))
    ranked = sorted(exact.table.items(), key=lambda kv: (-kv[1], kv[0]))
    report = {
        "config": config.payload(),
        "sigma2": float(noise),
        "log_normalizer": float(exact.log_normalizer),
        "inclusion": {name: float(v) for name, v in zip(names, exact.inclusion)},
        "models": [
            {"model": [names[j] for j in model], "probability": float(prob)}
            for model, prob in ranked
        ],
    }
    _emit(report, config.output)
    return report


def cmd_simulate(config: RunConfig) -> dict:
    """Run one synthetic benchmark setting and emit its metrics row."""
    if config.preset is None:
        raise ValueError("simulate requires --preset")
    reps = config.reps if config.reps is not None else 200
    spec = preset_setting(config.preset, reps=reps, seed=config.seed)
    hyper = "estimate" if config.sigma2 == "estimate" else config.hyperparams(float(config.sigma2))
    cfg = config.chain_config(seed=0)

    def progress(done, total):
        print(f"setting {config.preset}: rep {done}/{total}", file=sys.stderr)

    metrics = run_setting(
        spec, cfg, hyper=hyper, prior=config.prior_object(),
        workers=config.workers, progress=progress,
    )
    stats = {
        "p_bar_0": metrics.p_bar_0,
        "p_bar_1": metrics.p_bar_1,
        "pr_exact": metrics.pr_exact,
        "pr_contain": metrics.pr_contain,
        "fdr": metrics.fdr,
        "failures": metrics.failures,
    }
    report = {"config": config.payload(), "setting": config.preset, "metrics": stats}
    _emit(report, config.output)
    print(f"wall time: {metrics.wall_time_s:.1f}s", file=sys.stderr)
    if config.output is not None:
        stem, _ = os.path.splitext(config.output)
        with open(stem + ".csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["setting", "p_bar_0", "p_bar_1", "pr_exact", "pr_contain", "fdr",
                      "failures", "wall_time_s"]
            writer.writerow(header)
            writer.writerow(
                [config.preset, metrics.p_bar_0, metrics.p_bar_1, metrics.pr_exact,
                 metrics.pr_contain, metrics.fdr, metrics.failures,
                 round(metrics.wall_time_s, 3)]
            )
    return report


def _diagnose_denominator(config: RunConfig, rng: np.random.Generator, reps: int) -> dict:
    passes = 0
    for _ in range(reps):
        X = DesignMatrix.from_array(rng.standard_normal((30, 8)))
        beta = np.zeros(8)
        size = int(rng.integers(0, 4))
        support = rng.choice(8, size=size, replace=False)
        beta[support] = rng.normal(0.0, 2.0, size=size)
        y = X.values @ beta + rng.standard_normal(30)
        hyper = Hyperparams(
            power=float(rng.uniform(0.5, 0.999)),
            ridge=float(rng.uniform(1e-3, 1.0)),
            noise=1.0,
        )
        chk = denominator_bound_check(X, y, beta, config.prior_object(), hyper)
        passes += int(chk.holds)
    constant = config.hyperparams(1.0).occam_per_variable
    return {"passes": passes, "total": reps, "constant": float(constant),
            "pass": passes == reps}


def _diagnose_sparse_singular(rng: np.random.Generator) -> dict:
    Q, _ = np.linalg.qr(rng.standard_normal((20, 8)))
    ortho = DesignMatrix.from_array(Q)
    ortho_vals = [min_sparse_singular_value(ortho, s) for s in range(1, 5)]
    col = rng.standard_normal(15)
    dup = DesignMatrix.from_array(np.column_stack([col, col, rng.standard_normal(15)]))
    dup_val = min_sparse_singular_value(dup, 2)
    X = DesignMatrix.from_array(rng.standard_normal((20, 10)))
    sweep = [min_sparse_singular_value(X, s) for s in range(1, 7)]
    monotone = all(a >= b - 1e-12 for a, b in zip(sweep, sweep[1:]))
    ok = (
        max(abs(v - 1.0) for v in ortho_vals) < 1e-10
        and dup_val == 0.0
        and monotone
    )
    return {
        "orthonormal_values": [float(v) for v in ortho_vals],
        "duplicate_value": float(dup_val),
        "sweep": [float(v) for v in sweep],
        "pass": bool(ok),
    }


def _diagnose_nested_chisq(rng: np.random.Generator, draws: int = 2000) -> dict:
    from scipy import stats

    X = DesignMatrix.from_array(rng.standard_normal((30, 6)))
    beta = np.zeros(6)
    beta[:2] = (1.5, -2.0)
    values = []
    for _ in range(draws):
        y = X.values @ beta + rng.standard_normal(30)
        values.append(nested_chisq_stat(X, y, (0, 1), (0, 1, 2, 3), 1.0))
    ks = float(stats.kstest(values, stats.chi2(df=2).cdf).statistic)
    critical = 1.628 / np.sqrt(draws)
    return {"ks_statistic": ks, "critical_1pct": float(critical), "draws": draws,
            "pass": bool(ks < critical)}


def _diagnose_rate_factor(config: RunConfig) -> dict:
    hyper = config.hyperparams(1.0)
    constants = RateConstants.from_hyperparams(hyper)
    prior = config.prior_object()
    ratios = []
    for s in range(1, 11):
        value = log_rate_factor(prior, 500, 100, s, constants)
        ratios.append(float(value / (s * np.log(500 / s))))
    cutoff = beta_min_cutoff(hyper, 1.0, 500, 1.1)
    ok = all(0.5 < r < 3.0 for r in ratios)
    return {
        "ratios": ratios,
        "beta_min_cutoff": float(cutoff),
        "decay_rate": float(constants.decay_rate),
        "prior_inflation": float(constants.prior_inflation),
        "pass": bool(ok),
    }


def _diagnose_concentration(config: RunConfig, rng: np.random.Generator) -> dict:
    X = DesignMatrix.from_array(rng.standard_normal((60, 20)))
    beta = np.zeros(20)
    beta[:2] = (2.0, 3.0)
    y = X.values @ beta + rng.standard_normal(60)
    hyper = config.hyperparams(1.0)
    chain = run_chain(
        X, y, config.prior_object(), hyper,
        ChainConfig(iterations=4000, seed=int(rng.integers(2**32)), max_size=10),
    )
    draws = sample_posterior_betas(X, y, chain, hyper, rng, max_draws=1000)
    masses = concentration_diagnostic(
        chain, draws, X, beta, eps=4.0 * 2 * np.log(20), delta=2.0, dim_cut=6
    )
    out = {k: float(v) for k, v in masses.items()}
    out["pass"] = bool(masses["mass_pred"] < 0.05 and masses["mass_dim"] < 0.05)
    return out


def cmd_diagnose(config: RunConfig) -> dict:
    """Run the seeded theory-check suite and report pass/fail blocks."""
    reps = config.reps if config.reps is not None else 100
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    blocks = {
        "denominator_bound": _diagnose_denominator(config, rng, reps),
        "sparse_singular": _diagnose_sparse_singular(rng),
        "nested_chisq": _diagnose_nested_chisq(rng),
        "rate_factor": _diagnose_rate_factor(config),
        "concentration": _diagnose_concentration(config, rng),
    }
    report = {
        "config": config.payload(),
        "checks": blocks,
        "all_pass": bool(all(b["pass"] for b in blocks.values())),
    }
    _emit(report, config.output)
    return report


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebsparse",
        description="Sparse-regression model posterior: fit, simulate, enumerate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Absent flags stay absent, so RunConfig's defaults are the only ones.
    def run_parser(name, summary, iterations=True):
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--alpha", type=float, help="fractional likelihood power in (0, 1)")
        sp.add_argument("--gamma", type=float, help="coefficient prior precision multiplier")
        noise = sp.add_mutually_exclusive_group()
        noise.add_argument("--sigma2", type=float, help="known noise variance")
        noise.add_argument("--estimate-sigma2", action="store_const", dest="sigma2",
                           const="estimate",
                           help="plug in the lasso residual variance (default)")
        sp.add_argument("--prior", choices=PRIOR_NAMES)
        sp.add_argument("--a", type=float, help="complexity prior exponent")
        sp.add_argument("--c", type=float, help="complexity prior base")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--workers", type=int,
                        help=f"worker processes (default ${WORKERS_ENV} or 1)")
        sp.add_argument("--output", help="JSON report path")
        if iterations:
            sp.add_argument("--iterations", type=int)
            sp.add_argument("--burn-in", type=int)
        return sp

    fit = run_parser("fit", "sample the model posterior of a CSV dataset")
    fit.add_argument("--input", required=True, help="CSV: header row, response first")
    sim = run_parser("simulate", "run a synthetic benchmark setting")
    sim.add_argument("--preset", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--reps", type=int, help="replications (default 200)")
    enum = run_parser("enumerate", "exact posterior over all models", iterations=False)
    enum.add_argument("--input", required=True, help="CSV: header row, response first")
    diag = run_parser("diagnose", "seeded theory-check suite", iterations=False)
    diag.add_argument("--reps", type=int, help="denominator-bound instances (default 100)")

    rerun = sub.add_parser("rerun", help="re-run the config embedded in a report")
    rerun.add_argument("report", help="JSON report from a previous run")
    rerun.add_argument("--output", default=None)
    rerun.add_argument("--workers", type=int, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = vars(args)
    if "workers" not in fields:
        fields["workers"] = _default_workers()
    return RunConfig(**fields)


def _load_rerun_config(args: argparse.Namespace) -> RunConfig:
    try:
        with open(args.report) as fh:
            payload = json.load(fh)["config"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise MalformedInput(f"cannot read embedded config: {exc}")
    if not isinstance(payload, dict):
        raise MalformedInput("embedded config is not a mapping")
    workers = args.workers if args.workers is not None else _default_workers()
    try:
        return RunConfig.from_payload(payload, output=args.output, workers=workers)
    except TypeError as exc:
        # Unknown or missing fields, or values of the wrong type.
        raise MalformedInput(f"invalid embedded config: {exc}")


DISPATCH = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "enumerate": cmd_enumerate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 2 validation, 3 numeric."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            config = _load_rerun_config(args)
        else:
            config = config_from_args(args)
        DISPATCH[config.command](config)
    except (MalformedInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        TooLarge,
        InitSingular,
        SingularModel,
        lasso.DegenerateFit,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

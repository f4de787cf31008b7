"""The measured process of one benchmark run.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. It
imports `ebsparse.cli` first, so that the parent can time interpreter
start plus that import, then runs whole rounds of one CLI command in
this process until the next round would end after the deadline.

    python3 child.py <spec.json>

The spec names the CLI argument list, the measuring time, whether to
trace, and where to write the result JSON.
"""

from __future__ import annotations

import time

import ebsparse.cli as cli

IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# denominator_bound_check calls whose log_lhs the benchmark recomputes.
DENOMINATOR_SAMPLES = 4


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Capture:
    """Hooks that keep what a traced round's checks need."""

    def __init__(self):
        self.cv_fits = []
        self.chains = []
        self.inits = []
        self.denominators = []

    def hooks(self) -> dict:
        return {
            "lasso.cv_fit": self.on_cv_fit,
            "lasso.initial_model": self.on_initial_model,
            "sampler.run_chain": self.on_run_chain,
            "oracle.denominator_bound_check": self.on_denominator,
        }

    def on_cv_fit(self, args, kwargs, fit):
        X, y = args[0], args[1]
        self.cv_fits.append((X.values, np.asarray(y, dtype=np.float64), fit.beta, fit.lam))

    def on_initial_model(self, args, kwargs, model):
        self.inits.append(tuple(model))

    def on_run_chain(self, args, kwargs, chain):
        cfg = args[4]
        # initial_model runs inside run_chain, so its result is already in.
        init = cfg.init if cfg.init is not None else self.inits[-1]
        self.chains.append((args[0].p, len(init), chain))

    def on_denominator(self, args, kwargs, result):
        if len(self.denominators) < DENOMINATOR_SAMPLES:
            X, y, beta, prior, hyper = args
            self.denominators.append((X.values, np.asarray(y), np.asarray(beta), prior, hyper,
                                      result.log_lhs))


def strip_iters(chain, init_size: int) -> int:
    """Iterations until the chain first has the size of its selected model."""
    target = int(np.count_nonzero(chain.inclusion > 0.5))
    if init_size == target:
        return 0
    hits = np.flatnonzero(chain.trace_sizes == target)
    return int(hits[0]) + 1 if hits.size else int(chain.trace_sizes.size)


def layer_metrics(tr: Tracer, cap: Capture) -> dict:
    iterations = sum(int(c.trace_sizes.size) for _, _, c in cap.chains)
    accepts = sum(round(c.acceptance_rate * c.trace_sizes.size) for _, _, c in cap.chains)
    chain_s = tr.total("sampler.run_chain") - tr.total("lasso.initial_model")
    cmd_self = sum(tr.self_time(name) for name in tr.agg if name.startswith("cli.cmd_"))
    singular = sum(tr.raised.get(name, {}).get("SingularModel", 0)
                   for name in ("linalg.extend_fit", "linalg.drop_fit"))
    return {
        "cli.read_csv_s": tr.total("cli.read_csv_dataset"),
        "cli.self_s": cmd_self,
        "lasso.cv_fit_calls": tr.calls("lasso.cv_fit"),
        "lasso.cv_fit_s": tr.total("lasso.cv_fit"),
        "lasso.select_lambda_s": tr.total("lasso.select_lambda"),
        "lasso.cd_lasso_s": tr.total("lasso.cd_lasso"),
        "sampler.iterations": iterations,
        "sampler.accepts": accepts,
        "sampler.accept_ratio": accepts / iterations if iterations else 0.0,
        "sampler.us_per_iter": 1e6 * chain_s / iterations if iterations else 0.0,
        "sampler.self_s": tr.self_time("sampler.run_chain"),
        "sampler.strip_iters": sum(strip_iters(c, k) for _, k, c in cap.chains),
        "linalg.extend_fit_calls": tr.calls("linalg.extend_fit"),
        "linalg.extend_fit_us": tr.mean_us("linalg.extend_fit"),
        "linalg.drop_fit_calls": tr.calls("linalg.drop_fit"),
        "linalg.drop_fit_us": tr.mean_us("linalg.drop_fit"),
        "linalg.singular_rejects": singular,
        "linalg.rank_of_s": tr.total("linalg.rank_of"),
        "linalg.fit_model_calls": tr.calls("linalg.fit_model"),
        "linalg.fit_model_us": tr.mean_us("linalg.fit_model"),
        "posterior.log_marginal_calls": tr.calls("posterior.log_marginal"),
        "posterior.log_marginal_us": tr.mean_us("posterior.log_marginal"),
        "priors.log_model_prior_us": tr.mean_us("priors.log_model_prior"),
        "oracle.denominator_bound_check_s": tr.total("oracle.denominator_bound_check"),
        "oracle.nested_chisq_stat_s": tr.total("oracle.nested_chisq_stat"),
        "oracle.min_sparse_singular_value_s": tr.total("oracle.min_sparse_singular_value"),
        "oracle.sample_posterior_betas_s": tr.total("oracle.sample_posterior_betas"),
        "oracle.models_scored": tr.in_oracle("linalg.fit_model"),
        "simharness.generate_s": (tr.total("simharness.generate_design")
                                  + tr.total("simharness.generate_response")),
        "simharness.evaluate_s": tr.total("simharness.evaluate_selection"),
        "simharness.reps": tr.calls("simharness.generate_design"),
    }


def traced_checks(cap: Capture) -> list:
    import checks

    problems = []
    for X, y, beta, lam in cap.cv_fits:
        problems += checks.check_kkt(X, y, beta, lam)
    for p, init_size, chain in cap.chains:
        accepts = round(chain.acceptance_rate * chain.trace_sizes.size)
        problems += checks.check_chain(chain.visit_counts, chain.inclusion, chain.trace_sizes,
                                       init_size, accepts, p)
    for X, y, beta, prior, hyper, log_lhs in cap.denominators:
        ref = checks.denominator_log_lhs(X, y, beta, hyper.power, hyper.ridge, hyper.noise,
                                         prior.a, prior.c)
        problems += checks.check_denominator(log_lhs, ref)
    return problems


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    argv, outputs = spec["argv"], spec["outputs"]
    if spec["trace"]:
        # Only a traced run loads the benchmark's own modules, so that an
        # untraced peak_rss_mb holds nothing but the program's memory.
        from tracer import Tracer
    deadline = time.perf_counter() + spec["seconds"]
    # Traced and untraced rounds alternate in a traced run. The traced one
    # goes first and so also carries the process's one-time costs (such
    # as lazy imports), so trace.overhead_s errs high; with few rounds the
    # machine's drift between rounds can outweigh that, even below zero.
    modes = [True, False] if spec["trace"] else [False]
    rounds, problems, layer = [], [], []
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            if traced:
                cap = Capture()
                tracer = Tracer(cap.hooks())
                with tracer:
                    start = time.perf_counter()
                    code = cli.main(argv)
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
            rounds.append({"traced": traced, "wall_s": wall, "code": code,
                           "digest": file_digest(outputs) if code == 0 else None})
            if traced:
                layer.append(layer_metrics(tracer, cap))
                problems += traced_checks(cap)
            if code != 0:
                break
        cycle = time.perf_counter() - cycle_start
        if code != 0 or time.perf_counter() + cycle > deadline:
            break
    result = {
        "imported_monotonic": IMPORTED,
        "rounds": rounds,
        "layer": layer,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

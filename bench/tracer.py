"""Out-of-program tracing of ebsparse's layers.

The tracer replaces a function by a timing wrapper at the place where the
calling module looks it up (for example `ebsparse.sampler.extend_fit`,
the name `run_chain`'s loop resolves), so no program file changes. While
installed it keeps, per traced name:

- calls, total time and self time (total minus the time of traced calls
  made inside it);
- exceptions raised through it, by type;
- calls made while an `oracle` function is on the stack.

Calls are only aggregated in memory, never kept one by one: the hot
names run about 10^5 times per round. Hooks receive `(args, kwargs, result)` after a call returns and let the
benchmark keep results it checks later, outside the timed code.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (lookup module, attribute, traced name). One traced name may be looked
# up in several modules; every site is patched.
SITES = [
    ("ebsparse.cli", "read_csv_dataset", "cli.read_csv_dataset"),
    ("ebsparse.lasso", "cv_fit", "lasso.cv_fit"),
    ("ebsparse.simharness", "cv_fit", "lasso.cv_fit"),
    ("ebsparse.lasso", "select_lambda", "lasso.select_lambda"),
    ("ebsparse.lasso", "cd_lasso", "lasso.cd_lasso"),
    ("ebsparse.sampler", "initial_model", "lasso.initial_model"),
    ("ebsparse.cli", "run_chain", "sampler.run_chain"),
    ("ebsparse.simharness", "run_chain", "sampler.run_chain"),
    ("ebsparse.sampler", "extend_fit", "linalg.extend_fit"),
    ("ebsparse.sampler", "drop_fit", "linalg.drop_fit"),
    ("ebsparse.sampler", "fit_model", "linalg.fit_model"),
    ("ebsparse.linalg", "fit_model", "linalg.fit_model"),
    ("ebsparse.lasso", "fit_model", "linalg.fit_model"),
    ("ebsparse.oracle", "fit_model", "linalg.fit_model"),
    ("ebsparse.cli", "fit_model", "linalg.fit_model"),
    ("ebsparse.sampler", "rank_of", "linalg.rank_of"),
    ("ebsparse.oracle", "rank_of", "linalg.rank_of"),
    ("ebsparse.sampler", "log_marginal", "posterior.log_marginal"),
    ("ebsparse.oracle", "log_marginal", "posterior.log_marginal"),
    ("ebsparse.posterior", "log_model_prior", "priors.log_model_prior"),
    ("ebsparse.oracle", "log_model_prior", "priors.log_model_prior"),
    ("ebsparse.cli", "denominator_bound_check", "oracle.denominator_bound_check"),
    ("ebsparse.cli", "nested_chisq_stat", "oracle.nested_chisq_stat"),
    ("ebsparse.cli", "min_sparse_singular_value", "oracle.min_sparse_singular_value"),
    ("ebsparse.cli", "sample_posterior_betas", "oracle.sample_posterior_betas"),
    ("ebsparse.simharness", "generate_design", "simharness.generate_design"),
    ("ebsparse.simharness", "generate_response", "simharness.generate_response"),
    ("ebsparse.simharness", "evaluate_selection", "simharness.evaluate_selection"),
]

CALLS, TOTAL, SELF, IN_ORACLE = range(4)


class Tracer:
    """Install with `with Tracer(hooks):`; read `agg` and `raised`."""

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.agg = {}
        self.raised = {}
        self._stack = []
        self._oracle_depth = [0]
        self._saved = []

    def __enter__(self):
        cli = importlib.import_module("ebsparse.cli")
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            self._patch(module.__dict__, attr, name)
        # main() dispatches through a dict built at import time.
        for command in list(cli.DISPATCH):
            self._patch(cli.DISPATCH, command, f"cli.cmd_{command}")
        return self

    def __exit__(self, *exc):
        for table, key, original in reversed(self._saved):
            table[key] = original
        self._saved.clear()
        return False

    def _patch(self, table: dict, key: str, name: str):
        original = table[key]
        self._saved.append((table, key, original))
        table[key] = self._wrap(original, name)

    def _wrap(self, fn, name: str):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        raised = self.raised.setdefault(name, Counter())
        stack, oracle_depth = self._stack, self._oracle_depth
        hook = self.hooks.get(name)
        is_oracle = name.startswith("oracle.")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if oracle_depth[0]:
                agg[IN_ORACLE] += 1
            if is_oracle:
                oracle_depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - start
                if is_oracle:
                    oracle_depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                agg[CALLS] += 1
                agg[TOTAL] += elapsed
                agg[SELF] += elapsed - frame[0]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0])[CALLS]

    def total(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0])[TOTAL]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[SELF]

    def mean_us(self, name: str) -> float:
        n = self.calls(name)
        return 1e6 * self.total(name) / n if n else 0.0

    def in_oracle(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0, 0])[IN_ORACLE]

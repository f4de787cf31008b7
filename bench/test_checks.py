"""Self-test of the benchmark's correctness checks.

Each check must pass on a genuine result of the program and reject a
deliberately corrupted copy of it. Run from the root of a checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from ebsparse import cli  # noqa: E402
from ebsparse.lasso import cv_fit  # noqa: E402
from ebsparse.linalg import DesignMatrix  # noqa: E402
from ebsparse.oracle import denominator_bound_check  # noqa: E402
from ebsparse.posterior import Hyperparams  # noqa: E402
from ebsparse.priors import ComplexityPrior  # noqa: E402
from ebsparse.sampler import ChainConfig, run_chain  # noqa: E402


def run_cli(argv, report):
    assert cli.main(argv + ["--output", str(report), "--workers", "1"]) == 0
    with open(report) as fh:
        return json.load(fh)


def test_simulate_check_rejects_bad_metrics():
    good = {"metrics": {"failures": 0, "p_bar_1": 0.95, "p_bar_0": 0.004, "fdr": 0.05}}
    assert checks.check_simulate(good) == []
    for key, value in (("failures", 1), ("p_bar_1", 0.55), ("p_bar_0", 0.2),
                       ("fdr", 0.6), ("p_bar_1", float("nan"))):
        bad = copy.deepcopy(good)
        bad["metrics"][key] = value
        assert checks.check_simulate(bad), key


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("fit")
    X, y = inputs.fit_dataset(seed=4, n=80, p=30)
    data = work / "data.csv"
    inputs.write_csv(str(data), X, y)
    iterations = 3000
    report = run_cli(["fit", "--input", str(data), "--iterations", str(iterations)],
                     work / "report.json")
    with open(work / "report_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    names, Xr, yr = inputs.read_csv(str(data))
    return report, rows, names, Xr, yr, iterations


def fit_problems(report, rows, names, X, y, iterations):
    return checks.check_fit(report, rows, names, X, y, iterations, ["x3", "x4", "x5"], 1.0)


def test_fit_check_passes_on_program_output(fit_run):
    assert fit_problems(*fit_run) == []


def test_fit_check_rejects_perturbed_beta(fit_run):
    report, *rest = fit_run
    bad = copy.deepcopy(report)
    name = bad["selected_model"][0]
    bad["beta_mean"][name] *= 1.0 + 1e-6
    assert fit_problems(bad, *rest)


def test_fit_check_rejects_dropped_trace_row(fit_run):
    report, rows, *rest = fit_run
    assert fit_problems(report, rows[:-1], *rest)
    assert fit_problems(report, rows[:100] + rows[101:] + [rows[-1]], *rest)


def test_fit_check_rejects_shifted_inclusion(fit_run):
    report, *rest = fit_run
    bad = copy.deepcopy(report)
    bad["inclusion"]["x10"] += 0.01
    assert fit_problems(bad, *rest)


def test_fit_check_rejects_missed_column_and_bad_sigma2(fit_run):
    report, *rest = fit_run
    bad = copy.deepcopy(report)
    bad["selected_model"].remove("x4")
    del bad["beta_mean"]["x4"]
    assert fit_problems(bad, *rest)
    bad = copy.deepcopy(report)
    bad["sigma2"] = 2.5
    assert fit_problems(bad, *rest)


def test_diagnose_check(tmp_path):
    report = run_cli(["diagnose", "--reps", "3", "--seed", "0"], tmp_path / "d.json")
    assert checks.check_diagnose(report) == []
    corruptions = [
        ("denominator_bound", "pass", False),
        ("rate_factor", "pass", False),
        ("nested_chisq", "ks_statistic", 0.2),
        ("concentration", "mass_dim", 0.3),
        ("concentration", "mass_l2", 0.3),
    ]
    for block, key, value in corruptions:
        bad = copy.deepcopy(report)
        bad["checks"][block][key] = value
        assert checks.check_diagnose(bad), (block, key)
    bad = copy.deepcopy(report)
    bad["checks"]["sparse_singular"]["orthonormal_values"][1] += 1e-9
    assert checks.check_diagnose(bad)


def small_problem(seed=0, n=40, p=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:3] = (2.0, -1.5, 1.0)
    return X, beta, X @ beta + rng.standard_normal(n)


def test_kkt_check():
    X, _, y = small_problem()
    fit = cv_fit(DesignMatrix.from_array(X), y)
    assert checks.check_kkt(X, y, fit.beta, fit.lam) == []
    bad = fit.beta.copy()
    bad[np.flatnonzero(bad)[0]] *= 1.01
    assert checks.check_kkt(X, y, bad, fit.lam)
    assert checks.check_kkt(X, y, fit.beta, fit.lam * 1.01)


def test_chain_check():
    X, _, y = small_problem()
    init = (0, 1, 5, 7)
    chain = run_chain(DesignMatrix.from_array(X), y, ComplexityPrior(), Hyperparams(),
                      ChainConfig(iterations=2000, seed=3, init=init))
    accepts = round(chain.acceptance_rate * 2000)
    assert accepts > 0
    args = (chain.visit_counts, chain.inclusion, chain.trace_sizes, len(init), accepts, X.shape[1])
    assert checks.check_chain(*args) == []
    assert checks.check_chain(chain.visit_counts, np.roll(chain.inclusion, 1), *args[2:])
    assert checks.check_chain(*args[:4], accepts + 1, X.shape[1])
    assert checks.check_chain(*args[:3], len(init) + 1, *args[4:])


def test_denominator_check():
    X, beta, y = small_problem(seed=1, n=30, p=6)
    prior, hyper = ComplexityPrior(), Hyperparams(power=0.8, ridge=0.3)
    got = denominator_bound_check(DesignMatrix.from_array(X), y, beta, prior, hyper).log_lhs
    ref = checks.denominator_log_lhs(X, y, beta, hyper.power, hyper.ridge, hyper.noise,
                                     prior.a, prior.c)
    assert checks.check_denominator(got, ref) == []
    assert checks.check_denominator(got + 1e-6 * max(1.0, abs(ref)), ref)

"""Seeded input generator for the `fit-p1000` workload.

The dataset follows the preset-2 layout of the paper's second simulation
setting, drawn here with the benchmark's own numpy code so that the
program under test receives only a CSV file:

    n = 200 rows, p = 1000 predictors, rows iid N(0, (1 - rho) I + rho 11^T)
    with rho = 0.25, y = X beta + N(0, 1), beta = (0.6, 1.2, 1.8, 2.4, 3.0)
    on the first five columns and zero elsewhere.

Values are written with 17 significant digits, so the file parses back
to exactly the arrays the generator drew.
"""

from __future__ import annotations

import numpy as np

N_ROWS = 200
N_COLS = 1000
RHO = 0.25
STAIRCASE = (0.6, 1.2, 1.8, 2.4, 3.0)
SIGMA2 = 1.0


def column_names(p: int = N_COLS) -> list:
    return [f"x{j + 1}" for j in range(p)]


def true_beta(p: int = N_COLS) -> np.ndarray:
    beta = np.zeros(p)
    beta[: len(STAIRCASE)] = STAIRCASE
    return beta


def fit_dataset(seed: int, n: int = N_ROWS, p: int = N_COLS):
    """(X, y) drawn from `seed`; the same seed gives the same arrays."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    shared = rng.standard_normal((n, 1))
    own = rng.standard_normal((n, p))
    X = np.sqrt(RHO) * shared + np.sqrt(1.0 - RHO) * own
    y = X @ true_beta(p) + np.sqrt(SIGMA2) * rng.standard_normal(n)
    return X, y


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Header row `y,x1,...,xp`, then one row per observation."""
    header = ",".join(["y"] + column_names(X.shape[1]))
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def read_csv(path: str):
    """(names, X, y) read back with numpy, apart from the program's reader."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")[1:]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return names, data[:, 1:], data[:, 0]

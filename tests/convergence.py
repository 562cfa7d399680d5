"""Geometric convergence fits of the closed forms, for the tests.

Every quantity below approaches its limit by a factor |z|^2 per step;
`convergence_study` fits that factor from the gaps and reports it next
to the exact |z|^2.
"""

from typing import NamedTuple

import numpy as np

from richain import dynamics
from richain.kernel import step_scalars
from richain.quasifree import occupation, occupation_entropy

QUANTITIES = (
    "beta_star_gap",
    "beta_star_star_gap",
    "relative_entropy_gap",
    "window_entropy_gap",
)


class Study(NamedTuple):
    gaps: list
    fitted_ratio: float
    reference_ratio: float


def _n_gap(beta, n_bg):
    return abs(occupation(beta) - n_bg)


def convergence_study(params, quantity, horizon, window_n=2):
    """Gaps of a named quantity over its steps up to `horizon`, plus the
    ratio of a log-linear fit over the positive gaps (nan if fewer than two)."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; registered: {QUANTITIES}")
    if not 2 <= horizon <= params.N:
        raise ValueError(f"horizon must lie in 2..N={params.N}, got {horizon}")

    n_bg = occupation(params.beta)
    if quantity == "beta_star_gap":
        indices = list(range(0, horizon + 1))
        values = [dynamics.effective_beta_S(params, m) for m in indices]
        gaps = [_n_gap(b, n_bg) for b in values]
    elif quantity == "beta_star_star_gap":
        indices = list(range(1, horizon + 1))
        values = [dynamics.effective_beta_Sm(params, m) for m in indices]
        gaps = [_n_gap(b, n_bg) for b in values]
    elif quantity == "relative_entropy_gap":
        limit = dynamics.entropy_production_limit(params)
        indices = list(range(0, horizon + 1))
        values = [dynamics.relative_entropy(params, m) for m in indices]
        gaps = [limit - v for v in values]
    else:
        limit = (window_n + 1) * occupation_entropy(n_bg)
        indices = list(range(window_n, horizon + 1))
        values = [dynamics.window_entropy(params, window_n, k) for k in indices]
        gaps = [abs(v - limit) for v in values]

    positive = [(i, g) for i, g in zip(indices, gaps) if g > 0.0]
    if len(positive) >= 2:
        xs = np.array([i for i, _ in positive], dtype=float)
        ys = np.log([g for _, g in positive])
        fitted = float(np.exp(np.polyfit(xs, ys, 1)[0]))
    else:
        fitted = float("nan")
    return Study(gaps, fitted, abs(step_scalars(params).z) ** 2)

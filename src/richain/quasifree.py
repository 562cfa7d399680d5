"""Gauge-invariant quasi-free states with a single rank-one correction.

Every state this library ever produces (initial two-temperature product,
evolved, reduced) has a characteristic function of the form

    omega(W(zeta)) = exp[-(x <zeta,zeta> + x0 |<xi,zeta>|^2) / 4]

over M modes, i.e. a thermal background with covariance scalar x plus a
rank-one perturbation of weight x0 along the direction xi.  The scalar
x = (1+exp(-beta))/(1-exp(-beta)) = 2*n_beta + 1 parameterizes a thermal
mode; x = 1 is the vacuum.  Inner products are conjugate-linear in the
first argument (numpy.vdot convention).

Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankOneQuasiFreeState",
    "gibbs_x",
    "sigma",
    "mode_entropy",
    "occupation",
    "char_fn",
    "state_entropy",
]

_ADMISSIBILITY_SLACK = 1e-12
_LN2 = math.log(2.0)
# past this beta, s(beta) = (beta + 1) e^-beta to within e^-beta relative,
# and e^-beta nears the subnormal range
_DEEP_BETA = 700.0
_EXP_MINUS_DEEP_BETA = math.exp(-_DEEP_BETA)


def gibbs_x(beta: float) -> float:
    """Covariance scalar x(beta) = (1+e^-beta)/(1-e^-beta) of a thermal mode."""
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    if math.isinf(beta):
        return 1.0
    q = math.exp(-beta)
    return (1.0 + q) / (1.0 - q)


def sigma(x: float) -> float:
    """Entropy of one thermal mode as a function of its covariance scalar.

    sigma(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2), with the
    continuous extension sigma(1) = 0 (0*ln 0 := 0).  Strictly increasing
    on (1, inf).
    """
    if x < 1.0:
        raise ValueError(f"inadmissible covariance scalar x = {x!r} < 1")
    if x == 1.0:
        return 0.0
    p = (x + 1.0) / 2.0
    q = (x - 1.0) / 2.0
    return p * math.log(p) - q * math.log(q)


def mode_entropy(beta: float) -> float:
    """Entropy s(beta) = beta/(e^beta - 1) - ln(1 - e^-beta) of one thermal mode."""
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    if math.isinf(beta):
        return 0.0
    if beta > _DEEP_BETA:
        # e^-beta as e^-(beta - 700) e^-700, with beta - 700 exact: every
        # factor is a normal float, so only the last product can round into
        # the subnormal range
        return (beta + 1.0) * math.exp(_DEEP_BETA - beta) * _EXP_MINUS_DEEP_BETA
    q = math.exp(-beta)
    # 1 - q as -expm1(-beta), exact at small beta; its log from 1 - q up to
    # beta = ln 2 and from q beyond, where log1p(-q) is the exact form
    one_minus_q = -math.expm1(-beta)
    log_one_minus_q = math.log(one_minus_q) if beta <= _LN2 else math.log1p(-q)
    return beta * q / one_minus_q - log_one_minus_q


def occupation(beta: float) -> float:
    """Mean quanta n_beta = 1/(e^beta - 1) of a thermal mode."""
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    if math.isinf(beta):
        return 0.0
    q = math.exp(-beta)
    return q / (1.0 - q)


@dataclass(frozen=True)
class RankOneQuasiFreeState:
    """Background covariance x on `modes` modes, corrected by weight x0 along xi."""

    modes: int
    x: float
    x0: float
    xi: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.modes, (int, np.integer)) and self.modes >= 1):
            raise ValueError(f"modes must be a positive integer, got {self.modes!r}")
        xi = np.asarray(self.xi, dtype=complex)
        object.__setattr__(self, "xi", xi)
        if xi.shape != (self.modes,):
            raise ValueError(
                f"xi must have length modes = {self.modes}, got shape {xi.shape}"
            )
        if self.x < 1.0 - _ADMISSIBILITY_SLACK:
            raise ValueError(f"background covariance x = {self.x!r} < 1")
        if self.corrected_x < 1.0 - _ADMISSIBILITY_SLACK:
            raise ValueError(
                "inadmissible correction: x + x0*<xi,xi> = "
                f"{self.corrected_x!r} < 1"
            )

    @property
    def xi_norm_sq(self) -> float:
        return float(np.vdot(self.xi, self.xi).real)

    @property
    def corrected_x(self) -> float:
        """Covariance scalar along the corrected direction, x + x0*<xi,xi>."""
        return self.x + self.x0 * self.xi_norm_sq


def char_fn(state: RankOneQuasiFreeState, zeta: np.ndarray) -> float:
    """Characteristic function value at zeta; real and in (0, 1]."""
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (state.modes,):
        raise ValueError(
            f"zeta must have length modes = {state.modes}, got shape {zeta.shape}"
        )
    norm_sq = np.vdot(zeta, zeta).real
    overlap = np.vdot(state.xi, zeta)
    return math.exp(-0.25 * (state.x * norm_sq + state.x0 * abs(overlap) ** 2))


def state_entropy(state: RankOneQuasiFreeState) -> float:
    """Entropy (M-1)*sigma(x) + sigma(x + x0*<xi,xi>) of M modes."""
    return (state.modes - 1) * sigma(state.x) + sigma(max(state.corrected_x, 1.0))

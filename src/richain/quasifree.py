"""Gauge-invariant quasi-free states with a single rank-one correction.

Every state this library ever produces (initial two-temperature product,
evolved, reduced) has a characteristic function of the form

    omega(W(zeta)) = exp[-((2n+1) (<zeta,zeta> - |<xi,zeta>|^2)
                           + (2 n_xi + 1) |<xi,zeta>|^2) / 4]

over M modes: a thermal background with mean occupation n per mode, in
which the share <xi,xi> of the direction xi holds n_xi quanta instead.
A thermal mode at inverse temperature beta has n = 1/(e^beta - 1); n = 0
is the vacuum.  Inner products are conjugate-linear in the first
argument (numpy.vdot convention).  Both occupations are stored as they
are, and `char_fn` subtracts neither from the other.

Entropies are in nats throughout.  A state's entropy is (M-1) s(n) +
s(n (1 - <xi,xi>) + n_xi <xi,xi>) with s = `occupation_entropy`;
`dynamics` forms the ones it needs in closed form, from n(beta0) and
n(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankOneQuasiFreeState",
    "mode_entropy",
    "occupation",
    "occupation_entropy",
    "char_fn",
]

_ADMISSIBILITY_SLACK = 1e-12
_LN2 = math.log(2.0)
# past this beta, s(beta) = (beta + 1) e^-beta to within e^-beta relative,
# and e^-beta nears the subnormal range
_DEEP_BETA = 700.0
_EXP_MINUS_DEEP_BETA = math.exp(-_DEEP_BETA)


def mode_entropy(beta: float) -> float:
    """Entropy s(beta) = beta/(e^beta - 1) - ln(1 - e^-beta) of one thermal mode.

    Full precision up to about beta = 751.8; from there the value is below
    the smallest subnormal float and this returns 0.
    """
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
    """Mean quanta n_beta = 1/(e^beta - 1) of a thermal mode; 0 at beta = +inf.

    n is subnormal, with fewer significant bits, from about beta = 708, and
    underflows to 0 from about beta = 745.1.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    # e^-beta / (1 - e^-beta), with 1 - e^-beta as -expm1(-beta), exact at
    # small beta
    return math.exp(-beta) / -math.expm1(-beta)


def occupation_entropy(n: float) -> float:
    """Entropy (n+1) ln(n+1) - n ln(n) of a thermal mode with mean occupation n.

    The two terms nearly cancel at large n, so there it is written as
    ln(1+n) + n ln(1+1/n); s(0) = 0 (0*ln 0 := 0).  Strictly increasing.
    """
    if not (n >= 0.0):
        raise ValueError(f"inadmissible occupation n = {n!r} < 0")
    if n == 0.0:
        return 0.0
    if n <= 1.0:
        return (n + 1.0) * math.log1p(n) - n * math.log(n)
    return math.log1p(n) + n * math.log1p(1.0 / n)


@dataclass(frozen=True)
class RankOneQuasiFreeState:
    """Occupation n on `modes` modes, but n_xi on the share <xi,xi> of xi."""

    modes: int
    n: float
    n_xi: float
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
        if self.n < -_ADMISSIBILITY_SLACK:
            raise ValueError(f"background occupation n = {self.n!r} < 0")
        along_xi = self.n + (self.n_xi - self.n) * self.xi_norm_sq
        if along_xi < -_ADMISSIBILITY_SLACK:
            raise ValueError(
                f"inadmissible correction: n + (n_xi - n)*<xi,xi> = {along_xi!r} < 0"
            )

    @property
    def xi_norm_sq(self) -> float:
        return float(np.vdot(self.xi, self.xi).real)


def char_fn(state: RankOneQuasiFreeState, zeta: np.ndarray) -> float:
    """Characteristic function value at zeta; real and in (0, 1].

    The exponent's two terms, off xi and along it, are each nonnegative
    for <xi,xi> <= 1, so no occupation is subtracted from another.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (state.modes,):
        raise ValueError(
            f"zeta must have length modes = {state.modes}, got shape {zeta.shape}"
        )
    norm_sq = np.vdot(zeta, zeta).real
    overlap_sq = abs(np.vdot(state.xi, zeta)) ** 2
    x, x_xi = 2.0 * state.n + 1.0, 2.0 * state.n_xi + 1.0
    return math.exp(-0.25 * (x * (norm_sq - overlap_sq) + x_xi * overlap_sq))

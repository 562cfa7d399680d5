"""Closed-form dynamics of the two-temperature chain model.

The initial state is a product of one thermal mode at beta0 (the
distinguished mode) and N chain modes at beta.  Interaction steps act on
characteristic-function arguments by the one-step matrices of `kernel`,
so the state never leaves the rank-one corrected quasi-free family: the
only moving part is the coefficient vector xi_m picked up by the
distinguished component.  Reduced states, effective temperatures and
entropies all read off that vector.

A subsystem is a list of full-chain slots (0 for the distinguished mode,
j for chain mode j), and its reduced state keeps the same rank-one form
with xi_m restricted to those slots, so it costs O(|slots|) and never
builds the full (N+1)-vector.  `subsystem_slots` lists the slots of the
subsystems the paper names.  beta*, beta**, the window entropy and the
entropy production combine n(beta0) and n(beta) only through `_mix` and
`_production_prefactor`, which never subtract one from the other: that
cancels for a cold S, near a full swap and at nearly equal temperatures.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .kernel import ModelParams, as_integer, step_scalars
from .quasifree import (
    RankOneQuasiFreeState,
    char_fn,
    mode_entropy,
    occupation,
    occupation_entropy,
)

__all__ = [
    "subsystem_slots",
    "reduced_state",
    "evolve_state",
    "reduced_char_fn",
    "effective_beta_S",
    "effective_beta_Sm",
    "total_entropy",
    "relative_entropy",
    "entropy_production_limit",
    "window_overlap_norm_sq",
    "window_entropy",
]

_NORM_TOL = 1e-12
_SUBSYSTEM_KINDS = ("S", "S1", "Sm", "S_plus_Sm", "Smn_plus_Sm", "window")


def subsystem_slots(kind: str, m: int, n: int | None = None) -> list[int]:
    """Full-chain slots of a subsystem the paper names, at step m, in local order.

    kind "S" is the distinguished mode; "S1" and "Sm" are single chain
    modes 1 and m; "S_plus_Sm" pairs the distinguished mode with mode m;
    "Smn_plus_Sm" pairs modes m-n and m, in that order; "window" is the
    distinguished mode plus the n most recently hit chain modes, oldest
    first (modes m-n+1 ... m).
    """
    if kind not in _SUBSYSTEM_KINDS:
        raise ValueError(f"unknown selector kind {kind!r}")
    m, n = as_integer(m, "m"), None if n is None else as_integer(n, "n")
    if kind == "window":
        if n is None or not 0 <= n <= m:
            raise ValueError(f"window requires 0 <= n <= m, got n={n}, m={m}")
        return [0, *range(m - n + 1, m + 1)]
    if kind == "Smn_plus_Sm":
        if n is None or not 1 < m - n < m:
            raise ValueError(f"Smn_plus_Sm requires 1 < m-n < m, got n={n}, m={m}")
        return [m - n, m]
    if n is not None:
        raise ValueError(f"selector {kind} takes no n index")
    floor = 0 if kind == "S" else 1
    if m < floor:
        raise ValueError(f"selector {kind} requires m >= {floor}")
    return {"S": [0], "S1": [1], "Sm": [m], "S_plus_Sm": [0, m]}[kind]


def _check_steps(params: ModelParams, m: int, first: int = 0) -> int:
    m = as_integer(m, "steps m")
    if not first <= m <= params.N:
        raise ValueError(f"steps m must lie in {first}..{params.N}, got {m}")
    return m


def _slot_list(slots, N: int) -> list[int]:
    """`slots` as a list of ints in 0..N, distinct, or ValueError.

    Anything but a nonempty one-dimensional sequence of integers is
    refused, bools and integral floats included.  A list, tuple or range of
    plain ints, the common case, needs no numpy shape probe.
    """
    plain = type(slots) in (list, tuple, range) and all(type(v) is int for v in slots)
    values = list(slots) if plain or np.ndim(slots) == 1 else []
    if not values:
        raise ValueError("slots must be a nonempty list of slot indices")
    if not plain:
        for v in values:
            # bool is an int subclass, and a cast to int would truncate 1.7 to 1
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"slots must be integers, got {v!r}")
        values = [int(v) for v in values]
    if min(values) < 0 or max(values) > N:
        raise ValueError(f"slots must lie in 0..{N}, got {values}")
    if len(set(values)) != len(values):
        raise ValueError(f"slots must be distinct, got {values}")
    return values


def reduced_state(params: ModelParams, m: int, slots) -> RankOneQuasiFreeState:
    """Reduced state on the given full-chain slots after m steps, in the order given.

    It is the rank-one form with xi_m restricted to the slots.  xi_m is
    the conjugate of the first row of U_1...U_m: conj(phase (gz)^m) at
    slot 0, conj(phase g w (gz)^(j-1)) at slots 1 <= j <= m and 0 on the
    slots beyond m that no step has touched yet, with phase
    exp(i m tau eps).  `slots` is a nonempty list, tuple, range or 1-D
    array of distinct integers in 0..N.  Costs O(len(slots)): the slots
    are checked in Python, and numpy forms only the coefficients.
    """
    m = _check_steps(params, m)
    slots = _slot_list(slots, params.N)
    s = step_scalars(params)
    # the products run on the same array shapes as ever: numpy rounds an
    # in-place product of one element unlike that of several, and the
    # coefficients keep their bits
    coeff = s.gz_power([j - 1 if j else m for j in slots])
    dead = [i for i, j in enumerate(slots) if j > m]  # slots no step has touched
    if dead:
        coeff[dead] = 0.0
    chain = [i for i, j in enumerate(slots) if 0 < j <= m]
    if chain:
        coeff[chain] *= s.g * s.w
    coeff *= cmath.exp(1j * m * params.tau * params.eps)
    n = occupation(params.beta)
    return RankOneQuasiFreeState(
        modes=len(slots), n=n, n0=occupation(params.beta0) - n, xi=np.conj(coeff)
    )


def evolve_state(params: ModelParams, m: int) -> RankOneQuasiFreeState:
    """State of all N+1 modes after the first m interaction steps, in closed form.

    The characteristic function is exp[-(1/4)((2n(beta)+1)<zeta,zeta> +
    2(n(beta0)-n(beta))|(U_1...U_m zeta)_0|^2)]; m = 0 gives back the
    initial product.  Builds the full (N+1)-vector and checks that it
    stays a unit vector; marginals need only `reduced_state` on their
    own slots.
    """
    state = reduced_state(params, m, range(params.N + 1))
    norm = state.xi_norm_sq
    if abs(norm - 1.0) > _NORM_TOL * max(1.0, math.sqrt(m)):
        raise ValueError(f"xi_m must stay a unit vector, got <xi,xi> = {norm!r} at m = {m}")
    return state


def reduced_char_fn(params: ModelParams, m: int, slots, alphas) -> complex:
    """Characteristic function of the reduced state on `slots` after m steps.

    `alphas` holds one argument per slot, in the order of `slots`; the
    marginal is evaluated there directly, in O(len(slots)) and without
    building the full chain.
    """
    alphas = np.array(alphas, dtype=complex, ndmin=1)
    return complex(char_fn(reduced_state(params, m, slots), alphas))


def _beta_from_occupation(n: float) -> float:
    """Inverse of the mean occupation n = 1/(e^beta - 1); n = 0 maps to +inf."""
    if n == 0.0:
        return math.inf
    if n < sys.float_info.min:
        # 1/n overflows for a subnormal n (beta above about 708)
        return math.log1p(n) - math.log(n)
    return math.log1p(1.0 / n)


def _mix(params: ModelParams, share: float, rest: float) -> float:
    """share n(beta0) + rest n(beta): share + rest = 1, but neither is formed as 1 - the other."""
    return share * occupation(params.beta0) + rest * occupation(params.beta)


def _production_prefactor(params: ModelParams) -> float:
    """(beta0 - beta)(n(beta) - n(beta0)) for finite betas.  Within |beta0 - beta|
    <= 1 the difference is expm1(beta0 - beta) n(beta0) / (1 - e^-beta); beyond,
    the occupations differ by a factor above e, and expm1 could overflow."""
    d = params.beta0 - params.beta
    if abs(d) <= 1.0:
        return d * math.expm1(d) * occupation(params.beta0) / -math.expm1(-params.beta)
    return d * (occupation(params.beta) - occupation(params.beta0))


def effective_beta_S(params: ModelParams, m: int) -> float:
    """Inverse temperature beta* of S after m steps.

    Its mean occupation is the mix n* = |z|^2m n(beta0) + (1-|z|^2m) n(beta),
    which stays finite for a cold S, where n(beta0) is tiny.  Both weights
    come from `StepScalars.zsq_power` and `zsq_complement`, so they keep
    full precision at m = 1e6 and beyond.  Once n* underflows to 0 (both
    betas from about 745.1), beta* is +inf.
    """
    m = _check_steps(params, m)
    s = step_scalars(params)
    return _beta_from_occupation(_mix(params, s.zsq_power(m), s.zsq_complement(m)))


def effective_beta_Sm(params: ModelParams, m: int) -> float:
    """Inverse temperature beta** of chain mode m after its interaction step.

    n(beta**) mixes n(beta0) with share |w|^2 |z|^(2(m-1)) into n(beta);
    equivalently it is the |w|^2-mix of n(beta*((m-1)tau)) and n(beta).  The
    rest |z|^2 + |w|^2 (1 - |z|^(2(m-1))) keeps full precision near a full swap.
    """
    m = _check_steps(params, m, first=1)
    s = step_scalars(params)
    wsq = abs(s.w) ** 2
    rest = abs(s.z) ** 2 + wsq * s.zsq_complement(m - 1)
    return _beta_from_occupation(_mix(params, wsq * s.zsq_power(m - 1), rest))


def total_entropy(params: ModelParams, m: int) -> float:
    """Entropy of the full (N+1)-mode state after m steps.

    The steps are unitary, so this is the initial N s(beta) + s(beta0)
    at every m in 0..N, in O(1).
    """
    _check_steps(params, m)
    return params.N * mode_entropy(params.beta) + mode_entropy(params.beta0)


def relative_entropy(params: ModelParams, n_steps: int) -> float:
    """Entropy production Ent(rho(N tau)|rho) after n_steps interactions.

    Closed form: (beta0-beta)(n_beta - n_beta0) (1 - |z|^(2 n_steps)),
    with the prefactor of `entropy_production_limit`.
    """
    n_steps = _check_steps(params, n_steps)
    if math.isinf(params.beta0) or math.isinf(params.beta):
        raise ValueError("relative entropy needs finite beta0 and beta")
    return _production_prefactor(params) * step_scalars(params).zsq_complement(n_steps)


def entropy_production_limit(params: ModelParams) -> float:
    """Asymptotic entropy production (beta0-beta)(n_beta - n_beta0) as steps grow."""
    if math.isinf(params.beta0) or math.isinf(params.beta):
        raise ValueError("entropy production limit needs finite beta0 and beta")
    if not step_scalars(params).contracting:
        raise ValueError("no convergence: |z| must be strictly below 1")
    return _production_prefactor(params)


def window_overlap_norm_sq(params: ModelParams, n: int, k: int) -> float:
    """Closed form of <xi_{n,k}, xi_{n,k}> for the window state.

    |z|^2k + |w|^2 |z|^(2(k-n)) (1-|z|^2n)/(1-|z|^2), the geometric sum
    from `StepScalars.zsq_geometric`.
    """
    n, k = as_integer(n, "window n"), as_integer(k, "window k")
    if not 0 <= n <= k <= params.N:
        raise ValueError(f"window needs 0 <= n <= k <= N, got n={n}, k={k}, N={params.N}")
    s = step_scalars(params)
    return s.zsq_power(k) + abs(s.w) ** 2 * s.zsq_power(k - n) * s.zsq_geometric(n)


def window_entropy(params: ModelParams, n: int, k: int) -> float:
    """Entropy of the window of S and its n latest chain partners after k steps.

    With s the one-mode entropy of a mean occupation, it is n s(n_beta) +
    s(<xi,xi> n_beta0 + (1 - <xi,xi>) n_beta) in O(1), <xi,xi> being
    `window_overlap_norm_sq` and 1 - <xi,xi> the weight |w|^2 sum_{j<k-n} |z|^2j
    of the slots 1..k-n the window misses.  As k grows at fixed n this tends
    to (n+1) s(n_beta), the entropy of an n+1-mode thermal block at beta.
    """
    s = step_scalars(params)
    mix = _mix(params, window_overlap_norm_sq(params, n, k), abs(s.w) ** 2 * s.zsq_geometric(k - n))
    return n * occupation_entropy(occupation(params.beta)) + occupation_entropy(mix)

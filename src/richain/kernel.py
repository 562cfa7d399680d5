"""Closed-form one-step and multi-step propagator algebra.

A single oscillator mode S (energy E) interacts with a chain of N fresh
oscillator modes, one per time slice of length tau.  During step n the
bilinear coupling eta*(b0* bn + bn* b0) is active and everything else
evolves freely.  Each step acts on the one-particle space C^(N+1) as a
unitary that mixes only slots 0 and n; the whole algebra of the model
reduces to three scalars per step:

    g(t) = exp(i t (E - eps) / 2)
    w(t) = (2 i eta / r) * sin(t * sqrt((E - eps)^2 / 4 + eta^2))
    z(t) = cos(t * sqrt(...)) + (i (E - eps) / r) * sin(t * sqrt(...))

with r = sqrt((E - eps)^2 + 4 eta^2).  They satisfy |g| = 1,
|z|^2 + |w|^2 = 1 and w purely imaginary, which makes the step matrix
unitary and every m-step product expressible in closed form.

`StepScalars` alone forms powers of the step: (gz)^k, |z|^(2m), 1 - |z|^(2m),
sums of |z|^(2pk) and the test |z| < 1 all read log|z| = log1p(-|w|^2)/2, as
1 - |z|^2 by subtraction loses about 1e-11 relative at N = 1e6.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_integer",
    "ModelParams",
    "StepScalars",
    "step_scalars",
    "step_matrix",
    "pair_exponential",
    "matrix_exponential_check",
    "normal_modes",
    "propagate_vector",
]


def as_integer(value, name: str) -> int:
    """`value` as an int: an integer, or a float with no fractional part.  A bool,
    a fraction, inf, NaN or any other type raises ValueError naming the argument."""
    if type(value) is int:  # the common case, ahead of the isinstance checks
        return value
    whole = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if whole or isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _check_beta(name: str, value: float) -> None:
    # +inf is the vacuum and is a legal distinguished value
    if not (value > 0.0):
        raise ValueError(f"{name} must lie in (0, +inf], got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical and run parameters of the chain model.

    E, eps      mode energies of S and of each chain mode (both finite, > 0)
    eta         coupling strength (finite, >= 0, and eta^2 <= E*eps for stability)
    tau         duration of one interaction step (finite, > 0)
    N           number of chain modes (>= 1)
    beta0, beta inverse temperatures of S and of the chain, in (0, +inf]
    """

    E: float
    eps: float
    eta: float
    tau: float
    N: int
    beta0: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.E < math.inf:
            raise ValueError(f"E must be finite and > 0, got {self.E!r}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps!r}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau!r}")
        object.__setattr__(self, "N", as_integer(self.N, "N"))
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        _check_beta("beta0", self.beta0)
        _check_beta("beta", self.beta)
        # stability condition: the two normal-mode frequencies stay >= 0
        if self.eta**2 > self.E * self.eps:
            raise ValueError(
                f"unstable parameters: eta^2 = {self.eta**2} exceeds "
                f"E*eps = {self.E * self.eps}"
            )


@dataclass(frozen=True)
class StepScalars:
    """The scalar triple (g, w, z) of one interaction step."""

    g: complex
    w: complex
    z: complex

    # formed on first use and kept in the instance's __dict__, which a frozen
    # dataclass leaves writable
    @functools.cached_property
    def log_abs_z(self) -> float:
        """log|z| as log1p(-|w|^2)/2, which |z|^2 + |w|^2 = 1 allows.

        A power exp(k log|z|) then carries the rounding of k log|z|, a
        relative error of about 1e-16 |k log|z||, where the float power of
        |z| loses about k ulps: |z|^(2k) was 1.3e-13 off an mpmath value at
        |2k log|z|| = 500.  The phase k arg(gz) of (gz)^k grows the same
        way: 7.7e-12 off at k = 1e8, tau = 1.26e-3.  Once |w|^2 > 1/2,
        log|z| is read off |z| itself; z = 0 gives -inf.
        Formed once per instance.
        """
        wsq = abs(self.w) ** 2
        if wsq <= 0.5:
            return 0.5 * math.log1p(-wsq)
        return math.log(abs(self.z)) if self.z != 0 else -math.inf

    @property
    def contracting(self) -> bool:
        """|z| < 1 as log|z| < 0, which holds at tau = 1e-8 where |z| rounds to 1."""
        return self.log_abs_z < 0.0

    # 2 * m * L multiplies the integers first; scaling by 2 is exact, so it
    # rounds as m * (2 L) does
    def zsq_power(self, m: int) -> float:
        """|z|^(2m) = exp(2m log|z|), exactly 1 at m = 0 (also at z = 0)."""
        return math.exp(2 * m * self.log_abs_z) if m else 1.0

    def zsq_complement(self, m: int) -> float:
        """1 - |z|^(2m) = -expm1(2m log|z|) without cancellation, exactly 0 at m = 0."""
        return -math.expm1(2 * m * self.log_abs_z) if m else 0.0

    def zsq_geometric(self, n: int, p: int = 1) -> float:
        """sum_{k<n} |z|^(2pk) = expm1(2pn log|z|)/expm1(2p log|z|), which stays
        accurate as |z| approaches 1 and is exactly n where log|z| = 0."""
        L = self.log_abs_z
        if n == 0 or L == 0.0:
            return float(n)
        return math.expm1(2 * p * n * L) / math.expm1(2 * p * L)

    def gz_power(self, k):
        """(g z)^k for integer k >= 0, a scalar or an array of them.

        Taken as exp(k (log|z| + i arg(gz))) with `log_abs_z`, by numpy, so
        one integer carries the bits of its entry in an array.  z = 0 gives
        exactly 1 at k = 0 and 0 beyond.
        """
        if self.z == 0:
            return np.add(np.asarray(k) == 0, 0j)[()]  # True + 0j is 1 + 0j
        log_gz = complex(self.log_abs_z, cmath.phase(self.g * self.z))
        return np.exp(np.multiply(k, log_gz))[()]


def step_scalars(params: ModelParams) -> StepScalars:
    """Evaluate (g, w, z) over one step, at time t = tau: a few microseconds,
    formed afresh on each call."""
    E, eps, eta, t = params.E, params.eps, params.eta, params.tau
    half = (E - eps) / 2.0
    omega = math.hypot(half, eta)
    r = 2.0 * omega
    g = cmath.exp(1j * t * half)
    c = math.cos(t * omega)
    s = math.sin(t * omega)
    if r == 0.0:
        # E = eps and eta = 0: free identical modes, w has a removable 0/0
        return StepScalars(g=g, w=0j, z=complex(c, 0.0))
    w = (2j * eta / r) * s
    z = complex(c, (E - eps) / r * s)
    return StepScalars(g=g, w=w, z=z)


def step_matrix(params: ModelParams, n: int) -> np.ndarray:
    """Matrix V_n(t) of the step where chain slot n interacts, at t = tau.

    V_n differs from the identity on C^(N+1) only in rows and columns
    {0, n}.  The unitary of the full step is exp(i*t*eps) * V_n(t); the global
    phase is left to callers so that V stays a one-parameter group.
    """
    n = as_integer(n, "slot index n")
    if not 1 <= n <= params.N:
        raise ValueError(f"slot index n must satisfy 1 <= n <= {params.N}, got {n}")
    s = step_scalars(params)
    dim = params.N + 1
    V = np.eye(dim, dtype=complex)
    V[0, 0] = s.g * s.z
    V[0, n] = s.g * s.w
    V[n, 0] = s.g * s.w
    V[n, n] = s.g * s.z.conjugate()
    return V


def normal_modes(params: ModelParams) -> tuple[float, float]:
    """The two coupled-mode frequencies (eps0, eps1), eps0 >= eps1.

    eps1 >= 0 exactly when eta^2 <= E*eps, which ModelParams enforces.
    """
    E, eps, eta = params.E, params.eps, params.eta
    root = math.hypot(E - eps, 2.0 * eta)
    return ((E + eps) + root) / 2.0, ((E + eps) - root) / 2.0


def pair_exponential(params: ModelParams) -> np.ndarray:
    """exp(i t Y) at t = tau on the two slots {0, n} that a step couples.

    Y = [[E, eta], [eta, eps]] is the step generator on those slots, the same
    for every n, and its exponential is taken by eigendecomposition: it reads
    none of g, w or z.  Every other slot evolves freely, as exp(i t eps).
    """
    Y = np.array([[params.E, params.eta], [params.eta, params.eps]])
    vals, vecs = np.linalg.eigh(Y)
    return (vecs * np.exp(1j * params.tau * vals)) @ vecs.conj().T


def matrix_exponential_check(params: ModelParams) -> float:
    """Largest entrywise deviation of `pair_exponential` from the closed-form
    block exp(i*t*eps) [[gz, gw], [gw, g conj(z)]] of the step at t = tau."""
    s = step_scalars(params)
    gw = s.g * s.w
    block = np.array([[s.g * s.z, gw], [gw, s.g * s.z.conjugate()]])
    phase = cmath.exp(1j * params.tau * params.eps)
    return float(np.max(np.abs(pair_exponential(params) - phase * block)))


def propagate_vector(params: ModelParams, m: int, zeta: np.ndarray) -> np.ndarray:
    """Apply the first m interaction steps to a vector, in closed form.

    Returns U_1 ... U_m zeta, where U_j = exp(i*tau*eps) * V_j is the
    one-particle unitary of step j.  The component formula is piecewise
    in k (already-visited slots, the current slot, untouched slots) and
    costs O(N) instead of m matrix products; the Euclidean norm is
    preserved.

    The suffix sums T[k] = zeta[k+1] + gz T[k+1] are a Python loop over
    the m visited slots, so a call is O(N) numpy work plus m scalar
    steps.  Powers of gz come from `StepScalars.gz_power`.
    """
    m = as_integer(m, "step count m")
    if not 1 <= m <= params.N:
        raise ValueError(f"step count m must satisfy 1 <= m <= {params.N}, got {m}")
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (params.N + 1,):
        raise ValueError(
            f"zeta must have length N+1 = {params.N + 1}, got shape {zeta.shape}"
        )
    s = step_scalars(params)
    g, w, z = s.g, s.w, s.z
    gz = g * z
    gzbar = g * z.conjugate()
    phase = cmath.exp(1j * m * params.tau * params.eps)

    # suffix sums T[k] = sum_{j=k+1..m} (gz)^(j-k-1) * zeta[j]
    T = np.zeros(m + 1, dtype=complex)
    for k in range(m - 1, -1, -1):
        T[k] = zeta[k + 1] + gz * T[k + 1]

    out = np.empty(params.N + 1, dtype=complex)
    out[0] = s.gz_power(m) * zeta[0] + g * w * T[0]
    if m > 1:
        out[1:m] = (
            g * w * s.gz_power(np.arange(m - 1, 0, -1)) * zeta[0]
            + gzbar * zeta[1:m]
            + (g * w) ** 2 * T[1:m]
        )
    out[m] = g * w * zeta[0] + gzbar * zeta[m]
    out[m + 1 :] = zeta[m + 1 :]
    out *= phase
    return out

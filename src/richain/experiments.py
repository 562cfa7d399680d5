"""Experiment drivers built on the closed forms and the Fock oracle.

The centerpiece is the short-time limit run: along a schedule tau(N) =
c*N^(-a) with 1/3 < a < 1/2, the distinguished mode's characteristic
function converges to the universal Gaussian exp(-|theta|^2 Tr[rho_1
(a*a + a a*)]/4) regardless of the chain state's details, provided the
chain state has vanishing first and second gauge-breaking moments.  The
driver evaluates the exact product representation at every checkpoint
and records the distance to the limit.  For a diagonal chain density an
exact series in the chain's factorial moments predicts that distance, and
a rigorous bound on the series' tail gates the run.

The same series, summed to rounding over geometric sums of |z|^2, gives
the chain's product in O(1) operations per checkpoint.  Only its head,
the factors whose argument lies past half the series' radius, and one
chunk of at most 2^14 tail factors are evaluated factor by factor on the
one-mode Weyl oracle; that chunk must meet the series to 1e-13 relative,
so every row is checked against arithmetic that does not rest on it.

Also here: the moment-hypothesis gate of that run, the oracle
trajectory and cross-check helper, and a parameter sweep emitting one
record per grid point.  Records are plain data; serialization lives in
`cli`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, fock_oracle
from .kernel import ModelParams, StepScalars, as_integer, normal_modes, step_scalars
from .quasifree import char_fn, occupation

__all__ = [
    "LimitSchedule",
    "ChainStateSpec",
    "RunRecord",
    "moment_hypothesis_check",
    "short_time_limit_run",
    "ORACLE_MAX_N",
    "oracle_states",
    "oracle_deltas",
    "kernel_outputs",
    "sweep",
]


@dataclass
class RunRecord:
    """One observation row: echoed inputs, named outputs, optional oracle deltas."""

    run_id: str
    inputs: dict
    outputs: dict
    oracle_deltas: dict | None = None


@dataclass(frozen=True)
class LimitSchedule:
    """Power-law schedule tau(N) = multiplier * N^(-exponent) over checkpoints.

    The exponent window (1/3, 1/2) is exactly the one making tau^2*N grow
    and tau^3*N shrink; both directions are verified numerically rather
    than assumed.
    """

    exponent: float = 0.4
    multiplier: float = 2.0
    checkpoints: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000)

    def __post_init__(self):
        if not 1.0 / 3.0 < self.exponent < 0.5:
            raise ValueError(f"exponent must lie in (1/3, 1/2), got {self.exponent}")
        if not self.multiplier > 0.0:
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        cps = tuple(as_integer(n, f"checkpoints[{i}]") for i, n in enumerate(self.checkpoints))
        object.__setattr__(self, "checkpoints", cps)
        if len(cps) < 2 or any(n < 1 for n in cps):
            raise ValueError("need at least two checkpoints, all >= 1")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        tsq = [self.tau(n) ** 2 * n for n in cps]
        tcb = [self.tau(n) ** 3 * n for n in cps]
        if any(b <= a for a, b in zip(tsq, tsq[1:])):
            raise ValueError("tau^2*N must be strictly increasing along checkpoints")
        if any(b >= a for a, b in zip(tcb, tcb[1:])):
            raise ValueError("tau^3*N must be strictly decreasing along checkpoints")

    def tau(self, n: int) -> float:
        return self.multiplier * float(n) ** (-self.exponent)


@dataclass(frozen=True)
class ChainStateSpec:
    """The common one-mode state of every chain mode.

    kind "gibbs" carries beta; "number_state" carries the level; "custom"
    carries an explicit one-mode density matrix whose size fixes its
    native cutoff (evaluation at a larger cutoff zero-pads it).  This is
    the one place a one-mode density is validated.
    """

    kind: str
    beta: float | None = None
    level: int | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        owned = {"gibbs": "beta", "number_state": "level", "custom": "rho"}.get(self.kind)
        for name in ("beta", "level", "rho"):
            if name != owned and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} spec does not take {name}")
        if self.kind == "gibbs":
            if self.beta is None or not self.beta > 0.0:
                raise ValueError(f"gibbs spec needs beta in (0, +inf], got {self.beta!r}")
        elif self.kind == "number_state":
            if self.level is None or as_integer(self.level, "level") < 0:
                raise ValueError(f"number_state spec needs level >= 0, got {self.level!r}")
            object.__setattr__(self, "level", int(self.level))
        elif self.kind == "custom":
            if self.rho is None:
                raise ValueError("custom spec needs a density matrix")
            rho = np.asarray(self.rho, dtype=complex)
            if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
                raise ValueError(f"custom density matrix must be square (>= 2x2), got {rho.shape}")
            # every check below is blind to NaN, and eigvalsh fails on inf
            if not np.all(np.isfinite(rho)):
                raise ValueError("custom density matrix has non-finite entries")
            if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
                raise ValueError("custom density matrix must be Hermitian")
            if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
                raise ValueError("custom density matrix must have trace 1")
            if float(np.linalg.eigvalsh(rho)[0]) < -1e-12:
                raise ValueError("custom density matrix must be positive semidefinite")
            object.__setattr__(self, "rho", rho)
        else:
            raise ValueError(f"unknown chain-state kind {self.kind!r}")

    @property
    def min_cutoff(self) -> int:
        if self.kind == "gibbs":
            return 2
        if self.kind == "number_state":
            return self.level + 2
        return self.rho.shape[0]

    def density(self, cutoff: int) -> np.ndarray:
        """Dense one-mode density matrix at the requested cutoff."""
        if cutoff < self.min_cutoff:
            raise ValueError(f"cutoff {cutoff} below the spec minimum {self.min_cutoff}")
        if self.kind == "gibbs":
            return np.diag(fock_oracle.thermal_probabilities(self.beta, cutoff).astype(complex))
        if self.kind == "number_state":
            rho = np.zeros((cutoff, cutoff), dtype=complex)
            rho[self.level, self.level] = 1.0
            return rho
        native = self.rho.shape[0]
        out = np.zeros((cutoff, cutoff), dtype=complex)
        out[:native, :native] = self.rho
        return out

    def gauge_moments(self) -> tuple[complex, complex]:
        """Tr[rho a] = sum_n sqrt(n+1) rho[n+1, n] and Tr[rho aa] = sum_n
        sqrt((n+1)(n+2)) rho[n+2, n], exact on the native matrix."""
        rho = self.density(self.min_cutoff)
        n = np.sqrt(np.arange(1.0, self.min_cutoff))
        return complex(n @ np.diagonal(rho, -1)), complex((n[:-1] * n[1:]) @ np.diagonal(rho, -2))

    def factorial_series(self) -> np.ndarray:
        """The coefficients (-1)^k f_k / (k!)^2 of P(x) = Tr[rho L_num(x)], f_k
        the factorial moments, as (-1)^k / k! sum_n rho[n, n] C(n, k) off the
        native diagonal: f_k and (k!)^2 alone overflow.  Not for the gibbs kind."""
        if self.kind == "gibbs":
            raise ValueError("the gibbs kind has no finite factorial series")
        p = np.diagonal(self.density(self.min_cutoff)).real
        weights = [(n, p[n]) for n in np.flatnonzero(p).tolist()]  # a number state has one
        return np.array([(-1) ** k * sum((w * (math.comb(n, k) / math.factorial(k))
                                          for n, w in weights if n >= k), 0.0)
                         for k in range(len(p))])

    def symmetric_moment(self) -> float:
        """Tr[rho_1 (a*a + a a*)] = 2 f_1 + 1 entering the limit formula, f_1 =
        sum_n rho[n, n] n over the nonzero weights, in the order of n."""
        if self.kind == "gibbs":
            return 2.0 * occupation(self.beta) + 1.0
        p = np.diagonal(self.density(self.min_cutoff)).real
        return 1.0 + 2.0 * float(sum((p[n] * n for n in np.flatnonzero(p).tolist()), 0.0))


_H2_TOL = 1e-12


def moment_hypothesis_check(spec: ChainStateSpec) -> None:
    """Raise ValueError naming both moments unless Tr[rho a] and Tr[rho aa], exact
    off the spec's native matrix (`ChainStateSpec.gauge_moments`), are <= 1e-12."""
    tr_a, tr_aa = spec.gauge_moments()
    if not (abs(tr_a) <= _H2_TOL and abs(tr_aa) <= _H2_TOL):
        raise ValueError("chain state violates the moment hypotheses: "
                         f"Tr[rho a] = {tr_a}, Tr[rho aa] = {tr_aa}")


# terms per streamed chunk, and the length of a series row's checked chunk
_CHUNK = 1 << 14
_PRODUCT_TERM_CAP = 100_000_000
# the largest evaluation cutoff of a non-Gibbs run: about 1 GiB for its dense
# density, the eigenvectors of X and one chunk's trig table
_EVAL_CUTOFF_CAP = 4096


def _chain_product_log(
    weyl: fock_oracle.OneModeWeyl, s: StepScalars, scale: complex, n_steps: int
) -> complex:
    """Sum over k < n_steps of log C(scale (gz)^k), with C the characteristic
    function of the one-mode density prepared in `weyl`; more than
    _PRODUCT_TERM_CAP terms raise ValueError.

    The terms run in chunks of _CHUNK, so memory does not grow with
    n_steps; each chunk is summed by numpy and the chunk sums by
    math.fsum.  With d = C - 1, log(1 + d) is taken as log1p(2 Re d +
    |d|^2)/2 + i arg(1 + d), without cancellation when |d| is tiny; arg is
    pi where 1 + d is negative.
    """
    if n_steps > _PRODUCT_TERM_CAP:
        raise ValueError(f"term-by-term product capped at {_PRODUCT_TERM_CAP} factors")
    re_sums, im_sums = [], []
    for lo in range(0, n_steps, _CHUNK):
        a = s.gz_power(np.arange(lo, min(lo + _CHUNK, n_steps), dtype=float))
        a *= scale
        d = fock_oracle.weyl_expectation_batch(weyl, a)
        x, y = d.real, d.imag
        # |1 + d|^2 - 1 = (2x + x^2) + y^2
        re_sums.append(0.5 * float(np.log1p(np.square(x) + 2.0 * x + np.square(y)).sum()))
        im_sums.append(float(np.arctan2(y, x + 1.0).sum()))
    return complex(math.fsum(re_sums), math.fsum(im_sums))


# the order `_log_series` is taken to.  Tails of number states 0..15 reach
# rounding by order 49; the radius shrinks as the level grows, so leave room.
_SERIES_ORDER = 128
_ROUNDING = 2.0**-53
# the streamed tail chunk against the series over the same terms, relative.  The
# largest gap measured is 4.0e-15, over number states 0..10 and three diagonal
# custom densities, three models, multipliers 2 and 10, |theta| up to 2 and the
# default checkpoints.  Below the floor the terms are subnormal floats, whose last
# digits the two need not share (|theta| = 1e-156 gives a log of -1.1e-312).
_CROSS_CHECK_TOL = 1e-13
_CROSS_CHECK_FLOOR = 1e-300
# the largest argument math.exp takes
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _log_series(spec: ChainStateSpec, order: int) -> tuple[np.ndarray, float, int] | None:
    """b_1 .. b_order of log P = sum_j b_j (x/s)^j, the radius min|root of P|
    and deg P, where a diagonal chain density has C(r) = exp(-r^2/4) P(r^2/2)
    and s is the radius, or 1 where P has no root; None for any other
    density.  Over the roots x_r, b_j = -(1/j) sum_r (s/x_r)^j, so |b_j| <=
    deg/j, where the unscaled a_j = b_j s^-j overflow from about level 372.
    The gibbs kind has P(x) = exp(-n x) and no root."""
    if spec.kind == "gibbs":
        return np.r_[-occupation(spec.beta), np.zeros(order - 1)], math.inf, 0
    rho = spec.density(spec.min_cutoff)
    if np.count_nonzero(rho - np.diag(np.diagonal(rho))):
        return None
    c = spec.factorial_series()
    # deg P off the diagonal, as c_deg = (-1)^deg p_deg / deg! underflows from
    # level 178; the roots of P are 1/y over the roots y of x^deg P(1/x), whose
    # leading coefficient is c_0 = 1, so no division by c_deg overflows
    degree = int(np.flatnonzero(np.diagonal(rho))[-1])
    y = float(np.max(np.abs(np.roots(c[: degree + 1])), initial=0.0))
    radius = 1.0 / y if y else math.inf
    # c_j s^j as (c_j m^j) 2^(e j), s = m 2^e, so that no power of s over- or
    # underflows where c_j s^j, at most C(deg, j), does not
    m, e = math.frexp(_series_scale(radius))
    k = np.arange(order + 1)
    b, c = np.zeros(order + 1), np.ldexp(np.r_[c, np.zeros(order)][: order + 1] * m**k, e * k)
    for j in range(1, order + 1):  # x P' = P x (log P)', with c_0 = 1
        b[j] = c[j] - np.arange(1, j) * b[1:j] @ c[j - 1 : 0 : -1] / j
    return b[1:], radius, degree


def _series_scale(radius: float) -> float:
    """The scale s of `_log_series`: the radius, or 1 where P has no root."""
    return radius if math.isfinite(radius) else 1.0


def _series_log(series, x: float, s: StepScalars, n_terms: int) -> float | None:
    """Sum over e < n_terms of log C(x_e), x_e = x |z|^(2e) <= radius/2, as
    -(x/2) G_1 + sum_j b_j (x/s)^j G_j with G_j = `s.zsq_geometric(n_terms, j)`.

    As |b_j| <= deg/j and G_j falls with j, the rest past order J is at
    most (deg/(J+1)) r^(J+1) G_J / (1 - r), r = x/radius <= 1/2; the sum
    is cut once that falls below rounding of the sum so far.  None if it has
    not by the series' last order, or a term is not finite.
    """
    b, radius, degree = series
    r, u = x / radius, x / _series_scale(radius)
    total, uj = -0.5 * x * s.zsq_geometric(n_terms, 1), 1.0
    for j, b_j in enumerate(b, 1):
        uj *= u
        g = s.zsq_geometric(n_terms, j)
        total += b_j * uj * g
        if not math.isfinite(total):
            return None
        if degree / (j + 1) * r ** (j + 1) * g / (1.0 - r) <= _ROUNDING * abs(total):
            return total
    return None


def _head_length(x: float, radius: float, s: StepScalars, n_steps: int) -> int:
    """The number of exponents e < n_steps with x |z|^(2e) > radius/2; they
    lead, as x_e falls with e."""
    if x <= radius / 2.0:
        return 0
    t = math.log(2.0 * x / radius) / (-2.0 * s.log_abs_z)  # x_e > radius/2 for e < t
    return n_steps if t >= n_steps else max(1, math.ceil(t))


def _chain_log(
    weyl: fock_oracle.OneModeWeyl, series, s: StepScalars, scale: complex, n_steps: int
) -> complex:
    """Sum over k < n_steps of log C(scale (gz)^k), the chain's share of the
    limit run's value.

    For a diagonal density (`series` from `_log_series`), the head of
    exponents with x_k = |scale|^2 |z|^(2k) / 2 > radius/2 is streamed by
    `_chain_product_log` and the tail summed by `_series_log`.  The first
    min(tail, _CHUNK) tail terms are also streamed, and a gap to the series
    over the same terms above _CROSS_CHECK_TOL relative raises
    RuntimeError.  Anything else streams all n_steps terms.  At |z| = 1,
    that is w = 0, every argument is 0 and the series gives 0.
    """
    if series is None:
        return _chain_product_log(weyl, s, scale, n_steps)
    x = abs(scale) ** 2 / 2.0
    head = _head_length(x, series[1], s, n_steps)
    rest, x_tail = n_steps - head, x * s.zsq_power(head)
    tail = _series_log(series, x_tail, s, rest) if rest else 0.0
    size = min(rest, _CHUNK)
    check = tail if size == rest else _series_log(series, x_tail, s, size)
    if tail is None or check is None:
        return _chain_product_log(weyl, s, scale, n_steps)
    streamed = _chain_product_log(weyl, s, scale * s.gz_power(head), size)
    if abs(streamed - check) > _CROSS_CHECK_TOL * abs(check) + _CROSS_CHECK_FLOOR:
        raise RuntimeError(
            f"streamed chain terms {streamed!r} off their series law {check!r} "
            f"over exponents {head}..{head + size - 1}"
        )
    return _chain_product_log(weyl, s, scale, head) + tail


def short_time_limit_run(
    template: ModelParams,
    schedule: LimitSchedule,
    spec: ChainStateSpec,
    thetas,
) -> list[RunRecord]:
    """Evaluate the exact product representation along the schedule.

    For each checkpoint N the value is C0((gz)^N phase theta) times the
    product over k of C(theta_k) with theta_k = phase g w (gz)^(N-k)
    theta, the components of the propagated vector; C0 is the thermal
    characteristic function of the distinguished mode at beta0 and C the
    chain spec's.  Each record carries |value - limit|; the sequence per
    theta must be monotone nonincreasing from the first checkpoint with
    tau^2*N >= 1, up to 5% relative slack plus the law gate's 1e-14 |limit|,
    or the run fails, so every record returned reads monotone_ok true.  The
    thetas must form a nonempty 1-D array of finite values whose |theta|^2
    is finite, and the spec must pass `moment_hypothesis_check`; otherwise
    ValueError.

    A diagonal chain density, with log P = sum_j a_j x^j from
    `_log_series` (which carries a_j scaled by its radius), has the error law

        log(value / limit) = -(|theta|^2 / 4) |z|^(2N) (2 n0 + 1 - m2)
                             + sum_{j>=2} a_j X^j G_j,

    m2 = Tr[rho (a*a + a a*)], X = |w|^2 |theta|^2 / 2, G_j = sum_{k<N}
    |z|^(2jk) from `StepScalars.zsq_geometric`.  With L its terms to
    j = 2, predicted_error = |limit expm1(L)|.  As G_j <= G_3 for j >= 3,
    the tail is at most T = (deg/3) r^3 G_3 / (1 - r), r = X/radius, so
    law_remainder = |limit exp(L)| expm1(T) bounds |abs_error -
    predicted_error|, and the run fails past law_remainder + 1e-14 |limit|.
    Both are NaN for other densities and from X = radius on.  Where exp(L)
    overflows, limit exp(L) is one exponential, whose exponent adds two
    terms of one sign, and predicted_error is limit exp(L) - limit.

    The gibbs law stops at its first term, so its value is limit exp(L)
    at any N and its abs_error is exactly predicted_error.  Other specs
    take the chain's log sum_k log C(theta_k) in two parts.  With x_e =
    X |z|^(2e), the exponents e with x_e > radius/2 form the head, which
    is evaluated term by term.  The rest form the tail, which for a
    diagonal density is the same series at X |z|^(2h) over N - h terms, h
    the head's length: -(x/2) G_1 + sum_j a_j x^j G_j, cut once the bound
    on its rest falls below rounding.  A run is thus O(1) in N.  The
    first min(N - h, 2^14) tail terms are also evaluated term by term, and
    a gap to the series over them above 1e-13 relative (a rounding-level
    tolerance: the largest gap measured is 4.0e-15) raises RuntimeError,
    so every row keeps a reference that does not rest on the series.  A
    density with off-diagonal entries, or a series that does not reach
    rounding by order 128, takes every term term by term.  A head or a
    whole row of more than 1e8 terms raises ValueError, and so does an
    evaluation cutoff (below) above 4096.

    Term by term means on the spec's density at the cutoff max(16,
    native + 4 + ceil(2 d sqrt(native)), ceil(8 d^2) + native), d =
    max|theta| and native = `min_cutoff`: the displaced top level reaches
    about (sqrt(native) + d)^2, and the Weyl evaluator needs D >= 8 d^2.
    That density is prepared once per run as a `fock_oracle.OneModeWeyl`,
    and the terms stream through `fock_oracle.weyl_expectation_batch` in
    chunks of 2^14, so memory does not grow with N.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=complex))
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.square(np.abs(thetas)))  # also false at inf and NaN
    if thetas.ndim != 1 or not thetas.size or not np.all(finite):
        raise ValueError("thetas must be a nonempty 1-D array of finite values with "
                         f"finite |theta|^2, got {thetas.tolist()}")
    moment_hypothesis_check(spec)
    n0, moment = occupation(template.beta0), spec.symmetric_moment()
    series = _log_series(spec, _SERIES_ORDER)
    if series is None and max(schedule.checkpoints) > _PRODUCT_TERM_CAP:
        raise ValueError(f"term-by-term product capped at {_PRODUCT_TERM_CAP} factors")
    b, radius, degree = series or (None, 0.0, 0)  # radius 0: no law
    if spec.kind != "gibbs":
        max_disp, native = float(np.max(np.abs(thetas))), spec.min_cutoff
        cutoff = max(16, native + 4 + math.ceil(2.0 * max_disp * math.sqrt(native)),
                     math.ceil(8.0 * max_disp**2) + native)
        if cutoff > _EVAL_CUTOFF_CAP:
            raise ValueError(f"evaluation cutoff {cutoff} for max|theta| = {max_disp!r} "
                             f"is above {_EVAL_CUTOFF_CAP}")
        weyl = fock_oracle.OneModeWeyl(spec.density(cutoff))

    records: list[RunRecord] = []
    for j, n_steps in enumerate(schedule.checkpoints):
        tau = schedule.tau(n_steps)
        s = step_scalars(replace(template, tau=tau, N=n_steps))
        zsq_n = s.zsq_power(n_steps)
        g2, g3 = (s.zsq_geometric(n_steps, p) for p in (2, 3))
        for i, theta in enumerate(thetas):
            theta_sq = abs(theta) ** 2
            limit = math.exp(-0.25 * theta_sq * moment)
            x = abs(s.w) ** 2 * theta_sq / 2.0
            log_law = tail = math.nan  # NaN, and no gate, where the law is not available
            if x < radius:
                # degree 0 (gibbs, vacuum) has b_2 = 0, and x^2 may overflow
                quad = b[1] * (x / _series_scale(radius)) ** 2 * g2 if degree else 0.0
                log_law = -0.25 * theta_sq * zsq_n * (2.0 * n0 + 1.0 - moment) + quad
                tail = degree / 3.0 * (x / radius) ** 3 * g3 / (1.0 - x / radius)
            if log_law > _LOG_FLOAT_MAX:
                # exp(L) overflows where limit < exp(-709) has lost its digits: take
                # limit exp(L) as one exponent, of two terms that do not cancel
                law = math.exp(quad - 0.25 * theta_sq * (
                    moment * s.zsq_complement(n_steps) + zsq_n * (2.0 * n0 + 1.0)))
                predicted = law - limit
            else:
                law = limit * math.exp(log_law)
                predicted = abs(limit * math.expm1(log_law))
            if spec.kind == "gibbs":
                value = complex(law)
            elif theta == 0:
                value = 1.0 + 0j
            else:
                # slots 1..N of U_1 ... U_N (theta e0), phase g w (gz)^(N-k) theta
                # at slot k; slot 0 is (gz)^N phase theta
                phase = cmath.exp(1j * n_steps * tau * template.eps)
                log_chain = _chain_log(weyl, series, s, phase * s.g * s.w * theta, n_steps)
                log_c0 = -0.25 * zsq_n * theta_sq * (2.0 * n0 + 1.0)
                value = complex(np.exp(log_c0 + log_chain))
            # limit - limit exp(L) by subtraction would read 0 below 1e-16 |limit|
            err = predicted if spec.kind == "gibbs" else abs(value - limit)
            # expm1 raises past 709.78; a tail that large leaves no bound
            remainder = abs(law) * math.expm1(min(tail, 709.0))
            if abs(err - predicted) > remainder + 1e-14 * limit:
                raise RuntimeError(f"limit-run error {err!r} off its law {predicted!r} "
                                   f"by more than {remainder!r}, theta={theta}, N={n_steps}")
            records.append(
                RunRecord(
                    run_id=f"limit-{i:03d}-{j:02d}",
                    inputs={
                        "E": template.E, "eps": template.eps, "eta": template.eta,
                        "beta0": template.beta0, "spec_kind": spec.kind,
                        "spec_beta": spec.beta, "spec_level": spec.level,
                        "exponent": schedule.exponent, "multiplier": schedule.multiplier,
                        "theta": theta,
                    },
                    outputs={
                        "N": n_steps, "tau": tau, "tau_sq_N": tau**2 * n_steps,
                        "tau_cub_N": tau**3 * n_steps, "value": value, "limit": limit,
                        "abs_error": err, "predicted_error": predicted, "law_remainder": remainder,
                        "monotone_ok": True,  # the run raises below where it is not
                    },
                )
            )

    start = next((j for j, rec in enumerate(records[:: len(thetas)])
                  if rec.outputs["tau_sq_N"] >= 1.0), len(schedule.checkpoints))
    for i, theta in enumerate(thetas):
        rows = records[i :: len(thetas)]
        errs = [rec.outputs["abs_error"] for rec in rows]
        # 5 % relative slack, and the law gate's 1e-14 |limit| for errors at rounding
        floor = 1e-14 * rows[0].outputs["limit"]
        if not all(b <= a * 1.05 + floor for a, b in zip(errs[start:], errs[start + 1 :])):
            raise RuntimeError(f"limit-run error sequence not monotone for theta={theta}: {errs}")
    return records


def kernel_outputs(params: ModelParams) -> dict:
    """The step scalars, coupled-mode energies and contraction flags: the
    columns that `kernel` and every `sweep` row share, in their order.  h5_operative
    is |w| < 1 and `StepScalars.contracting`; tau sqrt((E-eps)^2/4 + eta^2) < pi/2,
    h5_sufficient, implies it."""
    s = step_scalars(params)
    eps0, eps1 = normal_modes(params)
    omega = math.hypot((params.E - params.eps) / 2.0, params.eta)
    return {
        "g": s.g,
        "w": s.w,
        "z": s.z,
        "abs_z_sq": abs(s.z) ** 2,
        "eps0": eps0,
        "eps1": eps1,
        "h5_sufficient": params.tau * omega < math.pi / 2.0,
        "h5_operative": abs(s.w) < 1.0 and s.contracting,
    }


_GRID_KEYS = ("E", "eps", "eta", "tau", "beta0", "beta", "N")

# the longest chain the oracle checks: N + 1 = 3 modes
ORACLE_MAX_N = 2


def oracle_states(params: ModelParams, cutoff: int):
    """The oracle states after m = 0..N steps: the thermal product
    [beta0] + [beta]*N at `cutoff`, then one step per slot 1..N.

    A generator, so a caller that keeps only the current state holds at
    most two.  Raises ValueError, on the first state, for N > ORACLE_MAX_N.
    """
    if params.N > ORACLE_MAX_N:
        raise ValueError(f"oracle cross-checks need N <= {ORACLE_MAX_N}, got N = {params.N}")
    rho = fock_oracle.BlockedDensityMatrix.from_thermal_product(
        [params.beta0] + [params.beta] * params.N, cutoff
    )
    yield rho
    for n in range(1, params.N + 1):
        rho = fock_oracle.evolve_density(rho, params, [n])
        yield rho


def oracle_deltas(
    params: ModelParams, m: int, rho: fock_oracle.BlockedDensityMatrix,
    rng: np.random.Generator, samples: int,
) -> dict:
    """The closed forms after m steps against the oracle state rho.

    Draws `samples` complex zeta from `rng`, each as `modes` real parts
    and then `modes` imaginary parts, clamps their norm to 0.5 and returns
    the largest |char_fn - Tr[rho W(zeta)]| as "char_fn_max", and
    |S(rho) - total_entropy| as "entropy".  The oracle takes all samples
    in one call.  With samples = 0 the generator is left untouched.
    """
    worst = 0.0
    if samples:
        state = dynamics.reduced_state(params, m, range(params.N + 1))
        parts = rng.standard_normal((samples, 2, rho.modes))
        zetas = parts[:, 0] + 1j * parts[:, 1]
        for zeta in zetas:
            norm = float(np.linalg.norm(zeta))
            if norm > 0.5:
                zeta *= 0.5 / norm
        brute = fock_oracle.weyl_expectation(rho, zetas).tolist()
        worst = max(abs(complex(char_fn(state, z)) - b) for z, b in zip(zetas, brute))
    entropy = abs(fock_oracle.von_neumann_entropy(rho) - dynamics.total_entropy(params, m))
    return {"char_fn_max": worst, "entropy": entropy}


def sweep(grid: dict, cutoff: int | None = None, seed: int = 0) -> list[RunRecord]:
    """One record per point of `grid`, ordered by grid index.  The grid
    holds one nonempty list for each of E, eps, eta, tau, beta0, beta, N.

    Points that fail parameter validation (the stability condition
    included) or hold a value of the wrong type or an integer too large
    for a float become error records rather than aborting the sweep, as
    does an N that is a bool or a fraction; such an N is echoed as
    given.  With a cutoff the oracle runs: points with at most
    ORACLE_MAX_N chain modes also carry truncated-Fock deltas from 5 zeta
    samples, drawn from a generator seeded by (seed, grid index); the
    cutoff and seed are echoed in each record.
    """
    if not isinstance(grid, dict):
        raise ValueError("sweep grid must be a dict with one list per axis")
    missing = [k for k in _GRID_KEYS if k not in grid]
    if missing:
        raise ValueError(f"sweep grid missing axes: {missing}")
    unknown = sorted(set(grid) - set(_GRID_KEYS))
    if unknown:
        raise ValueError(f"unknown sweep grid axes: {unknown}")
    axes = []
    for key in _GRID_KEYS:
        vals = grid[key]
        if not isinstance(vals, (list, tuple)) or len(vals) == 0:
            raise ValueError(f"grid axis {key!r} must be a nonempty list")
        axes.append(list(vals))
    use_oracle = cutoff is not None

    records = []
    for idx, point in enumerate(itertools.product(*axes)):
        E, eps, eta, tau, beta0, beta, n_modes = point
        inputs = {
            "grid_index": idx, "E": E, "eps": eps, "eta": eta, "tau": tau,
            "beta0": beta0, "beta": beta, "N": n_modes,
            "oracle": use_oracle, "cutoff": cutoff,
            "seed": seed if use_oracle else None,
        }
        run_id = f"sweep-{idx:05d}"
        try:
            params = ModelParams(
                E=float(E), eps=float(eps), eta=float(eta), tau=float(tau),
                N=n_modes, beta0=float(beta0), beta=float(beta),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            records.append(RunRecord(run_id=run_id, inputs=inputs, outputs={"error": str(exc)}))
            continue
        inputs["N"] = params.N
        outputs = kernel_outputs(params)
        finite = not (math.isinf(params.beta0) or math.isinf(params.beta))
        outputs.update({
            "total_entropy": dynamics.total_entropy(params, params.N),
            "relative_entropy_N": (
                dynamics.relative_entropy(params, params.N) if finite else float("nan")
            ),
            "entropy_production_limit": (
                dynamics.entropy_production_limit(params)
                if finite and step_scalars(params).contracting else float("nan")
            ),
            "beta_star_N": dynamics.effective_beta_S(params, params.N),
            "beta_star_star_N": dynamics.effective_beta_Sm(params, params.N),
        })
        deltas = None
        if use_oracle and params.N <= ORACLE_MAX_N:
            for rho in oracle_states(params, cutoff):  # one state at a time
                pass
            deltas = oracle_deltas(
                params, params.N, rho, np.random.default_rng([seed, idx]), 5
            )
        records.append(
            RunRecord(run_id=run_id, inputs=inputs, outputs=outputs, oracle_deltas=deltas)
        )
    return records

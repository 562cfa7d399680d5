"""References for the closed-form tests, beside `fock_reference`.

The mp_* functions evaluate at 50 digits with the mpmath module passed
as `mp`, so a test that lacks mpmath skips with `pytest.importorskip`.
`state_entropy` reads the entropy off a rank-one state's own occupations,
a route independent of `dynamics.window_entropy`'s closed form, and
`dense_step_exponential` forms a step on the whole chain from its generator.
"""

import itertools

import numpy as np

from richain.quasifree import RankOneQuasiFreeState, occupation_entropy


def mp_occupation(mp, beta):
    """50-digit n = 1/(e^beta - 1) from mp.expm1; a naive 1 - e^-b rounds
    to 1 above b ~ 115."""
    with mp.workdps(50):
        return 1 / mp.expm1(mp.mpf(beta))


def mp_entropy(mp, n):
    """50-digit s(n) = (n+1) log1p(n) - n log n."""
    with mp.workdps(50):
        n = mp.mpf(n)
        return (n + 1) * mp.log1p(n) - n * mp.log(n) if n else mp.mpf(0)


def mp_step_sq(mp, params):
    """50-digit (|w|^2, |z|^2) of one step, from the float model parameters.

    |w|^2 = (eta/omega)^2 sin^2(tau omega) and |z|^2 = cos^2(tau omega) +
    ((E-eps)/(2 omega))^2 sin^2(tau omega), with omega^2 = ((E-eps)/2)^2
    + eta^2; |z|^2 is its own sum, so it keeps its digits near a full swap.
    """
    with mp.workdps(50):
        E, eps, eta, tau = (mp.mpf(v) for v in (params.E, params.eps, params.eta, params.tau))
        omega = mp.sqrt(((E - eps) / 2) ** 2 + eta**2)
        sin, cos = mp.sin(tau * omega), mp.cos(tau * omega)
        return (eta / omega * sin) ** 2, cos**2 + ((E - eps) / (2 * omega) * sin) ** 2


def dense_step_exponential(params, n):
    """exp(i tau Y_n) of step n on C^(N+1), by eigendecomposition: O(N^3).

    Y_n = eps*I + ((E-eps)/2)*J_n + X_n, where J_n marks the two interacting
    slots {0, n} and X_n carries the detuning and coupling.
    """
    E, eps, eta = params.E, params.eps, params.eta
    half = (E - eps) / 2.0
    J = np.zeros((params.N + 1, params.N + 1))
    J[0, 0] = J[n, n] = 1.0
    X = np.zeros_like(J)
    X[0, 0], X[n, n] = half, -half
    X[0, n] = X[n, 0] = eta
    vals, vecs = np.linalg.eigh(eps * np.eye(params.N + 1) + half * J + X)
    return (vecs * np.exp(1j * params.tau * vals)) @ vecs.conj().T


def state_entropy(state: RankOneQuasiFreeState) -> float:
    """Entropy (M-1) s(n) + s(n (1 - <xi,xi>) + n_xi <xi,xi>) of M modes,
    s = occupation_entropy.

    The occupation along xi is that mix of the two stored occupations, so
    no occupation is subtracted from another.  About 1e-14 relative while
    the occupations are normal floats (beta below about 708).  Past that
    they have lost bits that no formula in n recovers, so the entropy is
    accurate in absolute terms only, and it is 0 once they underflow (beta
    from about 745.1).
    """
    share = state.xi_norm_sq
    along_xi = state.n * (1.0 - share) + state.n_xi * share
    return ((len(state.xi) - 1) * occupation_entropy(max(state.n, 0.0))
            + occupation_entropy(max(along_xi, 0.0)))


def mp_beta(mp, n):
    """50-digit beta = log1p(1/n) of an occupation n, which mp_occupation inverts."""
    with mp.workdps(50):
        return mp.log1p(1 / mp.mpf(n))


def mp_mix(mp, params, share):
    """50-digit occupation share n(beta0) + (1 - share) n(beta)."""
    with mp.workdps(50):
        return share * mp_occupation(mp, params.beta0) + (1 - share) * mp_occupation(mp, params.beta)


def mp_beta_star(mp, params, m):
    """50-digit beta* of S after m steps, the beta of the mix at share |z|^(2m)."""
    with mp.workdps(50):
        _, zsq = mp_step_sq(mp, params)
        return mp_beta(mp, mp_mix(mp, params, zsq**m))


def mp_beta_star_star(mp, params, m):
    """50-digit beta** = log1p(1/n) of n = share n(beta0) + (1 - share) n(beta),
    with share = |w|^2 |z|^(2(m-1))."""
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        return mp_beta(mp, mp_mix(mp, params, wsq * zsq ** (m - 1)))


def mp_char_fn_S(mp, params, m, alpha):
    """50-digit characteristic function exp(-|alpha|^2 (2 n* + 1) / 4) of S after
    m steps, n* = |z|^2m n(beta0) + (1 - |z|^2m) n(beta)."""
    with mp.workdps(50):
        _, zsq = mp_step_sq(mp, params)
        mix = mp_mix(mp, params, zsq**m)
        norm_sq = mp.mpf(alpha.real) ** 2 + mp.mpf(alpha.imag) ** 2
        return mp.exp(-norm_sq / 4 * (2 * mix + 1))


def mp_window_norm_sq(mp, params, n, k):
    """50-digit weight |z|^(2k) + sum_j |xi_j|^2 of S and the window's chain
    modes j = k-n+1..k after k steps, summed slot by slot, |xi_j|^2 = |w|^2
    |z|^(2(j-1))."""
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        return zsq**k + wsq * mp.fsum(zsq ** (j - 1) for j in range(k - n + 1, k + 1))


def mp_window_entropy(mp, params, n, k):
    """50-digit entropy of the window of S and chain modes k-n+1..k after k steps.

    The weights of the window's slots and of the slots 1..k-n it misses are
    summed slot by slot, |xi_j|^2 = |w|^2 |z|^(2(j-1)) for chain mode j.
    """
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        share = mp_window_norm_sq(mp, params, n, k)
        rest = wsq * mp.fsum(zsq ** (j - 1) for j in range(1, k - n + 1))
        n0, nb = mp_occupation(mp, params.beta0), mp_occupation(mp, params.beta)
        return n * mp_entropy(mp, nb) + mp_entropy(mp, share * n0 + rest * nb)


def mp_production(mp, params):
    """50-digit entropy production limit (beta0 - beta)(n(beta) - n(beta0))."""
    with mp.workdps(50):
        d = mp.mpf(params.beta0) - mp.mpf(params.beta)
        return d * (mp_occupation(mp, params.beta) - mp_occupation(mp, params.beta0))


def mp_relative_entropy(mp, params, m):
    """50-digit relative entropy of S after m steps, the production limit
    times 1 - |z|^(2m)."""
    with mp.workdps(50):
        _, zsq = mp_step_sq(mp, params)
        return mp_production(mp, params) * (1 - zsq**m)


def mp_level_one_value(mp, params, theta_sq):
    """50-digit value of the limit run on the |1> chain after N = params.N steps.

    Chain factor k is exp(-x/2) (1 - x) at x = X |z|^(2k), X = |w|^2 |theta|^2
    / 2, and sum_{k<N} log(1 - x_k) = -sum_j X^j G_j / j with G_j =
    (1 - |z|^(2jN)) / (1 - |z|^(2j)); the thermal factor of S is exp(-|z|^(2N)
    |theta|^2 (2 n0 + 1) / 4).
    """
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        n, x = params.N, wsq * mp.mpf(theta_sq) / 2

        def geometric(j):
            return (1 - zsq ** (j * n)) / (1 - zsq**j)

        log_value = -mp.mpf(theta_sq) / 4 * zsq**n * (2 * mp_occupation(mp, params.beta0) + 1)
        log_value -= x / 2 * geometric(1)
        for j in itertools.count(1):
            term = x**j / j * geometric(j)
            log_value -= term
            if term < mp.mpf(10) ** -60:
                return mp.exp(log_value)


def mp_gibbs_xstar(mp, params, beta):
    """50-digit x* = |z|^2N coth(beta0/2) + (1 - |z|^2N) coth(beta/2) of the
    limit run on a Gibbs chain at `beta` after N = params.N steps, and the
    share |z|^2N."""
    with mp.workdps(50):
        _, zsq = mp_step_sq(mp, params)
        share = zsq**params.N
        x0, x = (1 / mp.tanh(mp.mpf(b) / 2) for b in (params.beta0, beta))
        return share * x0 + (1 - share) * x, share


def mp_level_one_law(mp, params, theta_sq):
    """50-digit error law of the limit run on the |1> chain after N =
    params.N steps: (predicted error, remainder bound).

    With X = |w|^2 |theta|^2 / 2 and G_j = (1 - |z|^(2jN)) / (1 - |z|^(2j)),
    the law keeps log(value / limit) = -|theta|^2/4 |z|^(2N) (2 n0 + 1 - 3)
    - X^2 G_2 / 2, 3 the |1> chain's 2<n> + 1, and limit = exp(-3
    |theta|^2 / 4).  The prediction is |limit expm1| of that log, and the
    remainder bounds its j >= 3 tail, limit exp(log) expm1(X^3 G_3 /
    (3 (1 - X))).
    """
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        n, x = params.N, wsq * mp.mpf(theta_sq) / 2
        g2, g3 = ((1 - zsq ** (j * n)) / (1 - zsq**j) for j in (2, 3))
        excess = 2 * mp_occupation(mp, params.beta0) + 1 - 3
        log_pred = -mp.mpf(theta_sq) / 4 * zsq**n * excess - x**2 * g2 / 2
        limit = mp.exp(-3 * mp.mpf(theta_sq) / 4)
        predicted = abs(limit * mp.expm1(log_pred))
        return predicted, limit * mp.exp(log_pred) * mp.expm1(x**3 * g3 / (3 * (1 - x)))


def mp_zsq_geometric(mp, w_abs, n, p):
    """50-digit sum_{k<n} |z|^(2pk) = (1 - |z|^(2pn)) / (1 - |z|^(2p)) with
    |z|^2 = 1 - |w|^2 from the float |w|, so a |w|^2 near 1e-6 keeps every
    digit that subtracting from a rounded |z|^2 would lose."""
    with mp.workdps(50):
        zsq = 1 - mp.mpf(w_abs) ** 2
        return (1 - zsq ** (p * n)) / (1 - zsq**p)


def mp_laguerre_min_root(mp, n):
    """50-digit smallest root of the Laguerre polynomial L_n, n >= 1, the
    radius of log P for the number state |n>.

    L_n = sum_k (-1)^k C(n, k) x^k / k! is positive from 0 up to that root,
    which lies within a factor 1.5 of j_{0,1}^2 / (4n + 2) and below half
    the next one; the Anderson solver refines it inside that bracket.
    """
    with mp.workdps(50):
        coeffs = [(-1) ** k * mp.binomial(n, k) / mp.factorial(k) for k in range(n, -1, -1)]
        guess = mp.besseljzero(0, 1) ** 2 / (4 * n + 2)
        lo, hi = guess / 2, 3 * guess / 2
        assert mp.polyval(coeffs, lo) > 0 > mp.polyval(coeffs, hi)
        return mp.findroot(lambda x: mp.polyval(coeffs, x), (lo, hi), solver="anderson")

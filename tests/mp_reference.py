"""References for the closed-form tests, beside `fock_reference`.

The mp_* functions evaluate at 50 digits with the mpmath module passed
as `mp`, so a test that lacks mpmath skips with `pytest.importorskip`.
`state_entropy` reads the entropy off a rank-one state's own occupations,
a route independent of `dynamics.window_entropy`'s closed form.
"""

import itertools

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


def state_entropy(state: RankOneQuasiFreeState) -> float:
    """Entropy (M-1) s(n) + s(n + n0*<xi,xi>) of M modes, s = occupation_entropy.

    About 1e-14 relative while the occupations are normal floats (beta
    below about 708).  Past that they have lost bits that no formula in n
    recovers, so the entropy is accurate in absolute terms only, and it is
    0 once they underflow (beta from about 745.1).
    """
    return ((state.modes - 1) * occupation_entropy(max(state.n, 0.0))
            + occupation_entropy(max(state.corrected_n, 0.0)))


def mp_beta_star_star(mp, params, m):
    """50-digit beta** = log1p(1/n) of n = share n(beta0) + (1 - share) n(beta),
    with share = |w|^2 |z|^(2(m-1))."""
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        share = wsq * zsq ** (m - 1)
        mix = share * mp_occupation(mp, params.beta0) + (1 - share) * mp_occupation(mp, params.beta)
        return mp.log1p(1 / mix)


def mp_window_entropy(mp, params, n, k):
    """50-digit entropy of the window of S and chain modes k-n+1..k after k steps.

    The weights of the window's slots and of the slots 1..k-n it misses are
    summed slot by slot, |xi_j|^2 = |w|^2 |z|^(2(j-1)) for chain mode j.
    """
    with mp.workdps(50):
        wsq, zsq = mp_step_sq(mp, params)
        share = zsq**k + wsq * mp.fsum(zsq ** (j - 1) for j in range(k - n + 1, k + 1))
        rest = wsq * mp.fsum(zsq ** (j - 1) for j in range(1, k - n + 1))
        n0, nb = mp_occupation(mp, params.beta0), mp_occupation(mp, params.beta)
        return n * mp_entropy(mp, nb) + mp_entropy(mp, share * n0 + rest * nb)


def mp_production(mp, params):
    """50-digit entropy production limit (beta0 - beta)(n(beta) - n(beta0))."""
    with mp.workdps(50):
        d = mp.mpf(params.beta0) - mp.mpf(params.beta)
        return d * (mp_occupation(mp, params.beta) - mp_occupation(mp, params.beta0))


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

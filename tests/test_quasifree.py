"""Thermal occupations, one-mode entropies and rank-one corrected quasi-free states."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp_reference import mp_entropy, mp_occupation, state_entropy
from richain.dynamics import _beta_from_occupation
from richain.quasifree import (
    RankOneQuasiFreeState,
    char_fn,
    mode_entropy,
    occupation,
    occupation_entropy,
)

# reference values computed offline at 50-digit precision
SIGMA_2 = 0.95477125244221922768  # s(n = 1/2), the entropy at beta = ln 3
LN_5 = 1.6094379124341003746

# 50-digit references agree with the double formulas to a few ulps
EDGE_RTOL = 2e-15

# beta over [1e-12, 700], log-uniform and as drawn by hypothesis, plus the vacuum
betas = st.one_of(
    st.floats(math.log(1e-12), math.log(700.0)).map(math.exp),
    st.floats(1e-12, 700.0),
    st.just(math.inf),
)


def close(got, expect):
    """Within EDGE_RTOL of expect, relative; exact where expect is 0 or inf."""
    return got == expect or abs(got - expect) <= EDGE_RTOL * abs(expect)


class TestCovarianceScalar:
    """The mean occupation n(beta), the one thermal coordinate; the covariance
    scalar 2n + 1 appears only inside char_fn."""

    def test_known_points(self):
        assert abs(occupation(math.log(3)) - 0.5) < 1e-15
        assert abs(occupation(math.log(5)) - 0.25) < 1e-15
        assert occupation(math.inf) == 0.0

    def test_occupation_relation(self):
        # 2 n + 1 = coth(beta / 2)
        for beta in (0.3, 1.0, math.log(2), 5.0):
            assert abs((2.0 * occupation(beta) + 1.0) - 1.0 / math.tanh(beta / 2.0)) < 1e-13

    def test_occupation_known_points(self):
        assert abs(occupation(math.log(2)) - 1.0) < 1e-15
        assert abs(occupation(math.log(3)) - 0.5) < 1e-15
        assert occupation(math.inf) == 0.0

    # the library's one temperature inverse is dynamics._beta_from_occupation,
    # beta = log1p(1/n)

    @settings(max_examples=300, deadline=None)
    @given(betas)
    def test_round_trip(self, beta):
        assert close(_beta_from_occupation(occupation(beta)), beta)

    def test_round_trip_near_vacuum(self):
        # 2n + 1 - 1 ~ 2 e^-beta would eat the precision here; n keeps it
        for beta in (18.0, 25.0, 40.0, 700.0):
            assert abs(_beta_from_occupation(occupation(beta)) - beta) <= EDGE_RTOL * beta

    def test_inverse_known_point(self):
        assert abs(_beta_from_occupation(0.25) - LN_5) < 1e-15

    def test_vacuum_boundary(self):
        assert _beta_from_occupation(0.0) == math.inf
        with pytest.raises(ValueError):
            _beta_from_occupation((0.999 - 1.0) / 2.0)

    def test_deep_vacuum_saturates(self):
        # the covariance scalar 2n + 1 rounds to the vacuum exactly at
        # beta = 700, while n = e^-700 (1 + e^-700) stays exact
        n = occupation(700.0)
        assert 2.0 * n + 1.0 == 1.0
        assert abs(n - math.exp(-700.0)) <= 1e-15 * n

    def test_rejects_nonpositive_beta(self):
        for f in (occupation, mode_entropy):
            with pytest.raises(ValueError):
                f(0.0)


class TestSigma:
    """The one-mode entropy s(n) = occupation_entropy(n), and s(beta) = mode_entropy."""

    def test_vacuum_is_zero(self):
        assert occupation_entropy(0.0) == 0.0

    def test_known_values(self):
        assert abs(occupation_entropy(0.5) - SIGMA_2) < 1e-15
        # s(1) = 2 ln 2 exactly
        assert abs(occupation_entropy(1.0) - 2.0 * math.log(2)) < 1e-15

    def test_mode_entropy_consistency(self):
        for beta in (0.4, math.log(2), math.log(3), 2.5):
            assert abs(mode_entropy(beta) - occupation_entropy(occupation(beta))) < 1e-15
        assert mode_entropy(math.inf) == 0.0

    @pytest.mark.parametrize("beta", [1e-12, 1e-8, 1e-4, math.log(2), 30.0, 700.0])
    def test_mode_entropy_matches_mpmath(self, beta):
        mp = pytest.importorskip("mpmath")
        # 1 - e^-b at 50 digits rounds to 1 once b passes ~115: take both
        # terms from expm1/log1p
        with mp.workdps(50):
            b = mp.mpf(beta)
            expect = b / mp.expm1(b) - mp.log1p(-mp.exp(-b))
        assert abs(mode_entropy(beta) - float(expect)) <= 1e-14 * float(expect)

    @pytest.mark.parametrize("beta", [711.8, 721.1, 730.5, 740.0])
    def test_mode_entropy_deep_vacuum_matches_mpmath(self, beta):
        # e^-beta is subnormal here; from beta ~ 715 on s(beta) is too, and
        # the reference rounded to a double sits on the same coarse grid
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            b = mp.mpf(beta)
            expect = float(b / mp.expm1(b) - mp.log1p(-mp.exp(-b)))
        got = mode_entropy(beta)
        assert got > 0.0
        assert abs(got - expect) <= 1e-14 * expect

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 5e3))
    def test_nonnegative_and_monotone(self, n):
        assert occupation_entropy(n) >= 0.0
        assert occupation_entropy(n + 0.25) > occupation_entropy(n) - 1e-15

    def test_rejects_below_one(self):
        # n < 0, a covariance scalar 2n + 1 below one
        for n in (-0.25, math.nan):
            with pytest.raises(ValueError, match="inadmissible occupation"):
                occupation_entropy(n)


class TestOccupationEdges:
    """Hypothesis properties over beta in [1e-12, 700] and +inf, against 50-digit mpmath."""

    @settings(max_examples=300, deadline=None)
    @given(betas)
    def test_occupation_matches_mpmath(self, beta):
        mp = pytest.importorskip("mpmath")
        assert close(occupation(beta), float(mp_occupation(mp, beta)))

    @settings(max_examples=300, deadline=None)
    @given(betas)
    def test_entropy_of_occupation_is_mode_entropy(self, beta):
        mp = pytest.importorskip("mpmath")
        expect = float(mp_entropy(mp, mp_occupation(mp, beta)))
        got = occupation_entropy(occupation(beta))
        assert close(got, expect)
        assert got == mode_entropy(beta) or abs(got - mode_entropy(beta)) <= 2 * EDGE_RTOL * expect

    @settings(max_examples=300, deadline=None)
    @given(betas, betas, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_affine_mix_is_monotone(self, beta0, beta, u, v):
        # n* = w n(beta0) + (1 - w) n(beta) is an occupation of a beta* between
        # beta0 and beta, which moves towards beta0 as the weight w grows
        mp = pytest.importorskip("mpmath")
        n0, nb = occupation(beta0), occupation(beta)
        lo, hi = sorted((u, v))
        mixes = [w * n0 + (1.0 - w) * nb for w in (lo, hi)]
        b_lo, b_hi = (_beta_from_occupation(n) for n in mixes)
        assert min(beta0, beta) * (1 - EDGE_RTOL) <= b_lo <= max(beta0, beta) * (1 + EDGE_RTOL)
        if beta0 >= beta:
            assert b_hi >= b_lo * (1 - EDGE_RTOL)
        else:
            assert b_hi <= b_lo * (1 + EDGE_RTOL)
        # the mix inverts to beta* to a few ulps, as at 50 digits, as long as
        # beta* stays in the range where n is a normal float
        if mixes[0] >= occupation(700.0):
            with mp.workdps(50):
                expect = float(mp.log1p(1 / mp.mpf(mixes[0])))
            assert abs(b_lo - expect) <= EDGE_RTOL * expect


def make_state(modes=3, n=1.0, n_xi=0.5, xi=None):
    if xi is None:
        xi = np.zeros(modes, dtype=complex)
        xi[0] = 1.0
    return RankOneQuasiFreeState(n=n, n_xi=n_xi, xi=xi)


class TestRankOneState:
    def test_admissibility(self):
        # the corrected occupation may not dip below the vacuum
        with pytest.raises(ValueError, match="inadmissible"):
            make_state(n=1.0, n_xi=-0.25)
        with pytest.raises(ValueError):
            make_state(n=-0.25, n_xi=-0.25)
        # within the slack is still admissible
        make_state(n=1.0, n_xi=-1e-13)

    def test_norm_and_correction(self):
        xi = np.array([0.6, 0.8j, 0.0])
        s = make_state(n=0.5, n_xi=0.75, xi=xi)
        assert abs(s.xi_norm_sq - 1.0) < 1e-15
        # the unit direction xi holds n_xi, the two modes off it n
        expect = 2 * occupation_entropy(0.5) + occupation_entropy(0.75)
        assert abs(state_entropy(s) - expect) < 1e-14

    def test_shape_validation(self):
        # the mode count is len(xi): xi is a nonempty vector
        assert len(make_state(modes=3).xi) == 3
        for xi in (np.ones(0, dtype=complex), np.ones((1, 2), dtype=complex), 1.0 + 0j):
            shape = np.shape(xi)
            with pytest.raises(ValueError, match=re.escape(f"nonempty vector, got shape {shape}")):
                make_state(xi=xi)


class TestCharFn:
    def test_normalized_at_zero(self):
        s = make_state()
        assert char_fn(s, np.zeros(3)) == 1.0

    def test_matches_gaussian_formula(self):
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # x = 2n + 1 = 2.2 and 2 (n_xi - n) = 0.7: the exponent split off xi
        # and along it is this one Gaussian
        s = RankOneQuasiFreeState(n=0.6, n_xi=0.95, xi=xi)
        for _ in range(10):
            zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            direct = math.exp(
                -0.25
                * (
                    2.2 * float(np.vdot(zeta, zeta).real)
                    + 0.7 * abs(np.vdot(xi, zeta)) ** 2
                )
            )
            assert abs(char_fn(s, zeta) - direct) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_bounded(self, re, im):
        s = make_state(n=0.35, n_xi=0.8)
        v = char_fn(s, np.array([complex(re, im), 0.1, 0.0]))
        assert 0.0 < v <= 1.0

    def test_gauge_invariance(self):
        s = make_state(n=0.5, n_xi=0.3)
        zeta = np.array([0.3 + 0.1j, -0.2j, 0.5])
        a = char_fn(s, zeta)
        b = char_fn(s, np.exp(0.9j) * zeta)
        assert abs(a - b) < 1e-15

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=re.escape("zeta must have the shape (3,) of xi, got (2,)")):
            char_fn(make_state(), np.zeros(2))


class TestStateEntropy:
    def test_uncorrected_is_extensive(self):
        s = make_state(modes=5, n=0.5, n_xi=0.5)
        assert abs(state_entropy(s) - 5.0 * SIGMA_2) < 1e-14
        assert abs(occupation_entropy(s.n) - SIGMA_2) < 1e-15

    def test_split_adds_up(self):
        s = make_state(modes=4, n=1.0, n_xi=0.5)
        expect = 3 * occupation_entropy(s.n) + occupation_entropy(s.n_xi)
        assert abs(state_entropy(s) - expect) < 1e-14
        # corrected direction sits at n = 1/2 here
        assert abs(occupation_entropy(s.n_xi) - SIGMA_2) < 1e-15

    def test_pure_corrected_direction(self):
        # the corrected mode is the vacuum: zero entropy there
        s = make_state(modes=2, n=1.0, n_xi=0.0)
        assert s.n_xi == 0.0
        assert state_entropy(s) == occupation_entropy(s.n)
        # a corrected occupation just below 0, within the slack, reads as the vacuum
        s = make_state(modes=2, n=1.0, n_xi=-1e-13)
        assert state_entropy(s) == occupation_entropy(s.n)

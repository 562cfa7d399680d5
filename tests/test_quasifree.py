"""Thermal covariance algebra and rank-one corrected quasi-free states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richain.dynamics import _beta_from_occupation
from richain.quasifree import (
    RankOneQuasiFreeState,
    char_fn,
    gibbs_x,
    mode_entropy,
    occupation,
    sigma,
    state_entropy,
)

# reference values computed offline at 50-digit precision
SIGMA_2 = 0.95477125244221922768
LN_5 = 1.6094379124341003746


class TestCovarianceScalar:
    def test_known_points(self):
        assert abs(gibbs_x(math.log(2)) - 3.0) < 1e-15
        assert abs(gibbs_x(math.log(3)) - 2.0) < 1e-15
        assert gibbs_x(math.inf) == 1.0

    def test_occupation_relation(self):
        # x = 2 n + 1
        for beta in (0.3, 1.0, math.log(2), 5.0):
            assert abs(gibbs_x(beta) - (2.0 * occupation(beta) + 1.0)) < 1e-13

    def test_occupation_known_points(self):
        assert abs(occupation(math.log(2)) - 1.0) < 1e-15
        assert abs(occupation(math.log(3)) - 0.5) < 1e-15
        assert occupation(math.inf) == 0.0

    # the library's one temperature inverse is dynamics._beta_from_occupation,
    # beta = log1p(1/n) with n = (x - 1)/2

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 12.0))
    def test_round_trip(self, beta):
        assert abs(_beta_from_occupation(occupation(beta)) - beta) < 1e-10 * max(1.0, beta)

    def test_round_trip_near_vacuum(self):
        # where x - 1 ~ 2 e^-beta ate the precision of an inverse of x, the
        # occupation keeps it
        for beta, tol in ((18.0, 1e-7), (25.0, 1e-2)):
            assert abs(_beta_from_occupation(occupation(beta)) - beta) < tol

    def test_inverse_known_point(self):
        # x = 1.5, n = 1/4
        assert abs(_beta_from_occupation(0.25) - LN_5) < 1e-15

    def test_vacuum_boundary(self):
        assert _beta_from_occupation(0.0) == math.inf
        with pytest.raises(ValueError):
            _beta_from_occupation((0.999 - 1.0) / 2.0)

    def test_deep_vacuum_saturates(self):
        # below double resolution the scalar rounds to the vacuum exactly
        assert gibbs_x(700.0) == 1.0

    def test_rejects_nonpositive_beta(self):
        for f in (gibbs_x, occupation, mode_entropy):
            with pytest.raises(ValueError):
                f(0.0)


class TestSigma:
    def test_vacuum_is_zero(self):
        assert sigma(1.0) == 0.0

    def test_known_values(self):
        assert abs(sigma(2.0) - SIGMA_2) < 1e-15
        # sigma(3) = 2 ln 2 exactly
        assert abs(sigma(3.0) - 2.0 * math.log(2)) < 1e-15

    def test_mode_entropy_consistency(self):
        for beta in (0.4, math.log(2), math.log(3), 2.5):
            assert abs(mode_entropy(beta) - sigma(gibbs_x(beta))) < 1e-13
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
    @given(st.floats(1.0, 1e4))
    def test_nonnegative_and_monotone(self, x):
        assert sigma(x) >= 0.0
        assert sigma(x + 0.5) > sigma(x) - 1e-15

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            sigma(0.5)


def make_state(modes=3, x=3.0, x0=-1.0, xi=None):
    if xi is None:
        xi = np.zeros(modes, dtype=complex)
        xi[0] = 1.0
    return RankOneQuasiFreeState(modes=modes, x=x, x0=x0, xi=xi)


class TestRankOneState:
    def test_admissibility(self):
        # corrected covariance may not dip below the vacuum line
        with pytest.raises(ValueError, match="inadmissible"):
            make_state(x=3.0, x0=-2.5)
        with pytest.raises(ValueError):
            make_state(x=0.5, x0=0.0)

    def test_norm_and_correction(self):
        xi = np.array([0.6, 0.8j, 0.0])
        s = make_state(x=2.0, x0=0.5, xi=xi)
        assert abs(s.xi_norm_sq - 1.0) < 1e-15
        assert abs(s.corrected_x - 2.5) < 1e-15

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_state(modes=3, xi=np.ones(2, dtype=complex))


class TestCharFn:
    def test_normalized_at_zero(self):
        s = make_state()
        assert char_fn(s, np.zeros(3)) == 1.0

    def test_matches_gaussian_formula(self):
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = RankOneQuasiFreeState(modes=4, x=2.2, x0=0.7, xi=xi)
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
        s = make_state(x=1.7, x0=0.9)
        v = char_fn(s, np.array([complex(re, im), 0.1, 0.0]))
        assert 0.0 < v <= 1.0

    def test_gauge_invariance(self):
        s = make_state(x=2.0, x0=-0.4)
        zeta = np.array([0.3 + 0.1j, -0.2j, 0.5])
        a = char_fn(s, zeta)
        b = char_fn(s, np.exp(0.9j) * zeta)
        assert abs(a - b) < 1e-15

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            char_fn(make_state(), np.zeros(2))


class TestStateEntropy:
    def test_uncorrected_is_extensive(self):
        s = make_state(modes=5, x=2.0, x0=0.0)
        assert abs(state_entropy(s) - 5.0 * SIGMA_2) < 1e-14
        assert abs(sigma(s.x) - SIGMA_2) < 1e-15

    def test_split_adds_up(self):
        s = make_state(modes=4, x=3.0, x0=-1.0)
        assert abs(state_entropy(s) - (3 * sigma(s.x) + sigma(s.corrected_x))) < 1e-14
        # corrected direction sits at x = 2 here
        assert abs(sigma(s.corrected_x) - SIGMA_2) < 1e-15

    def test_pure_corrected_direction(self):
        # x0 drives the corrected mode down to the vacuum: zero entropy there
        s = make_state(modes=2, x=3.0, x0=-2.0)
        assert sigma(max(s.corrected_x, 1.0)) == 0.0
        assert state_entropy(s) == sigma(s.x)

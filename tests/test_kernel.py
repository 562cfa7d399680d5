"""Step scalars, step matrices and the closed-form propagator."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from richain.kernel import (
    ModelParams,
    StepScalars,
    as_integer,
    matrix_exponential_check,
    normal_modes,
    propagate_vector,
    step_matrix,
    step_scalars,
)
from richain.experiments import kernel_outputs


def make_params(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8, beta0=math.log(3), beta=math.log(2)):
    return ModelParams(E=E, eps=eps, eta=eta, tau=tau, N=N, beta0=beta0, beta=beta)


@st.composite
def admissible_params(draw):
    E = draw(st.floats(0.1, 5.0))
    eps = draw(st.floats(0.1, 5.0))
    # stay strictly inside the stability region: frac = 1 can round above it
    frac = draw(st.floats(0.0, 0.99))
    tau = draw(st.floats(0.01, 3.0))
    eta = frac * math.sqrt(E * eps)
    return make_params(E=E, eps=eps, eta=eta, tau=tau, N=3)


class TestModelParams:
    def test_rejects_unstable_coupling(self):
        with pytest.raises(ValueError, match="unstable"):
            make_params(E=1.0, eps=1.0, eta=1.5)

    def test_accepts_stability_boundary(self):
        p = make_params(E=1.0, eps=1.0, eta=1.0)
        assert normal_modes(p)[1] == 0.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            make_params(beta=0.0)
        with pytest.raises(ValueError):
            make_params(beta0=-1.0)

    def test_infinite_beta_is_legal(self):
        p = make_params(beta0=math.inf)
        assert p.beta0 == math.inf

    def test_rejects_bad_shape_parameters(self):
        for kwargs in ({"E": 0.0}, {"eps": -1.0}, {"tau": 0.0}, {"N": 0}, {"eta": -0.1}):
            with pytest.raises(ValueError):
                make_params(**kwargs)

    def test_rejects_non_finite_shape_parameters(self):
        # tau = inf used to fail later, in cos(inf) of the step scalars
        for name in ("E", "eps", "eta", "tau"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    make_params(**{name: bad})
        assert make_params(beta0=math.inf, beta=math.inf).beta == math.inf

    def test_n_is_a_whole_number(self):
        for bad in (True, 2.5, math.inf, math.nan, "3", np.bool_(True)):
            with pytest.raises(ValueError, match="^N must be a whole number"):
                make_params(N=bad)
        p = make_params(N=np.float64(3.0))
        assert p.N == 3 and type(p.N) is int


class TestAsInteger:
    def test_whole_numbers_read_as_int(self):
        for value in (3, np.int64(3), 3.0, np.float32(3.0), -2.0):
            got = as_integer(value, "x")
            assert got == int(value) and type(got) is int

    def test_rejects_bool_fraction_and_non_finite(self):
        for bad in (True, False, np.bool_(False), 2.5, 1e-300, math.inf, -math.inf,
                    math.nan, None, "3", [3]):
            with pytest.raises(ValueError, match=r"^count must be a whole number, got "):
                as_integer(bad, "count")

    def test_step_and_slot_counts(self):
        p = make_params(N=4)
        zeta = np.arange(5, dtype=complex)
        assert np.array_equal(propagate_vector(p, 3.0, zeta), propagate_vector(p, 3, zeta))
        assert np.array_equal(step_matrix(p, 2.0), step_matrix(p, 2))
        assert matrix_exponential_check(p, 2.0) == matrix_exponential_check(p, 2)
        for call in (lambda: propagate_vector(p, 2.5, zeta), lambda: step_matrix(p, True),
                     lambda: matrix_exponential_check(p, 1.5)):
            with pytest.raises(ValueError, match="must be a whole number"):
                call()


class TestStepScalars:
    @settings(max_examples=150, deadline=None)
    @given(admissible_params())
    def test_identities(self, p):
        s = step_scalars(p)
        assert abs(abs(s.g) - 1.0) < 1e-12
        assert abs(abs(s.z) ** 2 + abs(s.w) ** 2 - 1.0) < 1e-12
        # w purely imaginary
        assert abs(s.w.real) < 1e-12

    def test_resonant_quarter_period(self):
        # E = eps, eta = 1, t = pi/4: g = 1, w = i/sqrt(2), z = 1/sqrt(2)
        p = make_params(E=1.0, eps=1.0, eta=1.0, tau=math.pi / 4)
        s = step_scalars(p)
        assert s.g == 1.0
        assert abs(s.w - 1j / math.sqrt(2)) < 1e-15
        assert abs(s.z - 1.0 / math.sqrt(2)) < 1e-15

    def test_decoupled(self):
        p = make_params(eta=0.0)
        s = step_scalars(p)
        assert s.w == 0.0
        # gz is then the free phase of the detuned mode
        assert abs(s.g * s.z - cmath.exp(1j * p.tau * (p.E - p.eps))) < 1e-15

    def test_fully_degenerate(self):
        # E = eps and eta = 0: removable 0/0 in w
        p = make_params(E=1.0, eps=1.0, eta=0.0)
        s = step_scalars(p)
        assert s.w == 0.0
        assert s.z == 1.0
        assert s.g == 1.0

    def test_time_argument(self):
        p = make_params()
        s2 = step_scalars(replace(p, tau=2.0 * p.tau))
        half = (p.E - p.eps) / 2.0
        omega = math.hypot(half, p.eta)
        assert abs(s2.z.real - math.cos(2.0 * p.tau * omega)) < 1e-15


class TestGzPower:
    def test_matches_power_at_small_k(self):
        for p in (make_params(), make_params(E=1.0, tau=math.acos(0.1) / 0.5), make_params(eta=0.0)):
            s = step_scalars(p)
            ks = np.arange(40)
            assert np.max(np.abs(s.gz_power(ks) - (s.g * s.z) ** ks)) < 1e-14
            assert abs(s.gz_power(7) - (s.g * s.z) ** 7) < 1e-14

    def test_exact_zero_z(self):
        # gz = 0: k = 0 is exactly 1 and nothing evaluates 0 * log(0)
        s = StepScalars(g=1.0 + 0j, w=1j, z=0j)
        with np.errstate(all="raise"):
            assert s.gz_power(0) == 1.0
            np.testing.assert_array_equal(s.gz_power(np.arange(4)), [1.0, 0.0, 0.0, 0.0])

    def test_scalar_path_is_the_array_path_bitwise(self):
        # one integer must carry the bits of its entry in an array, so products
        # with it round the same whichever powers share the call
        ks = [0, 1, 7, 2**31, 10**9]
        for s in (
            step_scalars(make_params()),
            step_scalars(make_params(E=1.0, tau=math.acos(0.1) / 0.5)),
            step_scalars(make_params(eta=0.0)),
            step_scalars(make_params(tau=1e-3)),
            StepScalars(g=1.0 + 0j, w=1j, z=0j),
        ):
            entries = s.gz_power(np.array(ks))
            for kind in (int, np.int64):
                values = [s.gz_power(kind(k)) for k in ks]
                assert {type(v) for v in values} == {np.complex128}
                np.testing.assert_array_equal(
                    np.array(values).view(np.uint64), entries.view(np.uint64))

    def test_decoupled_is_a_pure_phase(self):
        # w = 0 gives log|z| = 0 exactly, so no modulus drift even at k = 1e8
        s = step_scalars(make_params(eta=0.0))
        assert abs(abs(s.gz_power(10**8)) - 1.0) < 1e-15


class TestStepMatrix:
    @settings(max_examples=100, deadline=None)
    @given(admissible_params(), st.integers(1, 3))
    def test_unitary(self, p, n):
        V = step_matrix(p, n)
        assert np.max(np.abs(V.conj().T @ V - np.eye(p.N + 1))) < 1e-12

    def test_touches_only_two_slots(self):
        p = make_params(N=5)
        V = step_matrix(p, 3)
        mask = np.ones((6, 6), dtype=bool)
        mask[np.ix_([0, 3], [0, 3])] = False
        expected = np.eye(6)[mask]
        assert np.array_equal(V[mask], expected)

    def test_slot_bounds(self):
        p = make_params(N=3)
        for n in (0, 4):
            with pytest.raises(ValueError):
                step_matrix(p, n)

    def test_one_parameter_group(self):
        # V(t) V(s) = V(t+s) on the interacting pair
        p = make_params()
        Vt = step_matrix(replace(p, tau=0.7), 1)
        Vs = step_matrix(replace(p, tau=0.4), 1)
        Vts = step_matrix(replace(p, tau=1.1), 1)
        assert np.max(np.abs(Vt @ Vs - Vts)) < 1e-14


class TestNormalModes:
    def test_decoupled_energies(self):
        p = make_params(E=2.0, eps=1.0, eta=0.0)
        assert normal_modes(p) == (2.0, 1.0)

    def test_matches_eigensolver(self):
        # the generator of one step has eigenvalues {eps0, eps1, eps, ...}
        p = make_params(E=2.3, eps=0.9, eta=0.7, N=4)
        H2 = np.array([[p.E, p.eta], [p.eta, p.eps]])
        vals = np.linalg.eigvalsh(H2)
        eps0, eps1 = normal_modes(p)
        assert abs(eps0 - vals[1]) < 1e-12
        assert abs(eps1 - vals[0]) < 1e-12

    def test_boundary_is_exact_zero(self):
        p = make_params(E=4.0, eps=0.25, eta=1.0)
        assert normal_modes(p)[1] == 0.0


class TestMatrixExponential:
    def test_generator_identities(self):
        p = make_params(N=4)
        for n in range(1, 5):
            assert matrix_exponential_check(p, n) < 1e-10

    def test_custom_time(self):
        p = make_params()
        assert matrix_exponential_check(replace(p, tau=0.3), 2) < 1e-10


class TestPropagateVector:
    def test_matches_explicit_product(self):
        # N = 5, m = 3 against the ordered matrix product
        p = make_params(N=5)
        rng = np.random.default_rng(11)
        phase = cmath.exp(1j * p.tau * p.eps)
        U = np.eye(6, dtype=complex)
        for n in (1, 2, 3):
            U = U @ (phase * step_matrix(p, n))
        for _ in range(20):
            zeta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            out = propagate_vector(p, 3, zeta)
            assert np.max(np.abs(out - U @ zeta)) < 1e-12

    @pytest.mark.parametrize(
        "p",
        [
            make_params(tau=2.0 * 1e6**-0.4, N=256),  # limit-schedule tau at N = 1e6
            make_params(E=1.0, tau=math.acos(0.1) / 0.5, N=256),  # |gz| = 0.1
            make_params(eta=0.0, N=256),  # w = 0
            make_params(E=1.0, tau=math.pi, N=256),  # tau*eta = pi/2, z ~ 0
        ],
        ids=["abs_gz_near_1", "abs_gz_0.1", "w_zero", "z_zero"],
    )
    def test_matches_step_matrix_product(self, p):
        rng = np.random.default_rng(17)
        phase = cmath.exp(1j * p.tau * p.eps)
        for m in (1, 2, 3, 100, 255, 256):
            zeta = rng.standard_normal(257) + 1j * rng.standard_normal(257)
            zeta /= np.linalg.norm(zeta)
            expect = zeta
            for n in range(m, 0, -1):
                expect = phase * (step_matrix(p, n) @ expect)
            out = propagate_vector(p, m, zeta)
            assert np.max(np.abs(out - expect)) < 1e-12

    def test_system_column(self):
        # zeta = theta e0: visited slots read gw(gz)^(m-k), final slot gw
        p = make_params(N=6)
        s = step_scalars(p)
        theta = 0.37 - 0.81j
        m = 4
        zeta = np.zeros(7, dtype=complex)
        zeta[0] = theta
        out = propagate_vector(p, m, zeta)
        phase = cmath.exp(1j * m * p.tau * p.eps)
        assert abs(out[0] - phase * (s.g * s.z) ** m * theta) < 1e-14
        for k in range(1, m):
            expect = phase * s.g * s.w * (s.g * s.z) ** (m - k) * theta
            assert abs(out[k] - expect) < 1e-14
        assert abs(out[m] - phase * s.g * s.w * theta) < 1e-14
        assert np.all(out[m + 1 :] == 0.0)

    def test_decoupled_moduli(self):
        p = make_params(eta=0.0, N=5)
        rng = np.random.default_rng(3)
        zeta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = propagate_vector(p, 4, zeta)
        assert np.max(np.abs(np.abs(out) - np.abs(zeta))) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(admissible_params(), st.integers(1, 3))
    def test_norm_preserved(self, p, m):
        rng = np.random.default_rng(0)
        zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = propagate_vector(p, m, zeta)
        assert abs(np.linalg.norm(out) - np.linalg.norm(zeta)) < 1e-12

    def test_untouched_slots_only_pick_up_phase(self):
        p = make_params(N=6)
        zeta = np.zeros(7, dtype=complex)
        zeta[5] = 1.0
        out = propagate_vector(p, 2, zeta)
        assert abs(out[5] - cmath.exp(2j * p.tau * p.eps)) < 1e-14

    def test_step_bounds(self):
        p = make_params(N=3)
        zeta = np.zeros(4, dtype=complex)
        for m in (0, 4):
            with pytest.raises(ValueError):
                propagate_vector(p, m, zeta)
        with pytest.raises(ValueError):
            propagate_vector(p, 1, np.zeros(3, dtype=complex))


class TestHypotheses:
    # the contraction flags are `kernel_outputs` columns
    def test_flags_on_reference_point(self):
        out = kernel_outputs(make_params())
        assert out["h5_sufficient"]
        assert out["h5_operative"]

    def test_sufficient_implies_operative(self):
        # resonant full swap: t*Omega = pi/2 makes |w| = 1
        p = make_params(E=1.0, eps=1.0, eta=1.0, tau=math.pi / 2)
        out = kernel_outputs(p)
        assert not out["h5_sufficient"]
        assert not out["h5_operative"]
        assert abs(abs(step_scalars(p).w) - 1.0) < 1e-12

    def test_operative_without_sufficient(self):
        # past the sufficient bound but still strictly mixing
        p = make_params(E=1.0, eps=1.0, eta=1.0, tau=2.0)
        out = kernel_outputs(p)
        assert not out["h5_sufficient"]
        assert out["h5_operative"]

    def test_operative_at_tiny_tau(self):
        # |z| rounds to 1.0 at tau = 1e-8, yet log|z| is about -1.25e-17
        p = make_params(tau=1e-8)
        s = step_scalars(p)
        assert abs(s.z) == 1.0 and s.log_abs_z < 0.0
        assert s.contracting
        assert kernel_outputs(p)["h5_operative"]


class TestZsqPowers:
    def test_zero_steps_are_exact(self):
        for s in (step_scalars(make_params()), StepScalars(g=1.0 + 0j, w=1j, z=0j),
                  step_scalars(make_params(eta=0.0))):
            assert s.zsq_power(0) == 1.0
            assert s.zsq_complement(0) == 0.0
            assert s.zsq_geometric(0) == 0.0
            assert s.zsq_geometric(0, 3) == 0.0

    def test_full_swap(self):
        # z = 0: log|z| = -inf, and no 0 * inf reaches a NaN
        s = StepScalars(g=1.0 + 0j, w=1j, z=0j)
        assert s.log_abs_z == -math.inf
        assert s.contracting
        for m in (1, 2, 10**8):
            assert s.zsq_power(m) == 0.0
            assert s.zsq_complement(m) == 1.0
            for p in (1, 2, 3):
                assert s.zsq_geometric(m, p) == 1.0  # only the k = 0 term

    def test_decoupled(self):
        # w = 0: log|z| = 0 exactly, so every power is 1 and the sum is n
        s = step_scalars(make_params(eta=0.0))
        assert s.log_abs_z == 0.0
        assert not s.contracting
        for m in (1, 7, 10**8):
            assert s.zsq_power(m) == 1.0
            assert s.zsq_complement(m) == 0.0
            for p in (1, 2, 3):
                assert s.zsq_geometric(m, p) == float(m)

    def test_match_float_powers_at_small_m(self):
        s = step_scalars(make_params())
        zsq = abs(s.z) ** 2
        for m in range(1, 30):
            assert abs(s.zsq_power(m) - zsq**m) < 1e-14
            assert abs(s.zsq_complement(m) - (1.0 - zsq**m)) < 1e-14
            for p in (1, 2, 3):
                direct = sum(zsq ** (p * k) for k in range(m))
                assert abs(s.zsq_geometric(m, p) - direct) < 1e-14 * direct

    def test_geometric_matches_mpmath_at_1e8(self):
        # |w|^2 about 1e-6: 1 - |z|^2 by subtraction would keep ten digits
        mp = pytest.importorskip("mpmath")
        s = step_scalars(make_params(E=1.0, eps=1.0, eta=1e-3, tau=1.0, N=1))
        assert abs(abs(s.w) ** 2 - 1e-6) < 1e-9
        for n in (10**5, 10**8):
            for p in (1, 2, 3):
                expect = mp_reference.mp_zsq_geometric(mp, abs(s.w), n, p)
                got = s.zsq_geometric(n, p)
                assert abs(got - expect) < 1e-14 * expect

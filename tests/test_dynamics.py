"""Closed-form evolution, reductions and entropies against the brute-force oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_reference as ref
from fock_reference import partial_trace
from mp_reference import (
    mp_beta_star_star,
    mp_entropy,
    mp_occupation,
    mp_production,
    mp_step_sq,
    mp_window_entropy,
    state_entropy,
)
from richain import fock_oracle as fo
from richain import dynamics
from richain.dynamics import (
    effective_beta_S,
    effective_beta_Sm,
    entropy_production_limit,
    evolve_state,
    reduced_char_fn,
    reduced_state,
    relative_entropy,
    subsystem_slots,
    total_entropy,
    window_entropy,
    window_overlap_norm_sq,
)
from richain.kernel import ModelParams, propagate_vector, step_scalars
from richain.quasifree import (
    char_fn,
    mode_entropy,
    occupation,
    occupation_entropy,
)

# reference values computed offline at 50-digit precision
SIGMA_2 = 0.95477125244221922768
PREFACTOR_LN3_LN2 = 0.20273255405408219099
LIMIT_B0_1_B_2 = 0.42545906411966077257
RELENT_2_STD = 0.082485226948163533327
ABS_Z_SQ_STD = 0.7701511529340698587
LN_5 = 1.6094379124341003746


def std_params(N=2, **kwargs):
    base = dict(E=1.0, eps=1.0, eta=0.5, tau=1.0, N=N,
                beta0=math.log(3), beta=math.log(2))
    base.update(kwargs)
    return ModelParams(**base)


class TestEvolveState:
    def test_initial_state(self):
        p = std_params(N=4)
        st = evolve_state(p, 0)
        assert st.modes == 5
        assert abs(st.n - 1.0) < 1e-15
        assert abs(st.n0 - (0.5 - 1.0)) < 1e-15
        expect = np.zeros(5)
        expect[0] = 1.0
        assert np.max(np.abs(st.xi - expect)) < 1e-15

    def test_xi_stays_normalized(self):
        p = std_params(N=30, E=1.7, eta=0.4, tau=0.6)
        for m in (1, 7, 30):
            assert abs(evolve_state(p, m).xi_norm_sq - 1.0) < 1e-12

    def test_composition_with_propagator(self):
        # evolved char fn == initial char fn after moving zeta through the steps
        p = std_params(N=6, E=2.0)
        initial = evolve_state(p, 0)
        rng = np.random.default_rng(4)
        for m in (1, 3, 6):
            st = evolve_state(p, m)
            for _ in range(5):
                zeta = rng.standard_normal(7) + 1j * rng.standard_normal(7)
                moved = propagate_vector(p, m, zeta)
                assert abs(char_fn(st, zeta) - char_fn(initial, moved)) < 1e-14

    def test_step_bounds(self):
        p = std_params(N=3)
        for m in (-1, 4):
            with pytest.raises(ValueError):
                evolve_state(p, m)


ORACLE_D = 16


@pytest.fixture(scope="module")
def oracle_states():
    p = std_params()
    rho = fo.BlockedDensityMatrix.from_thermal_product(
        [p.beta0, p.beta, p.beta], ORACLE_D
    )
    states = [rho]
    for n in (1, 2):
        states.append(fo.evolve_density(states[-1], p, [n]))
    return p, states


class TestOracleAgreement:
    """Three-mode chain against the truncated-Fock referee."""

    def test_char_fn(self, oracle_states):
        p, states = oracle_states
        rng = np.random.default_rng(12)
        for m in (0, 1, 2):
            st = evolve_state(p, m)
            zetas = []
            for _ in range(7):
                zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                zetas.append(zeta * (0.4 / np.linalg.norm(zeta)))
            # the oracle takes all 7 samples in one call
            brute = fo.weyl_expectation(states[m], np.array(zetas))
            for zeta, b in zip(zetas, brute):
                assert abs(char_fn(st, zeta) - b) < 1e-4

    def test_reduced_char_fn_vs_partial_trace(self, oracle_states):
        p, states = oracle_states
        rng = np.random.default_rng(3)
        for kind in ("S", "Sm", "S1", "S_plus_Sm"):
            keep = subsystem_slots(kind, 2)
            reduced = partial_trace(states[2], keep)
            for _ in range(5):
                alphas = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
                alphas *= 0.35 / np.linalg.norm(alphas)
                brute = ref.weyl_expectation(reduced, alphas, ORACLE_D)
                mine = reduced_char_fn(p, 2, keep, alphas if len(keep) > 1 else alphas[0])
                assert abs(mine - brute) < 1e-4

    def test_effective_temperature_of_Sm_marginal(self, oracle_states):
        # the most recent chain mode is exactly thermal at beta**
        p, states = oracle_states
        reduced = partial_trace(states[2], [2])
        expect = fo.thermal_probabilities(effective_beta_Sm(p, 2), ORACLE_D)
        assert np.max(np.abs(np.diag(reduced).real - expect)) < 1e-4

    def test_entropies(self, oracle_states):
        p, states = oracle_states
        # truncation tail at D = 16 sits near 4e-4; the acceptance suite
        # tightens this to 1e-5 at D = 25
        for m in (0, 1, 2):
            assert abs(fo.von_neumann_entropy(states[m]) - total_entropy(p, m)) < 1e-3
        got = fo.relative_entropy_oracle(states[2], states[0])
        assert abs(got - relative_entropy(p, 2)) < 1e-4


class TestReducedCharFn:
    def test_S_is_thermal_at_beta_star(self):
        p = std_params(N=10, E=2.0)
        for m in (0, 3, 10):
            ns = occupation(effective_beta_S(p, m))
            for a in (0.3, 0.5 - 0.2j, 1.1j):
                got = reduced_char_fn(p, m, subsystem_slots("S", m), a)
                assert abs(got - math.exp(-0.25 * (2.0 * ns + 1.0) * abs(a) ** 2)) < 1e-14

    def test_Sm_is_thermal_at_beta_star_star(self):
        p = std_params(N=10, E=2.0)
        for m in (1, 4, 10):
            nss = occupation(effective_beta_Sm(p, m))
            got = reduced_char_fn(p, m, subsystem_slots("Sm", m), 0.7)
            assert abs(got - math.exp(-0.25 * (2.0 * nss + 1.0) * 0.49)) < 1e-14

    def test_pair_marginalizes_to_singles(self):
        p = std_params(N=8, E=2.0)
        pair = subsystem_slots("S_plus_Sm", 5)
        for a in (0.4, 0.2 + 0.3j):
            lhs = reduced_char_fn(p, 5, pair, [a, 0.0])
            rhs = reduced_char_fn(p, 5, subsystem_slots("S", 5), a)
            assert abs(lhs - rhs) < 1e-14
            lhs = reduced_char_fn(p, 5, pair, [0.0, a])
            rhs = reduced_char_fn(p, 5, subsystem_slots("Sm", 5), a)
            assert abs(lhs - rhs) < 1e-14

    def test_distant_pair_factorizes_asymptotically(self):
        # modes m-n and m decorrelate as the window between them grows
        p = std_params(N=90, E=2.0)
        a1, a2 = 0.5, 0.4 - 0.3j

        def correlation_defect(m):
            slots = subsystem_slots("Smn_plus_Sm", m, 5)
            joint = reduced_char_fn(p, m, slots, [a1, a2])
            split = (reduced_char_fn(p, m, slots, [a1, 0.0])
                     * reduced_char_fn(p, m, slots, [0.0, a2]))
            return abs(joint - split)

        assert correlation_defect(40) < 1e-3
        assert correlation_defect(90) < 1e-7
        assert correlation_defect(90) < correlation_defect(40)

    def test_arity_checks(self):
        p = std_params(N=4)
        with pytest.raises(ValueError):
            reduced_char_fn(p, 2, subsystem_slots("S_plus_Sm", 2), [0.1])
        with pytest.raises(ValueError):
            reduced_char_fn(p, 3, subsystem_slots("window", 3, 2), [0.1, 0.2])


def _all_subsystems(N):
    """(kind, m, slots) of every named kind at every step m in 0..N it admits."""
    for m in range(N + 1):
        yield "S", m, subsystem_slots("S", m)
        if m >= 1:
            for kind in ("S1", "Sm", "S_plus_Sm"):
                yield kind, m, subsystem_slots(kind, m)
        for n in range(1, m - 1):
            yield "Smn_plus_Sm", m, subsystem_slots("Smn_plus_Sm", m, n)
        for n in range(m + 1):
            yield "window", m, subsystem_slots("window", m, n)


class TestSlotPath:
    """Marginals on their own slots against the zero-padded full-chain evaluation."""

    def test_reduced_char_fn_matches_zero_padded_full_state(self):
        p = std_params(N=7, E=2.3, eta=0.6, tau=0.8)
        rng = np.random.default_rng(21)
        kinds = set()
        for kind, m, slots in _all_subsystems(p.N):
            kinds.add(kind)
            full_state = evolve_state(p, m)
            for _ in range(3):
                alphas = rng.standard_normal(len(slots)) + 1j * rng.standard_normal(len(slots))
                padded = np.zeros(p.N + 1, dtype=complex)
                padded[slots] = alphas
                expect = char_fn(full_state, padded)
                assert abs(reduced_char_fn(p, m, slots, alphas) - expect) < 1e-15
        assert kinds == set(dynamics._SUBSYSTEM_KINDS)

    def test_window_state_is_restricted_full_xi(self):
        p = std_params(N=9, E=2.0, tau=0.8)
        for k in range(p.N + 1):
            full = evolve_state(p, k)
            for n in range(k + 1):
                slots = [0] + list(range(k - n + 1, k + 1))
                st = reduced_state(p, k, subsystem_slots("window", k, n))
                assert st.modes == n + 1
                assert (st.n, st.n0) == (full.n, full.n0)
                assert np.max(np.abs(st.xi - full.xi[slots])) < 1e-15

    def test_xi_coefficients_restrict_the_full_vector(self):
        p = std_params(N=6, E=1.4, eta=0.3, tau=1.3)
        for m in range(p.N + 1):
            full = reduced_state(p, m, range(p.N + 1)).xi
            assert np.array_equal(full, evolve_state(p, m).xi)
            assert np.all(full[m + 1:] == 0)
            slots = [5, 0, 3]
            assert np.array_equal(reduced_state(p, m, slots).xi, full[slots])
            # any one-dimensional sequence of integers gives the state of the list
            for same in (np.array(slots), [np.int64(j) for j in slots], tuple(slots)):
                assert np.array_equal(reduced_state(p, m, same).xi, full[slots])
            assert np.array_equal(reduced_state(p, m, range(2, 5)).xi,
                                  reduced_state(p, m, [2, 3, 4]).xi)

    def test_xi_coefficients_validation(self):
        p = std_params(N=4)
        for m, slots in ((5, [0]), (-1, [0]), (2, []), (2, [5]), (2, [-1]), (2, [1, 1]),
                         (2, [1.7]), (2, [0, True])):
            with pytest.raises(ValueError):
                reduced_state(p, m, slots)
        # slots come as a one-dimensional sequence, not a bare int or a table
        for bad in (3, np.int64(3), np.array([[0, 1]])):
            with pytest.raises(ValueError, match="nonempty list of slot indices"):
                reduced_state(p, 2, bad)
        # a non-integer slot is named, not truncated or read as slot 1
        for bad in (1.7, True, np.float64(2.0)):
            with pytest.raises(ValueError, match=re.escape(f"integers, got {bad!r}")):
                reduced_state(p, 2, [0, bad])

    @pytest.mark.parametrize("beta0,beta", [
        (math.log(3), math.log(2)), (0.2, 3.0), (math.inf, math.log(2)), (math.inf, 0.1),
    ])
    def test_total_entropy_matches_full_state_entropy(self, beta0, beta):
        p = std_params(N=12, E=2.3, eta=0.8, tau=0.45, beta0=beta0, beta=beta)
        for m in range(p.N + 1):
            full = state_entropy(evolve_state(p, m))
            assert abs(total_entropy(p, m) - full) < 1e-13

    def test_step_range_errors(self):
        p = std_params(N=4)
        # one domain for m, and one message, across the closed forms
        for f, first in ((effective_beta_S, 0), (effective_beta_Sm, 1),
                         (relative_entropy, 0), (total_entropy, 0)):
            for m in (first - 1, 5):
                with pytest.raises(ValueError,
                                   match=re.escape(f"steps m must lie in {first}..4, got {m}")):
                    f(p, m)
        with pytest.raises(ValueError):
            reduced_char_fn(p, 5, subsystem_slots("S", 5), 0.1)
        with pytest.raises(ValueError):
            reduced_char_fn(p, 2, subsystem_slots("S_plus_Sm", 2), [0.1, 0.2, 0.3])


class TestSelectors:
    def test_slot_layout(self):
        assert subsystem_slots("S", 0) == [0]
        assert subsystem_slots("S1", 4) == [1]
        assert subsystem_slots("Sm", 4) == [4]
        assert subsystem_slots("S_plus_Sm", 4) == [0, 4]
        assert subsystem_slots("Smn_plus_Sm", 9, 3) == [6, 9]
        # window: oldest first
        assert subsystem_slots("window", 7, 3) == [0, 5, 6, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            subsystem_slots("bogus", 1)
        with pytest.raises(ValueError):
            subsystem_slots("window", 3, 4)
        with pytest.raises(ValueError):
            subsystem_slots("window", 3)
        with pytest.raises(ValueError):
            subsystem_slots("Smn_plus_Sm", 5, 4)  # m-n = 1
        with pytest.raises(ValueError):
            subsystem_slots("S", 2, 1)
        with pytest.raises(ValueError):
            subsystem_slots("Sm", 0)
        assert len(subsystem_slots("S", 0)) == 1
        assert len(subsystem_slots("window", 5, 2)) == 3


class TestEffectiveTemperatures:
    def test_exact_back_substitution(self):
        # full half-swap step from the vacuum: x* = 2 - 1/2 = 3/2, beta* = ln 5
        p = ModelParams(E=1.0, eps=1.0, eta=1.0, tau=math.pi / 4, N=2,
                        beta0=math.inf, beta=math.log(3))
        assert abs(effective_beta_S(p, 1) - LN_5) < 1e-14

    def test_initial_values(self):
        p = std_params(N=5)
        assert abs(effective_beta_S(p, 0) - math.log(3)) < 1e-13

    def test_affine_identity(self):
        p = std_params(N=60, E=2.0, tau=0.7)
        zsq = abs(step_scalars(p).z) ** 2
        n0, nb = occupation(p.beta0), occupation(p.beta)
        for m in (0, 1, 13, 60):
            got = occupation(effective_beta_S(p, m))
            assert abs(got - (zsq**m * n0 + (1 - zsq**m) * nb)) < 1e-12

    def test_chain_mode_weight(self):
        p = std_params(N=40, E=2.0)
        s = step_scalars(p)
        wsq, zsq = abs(s.w) ** 2, abs(s.z) ** 2
        n0, nb = occupation(p.beta0), occupation(p.beta)
        for m in (1, 5, 40):
            got = occupation(effective_beta_Sm(p, m))
            weight = wsq * zsq ** (m - 1)
            assert abs(got - (weight * n0 + (1 - weight) * nb)) < 1e-12

    def test_cold_distinguished_mode_stays_finite(self):
        # 2n + 1 rounds to 1.0 at beta = 40, so mixing covariance scalars
        # would lose S entirely
        p = std_params(N=3, E=2.0, beta0=40.0, beta=50.0)
        assert abs(effective_beta_S(p, 0) - 40.0) < 1e-12 * 40.0
        s = step_scalars(p)
        for m in (1, 2, 3):
            weight = abs(s.w) ** 2 * abs(s.z) ** (2 * (m - 1))
            # at these temperatures n(beta) = e^-beta to far below double precision
            expect = -math.log(weight * math.exp(-40.0) + (1 - weight) * math.exp(-50.0))
            assert abs(effective_beta_Sm(p, m) - expect) < 1e-12 * expect
            zsq_m = abs(s.z) ** (2 * m)
            expect = -math.log(zsq_m * math.exp(-40.0) + (1 - zsq_m) * math.exp(-50.0))
            assert abs(effective_beta_S(p, m) - expect) < 1e-12 * expect

    def test_vacuum_stays_infinite(self):
        p = std_params(N=3, beta0=math.inf, beta=math.inf)
        assert effective_beta_S(p, 2) == math.inf
        assert effective_beta_Sm(p, 2) == math.inf
        assert effective_beta_S(std_params(N=3, beta0=math.inf), 0) == math.inf

    def test_both_converge_to_chain_temperature(self):
        p = std_params(N=200, E=2.0)
        assert abs(effective_beta_S(p, 200) - math.log(2)) < 1e-9
        assert abs(effective_beta_Sm(p, 200) - math.log(2)) < 1e-9


class TestContractionPowers:
    def test_limit_schedule_matches_mpmath_at_1e6(self):
        # |z|^(2m) as exp(m log1p(-|w|^2)); the float power of |z|^2 was off
        # by about 1e-11 relative here
        mp = pytest.importorskip("mpmath")
        N, n = 1_000_000, 1000
        p = std_params(N=N, E=2.0, eps=1.0, eta=0.1, tau=2.0 * float(N) ** -0.4)
        with mp.workdps(50):
            wsq, zsq = mp_step_sq(mp, p)
            n0, nb = (mp_occupation(mp, b) for b in (p.beta0, p.beta))
            weight_S, weight_Sm = zsq**N, wsq * zsq ** (N - 1)
            expect = [
                mp.log1p(1 / (weight_S * n0 + (1 - weight_S) * nb)),
                mp.log1p(1 / (weight_Sm * n0 + (1 - weight_Sm) * nb)),
                (mp.mpf(p.beta0) - p.beta) * (nb - n0) * (1 - weight_S),
                zsq**N + wsq * zsq ** (N - n) * (1 - zsq**n) / wsq,
            ]
            expect = [float(v) for v in expect]
        assert 0.3 < float(zsq**N) < 0.7
        got = [
            effective_beta_S(p, N),
            effective_beta_Sm(p, N),
            relative_entropy(p, N),
            window_overlap_norm_sq(p, n, N),
        ]
        for g, e in zip(got, expect):
            assert abs(g - e) < 1e-14 * abs(e)

    def test_exact_at_zero_steps_and_zero_coupling(self):
        p = std_params(N=10, E=2.0)
        assert relative_entropy(p, 0) == 0.0
        assert effective_beta_S(p, 0) == p.beta0
        decoupled = std_params(N=10, eta=0.0)
        assert relative_entropy(decoupled, 7) == 0.0
        assert window_overlap_norm_sq(decoupled, 4, 9) == 1.0


class TestEntropies:
    def test_total_entropy_value_and_invariance(self):
        p = std_params()
        expect = 2.0 * 2.0 * math.log(2) + SIGMA_2  # 2 s(ln 2) + s(ln 3)
        for m in (0, 1, 2):
            assert abs(total_entropy(p, m) - expect) < 1e-13

    def test_invariance_generic_params(self):
        p = std_params(N=25, E=2.3, eta=0.8, tau=0.45)
        values = [total_entropy(p, m) for m in range(0, 26, 5)]
        assert max(values) - min(values) < 1e-12

    def test_relative_entropy_reference_value(self):
        assert abs(relative_entropy(std_params(), 2) - RELENT_2_STD) < 1e-15

    def test_relative_entropy_closed_form(self):
        p = std_params(N=50)
        for n in (0, 1, 7, 50):
            expect = PREFACTOR_LN3_LN2 * (1.0 - ABS_Z_SQ_STD**n)
            assert abs(relative_entropy(p, n) - expect) < 1e-14

    def test_monotone_nondecreasing(self):
        p = std_params(N=30, E=2.0)
        vals = [relative_entropy(p, n) for n in range(31)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_zero_when_same_temperature(self):
        p = std_params(beta0=math.log(2))
        assert relative_entropy(p, 2) == 0.0

    def test_infinite_beta_rejected(self):
        with pytest.raises(ValueError):
            relative_entropy(std_params(beta0=math.inf), 1)
        with pytest.raises(ValueError):
            entropy_production_limit(std_params(beta=math.inf))


class TestEntropyProductionLimit:
    def test_reference_values(self):
        assert abs(entropy_production_limit(std_params()) - PREFACTOR_LN3_LN2) < 1e-15
        p = std_params(beta0=1.0, beta=2.0)
        assert abs(entropy_production_limit(p) - LIMIT_B0_1_B_2) < 1e-15

    def test_positive_off_equilibrium(self):
        assert entropy_production_limit(std_params()) > 0.0
        assert entropy_production_limit(std_params(beta0=0.1, beta=3.0)) > 0.0

    def test_exact_geometric_tail(self):
        p = std_params(N=150)
        limit = entropy_production_limit(p)
        for n in (1, 40, 150):
            gap = limit - relative_entropy(p, n)
            assert abs(gap - limit * ABS_Z_SQ_STD**n) < 1e-15 * max(1.0, limit)

    def test_requires_strict_contraction(self):
        # eta = 0 leaves |z| = 1: no mixing, no limit statement
        with pytest.raises(ValueError):
            entropy_production_limit(std_params(eta=0.0))

    def test_limit_at_tiny_tau(self):
        # |z| rounds to 1.0 at tau = 1e-8, but log|z| < 0: the limit exists
        # and does not depend on tau
        p = std_params(E=2.0, tau=1e-8)
        assert abs(step_scalars(p).z) == 1.0
        assert entropy_production_limit(p) == entropy_production_limit(std_params(E=2.0))


class TestWindow:
    def test_norm_closed_vs_embedding(self):
        p = std_params(N=8, E=2.0)
        for n, k in ((2, 5), (0, 4), (3, 3), (4, 8)):
            slots = [0] + list(range(k - n + 1, k + 1))
            total = 0.0
            for slot in slots:
                e = np.zeros(9, dtype=complex)
                e[slot] = 1.0
                total += abs(propagate_vector(p, k, e)[0]) ** 2
            assert abs(total - window_overlap_norm_sq(p, n, k)) < 1e-12

    def test_single_mode_window_is_beta_star(self):
        # n = 0 keeps only the distinguished mode
        p = std_params(N=12, E=2.0)
        for k in (1, 6, 12):
            assert abs(
                window_entropy(p, 0, k) - mode_entropy(effective_beta_S(p, k))
            ) < 1e-13

    def test_entropy_approaches_background(self):
        p = std_params(N=64, E=2.0)
        n = 3
        limit = (n + 1) * occupation_entropy(occupation(p.beta))
        errs = [abs(window_entropy(p, n, k) - limit) for k in (10, 30, 64)]
        norms = [window_overlap_norm_sq(p, n, k) for k in (10, 30, 64)]
        assert errs[0] > errs[1] > errs[2]
        # error tracks the overlap norm: ratio pinned near beta |n0 - n|
        ratio = errs[2] / norms[2]
        expect = p.beta * abs(occupation(p.beta0) - occupation(p.beta))
        assert abs(ratio - expect) / expect < 0.05

    def test_decoupled_window_keeps_initial_entropy(self):
        # eta = 0: |z| = 1, where the geometric sum is exactly n
        p = std_params(N=10, eta=0.0)
        assert abs(window_overlap_norm_sq(p, 2, 6) - 1.0) < 1e-12
        expect = 2.0 * mode_entropy(p.beta) + mode_entropy(p.beta0)
        assert abs(window_entropy(p, 2, 6) - expect) < 1e-13

    def test_full_swap_window(self):
        # tau*Omega = pi/2: z ~ 0, each step swaps S with the fresh mode, so
        # S's original state is parked in chain mode 1 and the recent window
        # holds nothing but background thermal modes
        p = ModelParams(E=1.0, eps=1.0, eta=1.0, tau=math.pi / 2, N=6,
                        beta0=math.log(3), beta=math.log(2))
        assert window_overlap_norm_sq(p, 1, 4) < 1e-60
        st = reduced_state(p, 4, subsystem_slots("window", 4, 1))
        assert st.modes == 2
        assert abs(window_entropy(p, 1, 4) - 2.0 * mode_entropy(p.beta)) < 1e-13

    def test_window_state_norm_matches(self):
        p = std_params(N=9, E=2.0, tau=0.8)
        st = reduced_state(p, 7, subsystem_slots("window", 7, 3))
        assert abs(st.xi_norm_sq - window_overlap_norm_sq(p, 3, 7)) < 1e-13

    def test_bounds(self):
        p = std_params(N=5)
        with pytest.raises(ValueError):
            window_overlap_norm_sq(p, 3, 2)
        with pytest.raises(ValueError):
            window_entropy(p, 1, 6)


class TestDeepCold:
    """beta0 = 40, beta = 45, where the covariance scalar 2n + 1 rounds to 1.

    The entropies there are near 1e-16, but they are not zero, and the
    occupations carry them to full relative precision.
    """

    @staticmethod
    def params():
        return ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8, beta0=40.0, beta=45.0)

    def test_state_is_not_the_vacuum(self):
        p = self.params()
        st = evolve_state(p, 3)
        assert abs(st.n - math.exp(-45.0)) <= 1e-15 * st.n
        assert st.n0 > 0.0
        assert abs(state_entropy(st) - total_entropy(p, 3)) <= 1e-12 * total_entropy(p, 3)

    def test_distinguished_mode_is_thermal_at_beta_star(self):
        p = self.params()
        got = state_entropy(reduced_state(p, 3, [0]))
        expect = mode_entropy(effective_beta_S(p, 3))
        assert got > 0.0
        assert abs(got - expect) <= 1e-12 * expect

    def test_window_entropy_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        p = self.params()
        n, k = 2, 5
        got = window_entropy(p, n, k)
        wsq = abs(step_scalars(p).w) ** 2
        with mp.workdps(50):
            nb, n0 = (mp_occupation(mp, b) for b in (p.beta, p.beta0))
            zsq = 1 - mp.mpf(wsq)
            overlap = zsq**k + wsq * zsq ** (k - n) * (1 - zsq**n) / (1 - zsq)
            expect = float(n * mp_entropy(mp, nb) + mp_entropy(mp, nb + overlap * (n0 - nb)))
        assert got > 0.0
        assert abs(got - expect) <= 1e-12 * expect


class TestSubnormalOccupations:
    """Past beta = 708 the mean occupations are subnormal floats.

    Their inverse must not overflow to +inf, and the entropies they carry
    keep their relative accuracy only while n is a normal float.
    """

    @staticmethod
    def params(beta0, beta):
        return ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8, beta0=beta0, beta=beta)

    def test_beta_from_subnormal_occupation_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for n in (1e-310, 5e-324, math.exp(-720.0)):
            with mp.workdps(50):
                expect = float(mp.log1p(1 / mp.mpf(n)))
            assert abs(dynamics._beta_from_occupation(n) - expect) <= 1e-15 * expect
        # a normal n keeps the direct form
        assert dynamics._beta_from_occupation(1e-300) == math.log1p(1e300)

    def test_effective_betas_stay_finite_past_709(self):
        mp = pytest.importorskip("mpmath")
        p = self.params(720.0, 730.0)
        wsq = abs(step_scalars(p).w) ** 2
        assert abs(effective_beta_S(p, 0) - 720.0) <= 1e-14 * 720.0
        with mp.workdps(50):
            n0, nb = (mp_occupation(mp, b) for b in (p.beta0, p.beta))
            zsq = 1 - mp.mpf(wsq)
            for m in range(1, p.N + 1):
                for got, weight in ((effective_beta_S(p, m), zsq**m),
                                    (effective_beta_Sm(p, m), wsq * zsq ** (m - 1))):
                    expect = float(mp.log1p(1 / (weight * n0 + (1 - weight) * nb)))
                    # n(720) keeps about 40 bits, so about 1e-13 relative
                    assert abs(got - expect) <= 1e-12 * expect

    def test_entropy_accuracy_domain(self):
        # one mode at beta0 = beta is thermal at beta: relative accuracy while
        # n(beta) is normal, then an absolute error of beta times a few
        # subnormal spacings
        for beta, rel in ((712.0, 1e-14), (720.0, 1e-11), (730.0, 1e-6)):
            got = state_entropy(reduced_state(self.params(beta, beta), 3, [0]))
            expect = mode_entropy(beta)
            assert got > 0.0
            assert abs(got - expect) <= rel * expect
            assert abs(got - expect) <= 1e-320


def within(got, expect, rtol=1e-15):
    """|got - expect| <= rtol |expect|, plus two subnormal spacings for a value
    that itself lies below the normal range."""
    return abs(got - float(expect)) <= rtol * abs(expect) + 1e-323


class TestOccupationMixEdges:
    """beta**, the window entropy and the production against 50-digit mpmath
    where one occupation dwarfs the other or the two nearly cancel."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_beta_star_star_near_full_swap(self, m):
        mp = pytest.importorskip("mpmath")
        p = ModelParams(E=1.0, eps=1.0, eta=0.5, tau=math.pi - 2e-5, N=3,
                        beta0=700.0, beta=math.log(2))
        assert within(effective_beta_Sm(p, m), mp_beta_star_star(mp, p, m))

    @pytest.mark.parametrize("beta0", [30.0, 50.0, 300.0])
    @pytest.mark.parametrize("n,k", [(0, 0), (0, 3), (2, 5), (3, 3)])
    def test_window_entropy_of_a_cold_s(self, beta0, n, k):
        mp = pytest.importorskip("mpmath")
        p = std_params(N=8, E=2.0, beta0=beta0)
        got = window_entropy(p, n, k)
        assert got > 0.0
        assert within(got, mp_window_entropy(mp, p, n, k))

    @pytest.mark.parametrize("beta", [1e-6, 0.1, math.log(2), 5.0, 50.0, 300.0])
    @pytest.mark.parametrize("r", [1e-3, 1e-6, 1e-9, 1e-12, -1e-7, 0.5, -0.5, 3.0])
    def test_production_at_nearly_equal_temperatures(self, beta, r):
        mp = pytest.importorskip("mpmath")
        p = std_params(E=2.0, beta0=beta * (1.0 + r), beta=beta)
        assert within(entropy_production_limit(p), mp_production(mp, p))

    def test_production_far_apart_is_finite(self):
        # beta0 - beta = 999.9: expm1 would overflow, and n(beta0) is 0
        got = entropy_production_limit(std_params(E=2.0, beta0=1000.0, beta=0.1))
        assert math.isfinite(got)
        assert abs(got - 999.9 * occupation(0.1)) <= 1e-15 * got

    def test_window_entropy_matches_reduced_state_entropy(self):
        # the O(1) closed form and the entropy of the (n+1)-slot reduced state
        p = std_params(N=8, E=2.0)
        for n in range(4):
            for k in range(n, p.N + 1):
                expect = state_entropy(reduced_state(p, k, subsystem_slots("window", k, n)))
                assert within(window_entropy(p, n, k), expect)

    betas = st.floats(math.log(1e-12), math.log(700.0)).map(math.exp)

    @settings(max_examples=40, deadline=None)
    @given(betas, betas, st.sampled_from([None, 1e-3, -1e-7, 1e-12]),
           st.integers(1, 8), st.integers(0, 8), st.integers(0, 8))
    def test_mix_and_production_match_mpmath(self, beta0, beta, offset, m, n, k):
        # with an offset, beta0 sits that close to beta, where the occupations cancel
        mp = pytest.importorskip("mpmath")
        if offset is not None:
            beta0 = beta * (1.0 + offset)
        n, k = min(n, k), max(n, k)
        p = std_params(N=8, E=2.0, beta0=beta0, beta=beta)
        assert within(effective_beta_Sm(p, m), mp_beta_star_star(mp, p, m))
        assert within(window_entropy(p, n, k), mp_window_entropy(mp, p, n, k))
        assert within(entropy_production_limit(p), mp_production(mp, p))


class TestIntegerArguments:
    """Step and slot counts are whole numbers: a bool or a fraction is named,
    not truncated or read as 1, and a whole float reads as its integer."""

    def test_bool_or_fraction_is_named(self):
        p = std_params(N=4)
        for call, name in (
            (lambda: effective_beta_S(p, 2.5), "steps m"),
            (lambda: relative_entropy(p, True), "steps m"),
            (lambda: reduced_char_fn(p, 2.5, [0], 0.5), "steps m"),
            (lambda: window_overlap_norm_sq(p, 1.5, 3), "window n"),
            (lambda: window_entropy(p, 1, math.nan), "window k"),
            (lambda: subsystem_slots("Sm", 2.5), "m"),
            (lambda: subsystem_slots("window", 3, math.inf), "n"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
                call()

    def test_whole_float_reads_as_integer(self):
        p = std_params(N=4, E=2.0)
        assert effective_beta_Sm(p, 3.0) == effective_beta_Sm(p, 3)
        assert window_entropy(p, 1.0, 3.0) == window_entropy(p, 1, 3)
        assert subsystem_slots("window", 3.0, 1.0) == [0, 3]

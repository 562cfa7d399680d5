"""Validation of the truncated-Fock brute-force machinery.

The oracle is the independent referee for the closed forms, so its own
checks lean on third routes: textbook thermal identities and the dense
reference in `fock_reference`, the kron-embedded step Hamiltonian
exponentiated by scipy's expm.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

import fock_reference as ref
from fock_reference import blocks, diagonal, partial_trace, sector_blocks, to_dense, trace
from richain import fock_oracle as fo
from richain.kernel import ModelParams


def make_params(E=1.0, eps=1.0, eta=0.5, tau=1.0, N=2, beta0=math.log(3), beta=math.log(2)):
    return ModelParams(E=E, eps=eps, eta=eta, tau=tau, N=N, beta0=beta0, beta=beta)


def _generic_blocked_state(modes, D, rng):
    """State whose sector blocks are generic positive Hermitian matrices."""
    sizes = np.diff(ref.sector_starts(modes, D)).tolist()
    mats = []
    for k in sizes:
        A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        mats.append(A @ A.conj().T)
    trace = sum(np.trace(b).real for b in mats)
    return ref.from_sector_blocks(modes, D, [(b + b.conj().T) / (2 * trace) for b in mats])


class TestLadder:
    def test_matrix_elements(self):
        a = fo.build_ladder(5)
        for n in range(4):
            assert a[n, n + 1] == math.sqrt(n + 1)
        assert np.count_nonzero(a) == 4

    def test_commutator_off_the_edge(self):
        # [a, a+] = 1 except in the last Fock level, where truncation bites
        D = 7
        a = fo.build_ladder(D)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.max(np.abs(comm[: D - 1, : D - 1] - np.eye(D - 1)[: D - 1])) < 1e-14
        assert abs(comm[D - 1, D - 1] + (D - 1)) < 1e-12


class TestThermal:
    def test_probabilities_geometric(self):
        p = fo.thermal_probabilities(math.log(2), 10)
        assert abs(p.sum() - 1.0) < 1e-14
        ratios = p[1:] / p[:-1]
        assert np.max(np.abs(ratios - 0.5)) < 1e-12

    def test_vacuum(self):
        p = fo.thermal_probabilities(math.inf, 6)
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_number_moments(self):
        # beta = ln 2: <n> = 1 and <n^2> = 3 for the untruncated state
        D = 60
        p = fo.thermal_probabilities(math.log(2), D)
        n = np.arange(D)
        assert abs((p * n).sum() - 1.0) < 1e-12
        assert abs((p * n * n).sum() - 3.0) < 1e-12

    def test_gibbs_density_entropy(self):
        p = fo.thermal_probabilities(math.log(3), 40)
        rho = np.diag(p).astype(complex)
        assert abs(rho.trace().real - 1.0) < 1e-14
        assert p[-1] < 1e-15
        from richain.quasifree import mode_entropy

        assert abs(ref.entropy(rho) - mode_entropy(math.log(3))) < 1e-12


class TestDensityContainers:
    @pytest.mark.parametrize(
        "probs, match",
        [([0.5, 0.5, 0.0], "length"), ([3.0, 3.0], "sum to 1"), ([2.0, -1.0], "sum to 1"),
         ([math.nan, 1.0], "sum to 1"), ([math.inf, 0.0], "sum to 1")],
    )
    def test_product_rejects_bad_probabilities(self, probs, match):
        with pytest.raises(ValueError, match=match):
            fo.BlockedDensityMatrix.from_diagonal_product([[1.0, 0.0], probs], 2)

    def test_product_needs_a_mode(self):
        with pytest.raises(ValueError, match="need at least one mode"):
            fo.BlockedDensityMatrix.from_diagonal_product([], 4)
        with pytest.raises(ValueError, match="need at least one mode"):
            fo.BlockedDensityMatrix.from_thermal_product([], 4)

    def test_cutoff_is_the_matrix_size(self):
        # the batch reads its cutoff off the one-mode matrix: the displacement
        # headroom sqrt(D)/4 is the one of D = 5
        rho = np.diag(fo.thermal_probabilities(1.0, 5)).astype(complex)
        fo.weyl_expectation_batch(fo.OneModeWeyl(rho), np.array([0.75]))
        with pytest.raises(ValueError, match="sqrt\\(D\\)/4 = 0.559"):
            fo.weyl_expectation_batch(fo.OneModeWeyl(rho), np.array([0.8]))
        with pytest.raises(ValueError, match="square"):
            fo.weyl_expectation_batch(fo.OneModeWeyl(rho[:3]), np.array([0.1]))

    def test_blocked_matches_kron_product(self):
        betas = [math.log(3), math.log(2)]
        D = 6
        blocked = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        assert abs(trace(blocked) - 1.0) < 1e-14
        dense = to_dense(blocked)
        p0 = fo.thermal_probabilities(betas[0], D)
        p1 = fo.thermal_probabilities(betas[1], D)
        direct = np.kron(np.diag(p0), np.diag(p1)).astype(complex)
        assert np.max(np.abs(dense - direct)) < 1e-14

    def test_diagonal_roundtrip(self):
        blocked = fo.BlockedDensityMatrix.from_thermal_product([1.0, 2.0], 5)
        diag = diagonal(blocked)
        total = sum(float(d.sum().real) for d in diag)
        assert abs(total - trace(blocked)) < 1e-14

    def test_blocks_are_read_only(self):
        # a cached spectrum stays valid only while no block can change
        p = make_params(N=1)
        blocked = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta], 5)
        evolved = fo.evolve_density(blocked, p, [1])
        direct = ref.from_sector_blocks(2, 5, sector_blocks(evolved))
        for rho in (blocked, evolved, direct):
            with pytest.raises(ValueError, match="read-only"):
                blocks(rho)[3][0, 0] = 0.5


class TestHamiltonianAndStep:
    def test_matches_scipy_expm(self):
        # the per-step evolution must equal expm of the truncated generator
        p = make_params(E=1.3, eps=0.8, eta=0.6, tau=0.9, N=2)
        D = 6
        H = ref.step_hamiltonian(p, 1, modes=2, cutoff=D)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
        U = scipy.linalg.expm(-1j * p.tau * H)
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta], D)
        direct = U @ to_dense(rho0) @ U.conj().T
        evolved = fo.evolve_density(rho0, p, [1])
        assert np.max(np.abs(to_dense(evolved) - direct)) < 1e-12

    def test_conserves_total_number(self):
        p = make_params(N=2)
        D = 5
        H = ref.step_hamiltonian(p, 2, modes=3, cutoff=D)
        n1 = np.diag(np.arange(D)).astype(complex)
        eye = np.eye(D)
        total = (
            np.kron(np.kron(n1, eye), eye)
            + np.kron(np.kron(eye, n1), eye)
            + np.kron(np.kron(eye, eye), n1)
        )
        assert np.max(np.abs(H @ total - total @ H)) < 1e-12

    def test_dense_guard(self):
        p = make_params(N=2)
        with pytest.raises(ValueError, match="guard"):
            ref.step_hamiltonian(p, 1, modes=3, cutoff=30)

    def test_blocked_equals_dense_evolution(self):
        p = make_params(E=2.0, eps=1.0, eta=0.7, tau=0.8, N=2)
        D = 7
        blocked = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], D
        )
        dense = to_dense(blocked)
        b2 = fo.evolve_density(fo.evolve_density(blocked, p, [1]), p, [2])
        d2 = ref.evolve(ref.evolve(dense, p, [1], 3, D), p, [2], 3, D)
        assert np.max(np.abs(to_dense(b2) - d2)) < 1e-12

    @pytest.mark.parametrize("schedule", [[1, 3], [2, 1, 3], [1, 2, 1]])
    def test_blocked_equals_dense_from_generic_state(self, schedule):
        # a non-product start: every sector block is a full Hermitian matrix
        p = make_params(E=1.7, eps=1.1, eta=0.6, tau=0.9)
        blocked = _generic_blocked_state(4, 5, np.random.default_rng(len(schedule)))
        dense = to_dense(blocked)
        got = to_dense(fo.evolve_density(blocked, p, schedule))
        expect = ref.evolve(dense, p, schedule, 4, 5)
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_evolution_preserves_trace_and_entropy(self):
        p = make_params()
        blocked = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], 10
        )
        evolved = fo.evolve_density(blocked, p, [1, 2])
        assert abs(trace(evolved) - 1.0) < 1e-12
        assert abs(
            fo.von_neumann_entropy(evolved) - fo.von_neumann_entropy(blocked)
        ) < 1e-10


def _kron_pair_hamiltonian(E, eps, eta, D):
    a = fo.build_ladder(D)
    num = np.diag(np.arange(D)).astype(complex)
    eye = np.eye(D, dtype=complex)
    return (
        E * np.kron(num, eye)
        + eps * np.kron(eye, num)
        + eta * (np.kron(a.conj().T, a) + np.kron(a, a.conj().T))
    )


class TestPairUnitary:
    @pytest.mark.parametrize("D", [2, 7, 16])
    @pytest.mark.parametrize(
        "E, eps, eta, tau",
        [
            (1.3, 0.8, 0.6, 0.9),  # generic
            (1.1, 1.1, 0.0, 0.7),  # free: E = eps, eta = 0
            (2.0, 0.5, 1.0, 0.6),  # stability edge: eta^2 = E*eps
        ],
    )
    def test_blocks_match_expm(self, D, E, eps, eta, tau):
        pair_blocks = fo._pair_blocks(E, eps, eta, tau, D)
        assert len(pair_blocks) == 2 * D - 1
        U2 = np.zeros((D * D, D * D), dtype=complex)
        for p, block in enumerate(pair_blocks):
            assert not block.flags.writeable
            n0 = np.arange(max(0, p - D + 1), min(p, D - 1) + 1)
            idx = n0 * D + (p - n0)
            U2[np.ix_(idx, idx)] = block
        expect = scipy.linalg.expm(-1j * tau * _kron_pair_hamiltonian(E, eps, eta, D))
        assert np.max(np.abs(U2 - expect)) < 1e-13
        # the two-mode step applies exactly these blocks
        params = make_params(E=E, eps=eps, eta=eta, tau=tau)
        rho = _generic_blocked_state(2, D, np.random.default_rng(D))
        got = to_dense(fo.evolve_density(rho, params, [1]))
        assert np.max(np.abs(got - U2 @ to_dense(rho) @ U2.conj().T)) < 1e-13

    def test_cache_keys_on_tau(self):
        first = fo._pair_blocks(1.0, 1.0, 0.5, 1.0, 6)
        other = fo._pair_blocks(1.0, 1.0, 0.5, 0.5, 6)
        assert other is not first
        assert max(np.max(np.abs(a - b)) for a, b in zip(first, other)) > 1e-3
        assert fo._pair_blocks(1.0, 1.0, 0.5, 1.0, 6) is first


def _full_block_entropy(rho):
    lam = np.clip(np.concatenate([np.linalg.eigvalsh(b) for b in sector_blocks(rho)]), 0.0, None)
    lam = lam[lam > fo.EIG_FLOOR]
    return float(-(lam * np.log(lam)).sum())


def _full_block_relative_entropy(rho, rho0):
    total = -_full_block_entropy(rho)
    for b, b0 in zip(sector_blocks(rho), sector_blocks(rho0)):
        p0 = np.diagonal(b0).real
        live = p0 > fo.EIG_FLOOR
        total -= float((np.diagonal(b).real[live] * np.log(p0[live])).sum())
    return total


class TestGroupedSpectra:
    """Spectra grouped by uncoupled occupations against full-block eigvalsh."""

    def _assert_matches_full_block(self, rho, rho0):
        assert abs(fo.von_neumann_entropy(rho) - _full_block_entropy(rho)) < 1e-13
        got = fo.relative_entropy_oracle(rho, rho0)
        assert abs(got - _full_block_relative_entropy(rho, rho0)) < 1e-13

    def test_three_modes_each_step(self):
        p = make_params(E=2.0, eps=1.0, eta=0.7, tau=0.8)
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta, p.beta], 9)
        rho1 = fo.evolve_density(rho0, p, [1])
        rho2 = fo.evolve_density(rho1, p, [2])
        for rho in (rho0, rho1, rho2):
            self._assert_matches_full_block(rho, rho0)

    @pytest.mark.parametrize("modes, schedule", [(4, [1, 3]), (3, [1, 2, 1])])
    def test_partial_and_revisiting_schedules(self, modes, schedule):
        # [1, 3] leaves mode 2 uncoupled; [1, 2, 1] revisits slot 1
        p = make_params(eta=0.6, tau=0.7)
        betas = [p.beta0] + [p.beta, 1.0, 0.8][: modes - 1]
        rho0 = fo.BlockedDensityMatrix.from_thermal_product(betas, 9)
        for k in range(1, len(schedule) + 1):
            rho = fo.evolve_density(rho0, p, schedule[:k])
            self._assert_matches_full_block(rho, rho0)

    def test_state_built_from_blocks_takes_full_blocks(self):
        # blocks of a coupled state, handed in directly: no structure is known,
        # so grouping by any mode's occupation would drop coherences
        p = make_params()
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta, p.beta], 9)
        evolved = fo.evolve_density(rho0, p, [1, 2])
        direct = ref.from_sector_blocks(3, 9, sector_blocks(evolved))
        assert direct._layout.coupled == frozenset(range(3))
        self._assert_matches_full_block(direct, rho0)
        assert abs(fo.von_neumann_entropy(direct) - fo.von_neumann_entropy(rho0)) < 1e-12

    def test_spectrum_computed_once_per_state(self, monkeypatch):
        p = make_params()
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta, p.beta], 7)
        rho2 = fo.evolve_density(rho0, p, [1, 2])
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        fo.von_neumann_entropy(rho2)
        first = len(calls)
        fo.relative_entropy_oracle(rho2, rho0)
        fo.von_neumann_entropy(rho2)
        assert first > 0
        assert len(calls) == first


class TestCompactLayout:
    """States stored by groups of equal uncoupled occupations."""

    def test_stored_entry_counts(self):
        p = make_params()
        D = 9
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta, p.beta], D)
        rho1 = fo.evolve_density(rho0, p, [1])
        rho2 = fo.evolve_density(rho1, p, [2])
        pair_sizes = [len(fo._pair_occupations(q, D)) for q in range(2 * D - 1)]
        sector_sizes = np.diff(ref.sector_starts(3, D)).tolist()
        expect = [D**3, D * sum(k * k for k in pair_sizes), sum(k * k for k in sector_sizes)]
        assert expect == [729, 4401, 32661]
        for rho, count in zip((rho0, rho1, rho2), expect):
            assert sum(b.size for b in blocks(rho)) == count
            assert blocks(rho)[0].base.size == count
        assert all(b.shape == (1, 1) for b in blocks(rho0))
        assert max(len(b) for b in blocks(rho1)) == D

    def test_blocks_share_one_buffer(self):
        p = make_params()
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta, p.beta], 7)
        evolved = [fo.evolve_density(rho0, p, s) for s in ([1], [1, 2], [1, 2, 1])]
        direct = ref.from_sector_blocks(3, 7, sector_blocks(evolved[1]))
        for rho in [rho0, direct] + evolved:
            base = blocks(rho)[0].base
            assert all(b.base is base for b in blocks(rho))
            assert not base.flags.writeable

    @pytest.mark.parametrize(
        "modes, D, schedule", [(3, 6, [1]), (3, 6, [1, 2]), (3, 6, [1, 2, 1]), (4, 5, [1, 3])]
    )
    def test_compact_equals_sector_copy(self, modes, D, schedule):
        p = make_params(E=1.7, eps=1.1, eta=0.6, tau=0.9)
        betas = [p.beta0] + [p.beta, 1.0, 0.8][: modes - 1]
        rho0 = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        compact = fo.evolve_density(rho0, p, schedule)
        copy = ref.from_sector_blocks(modes, D, sector_blocks(compact))
        rng = np.random.default_rng(modes * 10 + len(schedule))
        for _ in range(3):
            zeta = 0.3 * (rng.standard_normal(modes) + 1j * rng.standard_normal(modes))
            assert abs(fo.weyl_expectation(compact, zeta) - fo.weyl_expectation(copy, zeta)) < 1e-13
        assert abs(fo.von_neumann_entropy(compact) - fo.von_neumann_entropy(copy)) < 1e-13
        expect = ref.relative_entropy(to_dense(compact), to_dense(rho0))
        for rho in (compact, copy):
            assert abs(fo.relative_entropy_oracle(rho, rho0) - expect) < 1e-13
        assert np.max(np.abs(to_dense(compact) - to_dense(copy))) < 1e-13
        nxt_compact = fo.evolve_density(compact, p, [modes - 1])
        nxt_copy = fo.evolve_density(copy, p, [modes - 1])
        assert np.max(np.abs(to_dense(nxt_compact) - to_dense(nxt_copy))) < 1e-13


class TestWeyl:
    def test_one_mode_thermal_expectation(self):
        # Tr[rho_beta w(zeta)] = exp(-(2n(beta)+1)|zeta|^2/4), textbook Gaussian
        from richain.quasifree import occupation

        beta = math.log(2)
        D = 50
        rho = fo.BlockedDensityMatrix.from_thermal_product([beta], D)
        for zeta in (0.3, 0.4 - 0.2j, 0.7j):
            exact = math.exp(-0.25 * (2.0 * occupation(beta) + 1.0) * abs(zeta) ** 2)
            got = fo.weyl_expectation(rho, np.array([zeta]))
            assert abs(got - exact) < 1e-10

    def test_weyl_composition_phase(self):
        # w(a) w(b) = exp(-(i/2) Im(conj(a) b)) w(a+b), checked as matrices
        D = 70
        a_, b_ = 0.4 + 0.2j, -0.3 + 0.5j
        wa = fo._one_mode_weyl(a_, D)
        wb = fo._one_mode_weyl(b_, D)
        wab = fo._one_mode_weyl(a_ + b_, D)
        phase = np.exp(-0.5j * (np.conj(a_) * b_).imag)
        inner = slice(0, D - 12)
        assert np.max(np.abs((wa @ wb - phase * wab)[inner, inner])) < 1e-8

    def test_unitary(self):
        w = fo._one_mode_weyl(0.6 - 0.9j, 30)
        assert np.max(np.abs(w @ w.conj().T - np.eye(30))) < 1e-12

    def test_blocked_equals_dense_expectation(self):
        p = make_params()
        D = 8
        blocked = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], D
        )
        evolved = fo.evolve_density(blocked, p, [1, 2])
        rng = np.random.default_rng(2)
        for _ in range(5):
            zeta = 0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            vb = fo.weyl_expectation(evolved, zeta)
            vd = ref.weyl_expectation(to_dense(evolved), zeta, D)
            assert abs(vb - vd) < 1e-12

    def test_batch_matches_single(self):
        rho = np.diag(fo.thermal_probabilities(math.log(2), 24))
        blocked = fo.BlockedDensityMatrix.from_thermal_product([math.log(2)], 24)
        rng = np.random.default_rng(9)
        alphas = 0.5 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        batch = 1.0 + fo.weyl_expectation_batch(fo.OneModeWeyl(rho), alphas)
        for i, a in enumerate(alphas):
            single = fo.weyl_expectation(blocked, np.array([a]))
            assert abs(batch[i] - single) < 1e-12

    def test_batch_minus_one(self):
        # the batch returns Tr[rho w(alpha)] - 1, exact at alpha = 0
        p = fo.thermal_probabilities(math.log(3), 24)
        rho = np.diag(p)
        blocked = fo.BlockedDensityMatrix.from_thermal_product([math.log(3)], 24)
        alphas = np.array([0.0, 0.05j, 0.2 - 0.1j])
        shifted = fo.weyl_expectation_batch(fo.OneModeWeyl(rho), alphas)
        vals = np.array([fo.weyl_expectation(blocked, np.array([a])) for a in alphas])
        assert shifted[0] == 0.0
        assert np.max(np.abs(shifted - (vals - 1.0))) < 1e-13
        # no cancellation: at |alpha| = 1e-6 the shift is -|alpha|^2 Tr[rho (a a^dag
        # + a^dag a)]/4 to relative O(|alpha|^2); a a^dag is 0 on the top level
        n = np.arange(24)
        second = float(p @ (2 * n + 1)) - 24 * p[-1]
        tiny = fo.weyl_expectation_batch(fo.OneModeWeyl(rho), np.array([1e-6j]))[0]
        assert abs(tiny - (-0.25e-12 * second)) < 1e-9 * 0.25e-12 * second

    def test_batch_capacity(self):
        # one call takes up to `capacity` alphas, and no more
        weyl = fo.OneModeWeyl(np.diag(fo.thermal_probabilities(1.0, 16)))
        alphas = np.full(weyl.capacity + 1, 0.3 - 0.2j)
        one = complex(fo.weyl_expectation_batch(weyl, alphas[:1])[0])
        full = fo.weyl_expectation_batch(weyl, alphas[:-1])
        assert np.all(full == one)
        with pytest.raises(ValueError, match=f"at most {weyl.capacity} alphas"):
            fo.weyl_expectation_batch(weyl, alphas)

    @pytest.mark.parametrize("D", [15, 24])
    def test_batch_general_state(self, D):
        # odd D has a zero mode; a random rho fills every offset, odd ones included
        rng = np.random.default_rng(D)
        A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        rho = A @ A.conj().T / np.trace(A @ A.conj().T).real
        radius = 0.3 * math.sqrt(D) * rng.uniform(0.0, 1.0, 30)
        alphas = np.append(radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 30)), 0.0)
        shifted = fo.weyl_expectation_batch(fo.OneModeWeyl(rho), alphas)
        single = np.array([ref.weyl_expectation(rho, [a], D) for a in alphas])
        assert np.max(np.abs(1.0 + shifted - single)) < 1e-12

    @pytest.mark.parametrize("modes, D", [(2, 9), (2, 10), (3, 7), (3, 8), (4, 5), (4, 6)])
    def test_blocked_equals_dense_on_generic_states(self, modes, D):
        # evolved, revisiting and constructor-built states, odd and even cutoffs
        p = make_params(E=1.7, eps=1.1, eta=0.6, tau=0.9)
        betas = [p.beta0] + [p.beta, 1.0, 0.8][: modes - 1]
        rho0 = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        revisit = [1, 2, 1] if modes > 2 else [1, 1, 1]
        rng = np.random.default_rng(10 * modes + D)
        states = [
            fo.evolve_density(rho0, p, range(1, modes)),
            fo.evolve_density(rho0, p, revisit),
            _generic_blocked_state(modes, D, rng),
        ]
        for rho in states:
            dense = to_dense(rho)
            for _ in range(4):
                zeta = 0.5 * rng.uniform(0.2, 1.0, modes) * np.exp(
                    2j * np.pi * rng.uniform(0.0, 1.0, modes)
                )
                vb = fo.weyl_expectation(rho, zeta)
                vd = ref.weyl_expectation(dense, zeta, D)
                assert abs(vb - vd) < 1e-13

    def test_headroom_guard(self):
        rho = fo.BlockedDensityMatrix.from_thermal_product([1.0], 6)
        with pytest.raises(ValueError, match="cutoff"):
            fo.weyl_expectation(rho, np.array([5.0]))

    @pytest.mark.parametrize("layout", [
        "product", "one_mode", "pair", "revisit", "two_modes_revisit", "four_modes_pair",
        "four_modes", "generic", "generic_four_modes", "sector_copy",
    ])
    def test_rows_equal_single_calls(self, layout):
        # one (K, modes) call against K one-row calls, on every layout the
        # dense and sector-copy comparisons build
        p = make_params(E=1.7, eps=1.1, eta=0.6, tau=0.9)
        rng = np.random.default_rng(len(layout))
        modes, D = (4, 5) if "four" in layout else (2, 9) if "two" in layout else (3, 7)
        modes = 1 if layout == "one_mode" else modes
        rho0 = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0] + [p.beta, 1.0, 0.8][: modes - 1], D
        )
        if layout.startswith("generic"):
            rho = _generic_blocked_state(modes, D, rng)
        elif layout == "sector_copy":
            rho = ref.from_sector_blocks(modes, D, sector_blocks(fo.evolve_density(rho0, p, [1])))
        else:
            schedule = {"pair": [1], "revisit": [1, 2, 1], "two_modes_revisit": [1, 1, 1],
                        "four_modes_pair": [1, 3], "four_modes": [1, 2, 3]}.get(layout, [])
            rho = fo.evolve_density(rho0, p, schedule)
        zetas = 0.5 * rng.uniform(0.0, 1.0, (6, modes)) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, (6, modes))
        )
        rows = fo.weyl_expectation(rho, zetas)
        assert rows.shape == (6,)
        single = [fo.weyl_expectation(rho, z) for z in zetas]
        assert all(type(v) is complex for v in single)
        assert np.max(np.abs(rows - np.array(single))) <= 1e-15
        assert abs(fo.weyl_expectation(rho, zetas[:1])[0] - single[0]) <= 1e-15
        assert fo.weyl_expectation(rho, np.zeros((0, modes))).shape == (0,)

    def test_rows_check_their_width(self):
        rho = fo.BlockedDensityMatrix.from_thermal_product([1.0, 1.0, 1.0], 6)
        for zetas in (np.zeros(2), np.zeros(4), np.zeros((5, 2)), np.zeros((2, 5, 3)), 0.1):
            with pytest.raises(ValueError, match="modes = 3"):
                fo.weyl_expectation(rho, zetas)

    def test_headroom_guard_reads_every_row(self):
        # sqrt(6)/4 = 0.612 bounds |zeta|/sqrt(2), so |zeta| = 0.9 passes and 0.9j
        # in the second row's last mode fails, naming the cutoff
        rho = fo.BlockedDensityMatrix.from_thermal_product([1.0, 1.0], 6)
        fo.weyl_expectation(rho, np.array([[0.1, 0.2], [0.3, 0.8j]]))
        with pytest.raises(ValueError, match="of cutoff D = 6; raise the cutoff"):
            fo.weyl_expectation(rho, np.array([[0.1, 0.2], [0.3, 0.9j], [0.1, 0.1]]))


class TestPartialTrace:
    def test_thermal_marginals(self):
        betas = [math.log(3), 1.0, math.log(2)]
        D = 7
        blocked = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        for keep in range(3):
            red = partial_trace(blocked, [keep])
            expect = np.diag(fo.thermal_probabilities(betas[keep], D))
            assert np.max(np.abs(red - expect)) < 1e-13

    def test_blocked_equals_dense(self):
        p = make_params()
        D = 6
        blocked = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], D
        )
        evolved = fo.evolve_density(blocked, p, [1, 2])
        for keep in ([0], [1], [0, 2], [0, 1]):
            rb = partial_trace(evolved, keep)
            rd = ref.dense_partial_trace(to_dense(evolved), 3, D, keep)
            assert np.max(np.abs(rb - rd)) < 1e-12

    def test_keep_order_is_ascending_sites(self):
        betas = [math.log(3), math.log(2)]
        D = 5
        blocked = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        red = partial_trace(blocked, [1])
        assert np.max(np.abs(np.diag(red).real
                             - fo.thermal_probabilities(math.log(2), D))) < 1e-13

    def test_trace_preserved(self):
        blocked = fo.BlockedDensityMatrix.from_thermal_product([1.0, 2.0, 0.5], 5)
        red = partial_trace(blocked, [0, 1])
        assert abs(red.trace().real - 1.0) < 1e-13


class TestEntropies:
    def test_product_entropy_additive(self):
        from richain.quasifree import mode_entropy

        betas = [math.log(3), math.log(2)]
        D = 45
        blocked = fo.BlockedDensityMatrix.from_thermal_product(betas, D)
        expect = sum(mode_entropy(b) for b in betas)
        assert abs(fo.von_neumann_entropy(blocked) - expect) < 1e-10

    def test_pure_state_zero(self):
        rho = fo.BlockedDensityMatrix.from_diagonal_product([np.eye(5)[1]], 5)
        assert fo.von_neumann_entropy(rho) == 0.0

    def test_relative_entropy_self_is_zero(self):
        blocked = fo.BlockedDensityMatrix.from_thermal_product([1.0, 2.0], 8)
        assert abs(fo.relative_entropy_oracle(blocked, blocked)) < 1e-12

    def test_relative_entropy_thermal_pair(self):
        # one mode: Ent(rho_b1 | rho_b0) from the truncated spectra directly
        b1, b0 = math.log(2), math.log(3)
        D = 45
        p1 = fo.thermal_probabilities(b1, D)
        p0 = fo.thermal_probabilities(b0, D)
        live = p1 > 0
        direct = float((p1[live] * (np.log(p1[live]) - np.log(p0[live]))).sum())
        rho1 = fo.BlockedDensityMatrix.from_thermal_product([b1], D)
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([b0], D)
        got = fo.relative_entropy_oracle(rho1, rho0)
        assert abs(got - direct) < 1e-10

    def test_relative_entropy_after_evolution(self):
        # blocked path with a non-diagonal first argument
        p = make_params()
        D = 10
        rho0 = fo.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], D
        )
        evolved = fo.evolve_density(rho0, p, [1, 2])
        got = fo.relative_entropy_oracle(evolved, rho0)
        dense = ref.relative_entropy(to_dense(evolved), to_dense(rho0))
        assert got >= 0.0
        assert abs(got - dense) < 1e-10

    def test_relative_entropy_rejects_negative_eigenvalue(self):
        # the Tr[rho ln rho] term is minus the von Neumann entropy, with its
        # eigenvalue check
        ref_state = fo.BlockedDensityMatrix.from_thermal_product([1.0, 2.0], 4)
        buffer = ref_state._buffer.copy()
        buffer[:2] += [1e-6, -buffer[1] - 1e-6]
        bad = fo.BlockedDensityMatrix(ref_state._layout, buffer)
        with pytest.raises(ValueError, match="clamp tolerance"):
            fo.relative_entropy_oracle(bad, ref_state)

    def test_coupled_reference_raises(self):
        # ln rho0 is read off the diagonal, which needs a product reference
        p = make_params(N=1)
        rho0 = fo.BlockedDensityMatrix.from_thermal_product([p.beta0, p.beta], 6)
        evolved = fo.evolve_density(rho0, p, [1])
        with pytest.raises(ValueError, match="coupled mode"):
            fo.relative_entropy_oracle(rho0, evolved)

    def test_support_violation_raises(self):
        # reference supported on the vacuum only cannot dominate a thermal state
        rho1 = fo.BlockedDensityMatrix.from_thermal_product([math.log(2)], 8)
        vac = fo.BlockedDensityMatrix.from_thermal_product([math.inf], 8)
        with pytest.raises(ValueError, match="support"):
            fo.relative_entropy_oracle(rho1, vac)


class TestInterface:
    @pytest.mark.parametrize(
        "call",
        [
            lambda rho: fo.evolve_density(rho, make_params(), [1]),
            lambda rho: fo.weyl_expectation(rho, np.array([0.1])),
            fo.von_neumann_entropy,
            lambda rho: fo.relative_entropy_oracle(rho, rho),
            lambda rho: fo.relative_entropy_oracle(
                fo.BlockedDensityMatrix.from_thermal_product([1.0], 6), rho
            ),
        ],
        ids=["evolve_density", "weyl_expectation", "von_neumann_entropy",
             "relative_entropy_oracle", "relative_entropy_oracle_reference"],
    )
    def test_rejects_dense_state(self, call):
        rho = np.diag(fo.thermal_probabilities(1.0, 6)).astype(complex)
        with pytest.raises(ValueError, match="BlockedDensityMatrix"):
            call(rho)

    def test_batch_rejects_other_states(self):
        # the batch takes a square one-mode matrix, not a blocked state
        for rho in (fo.BlockedDensityMatrix.from_thermal_product([1.0], 6),
                    np.full(6, 1 / 6, dtype=complex)):
            with pytest.raises(ValueError, match="square"):
                fo.weyl_expectation_batch(fo.OneModeWeyl(rho), np.array([0.1]))

    def test_imports_no_closed_form(self):
        # agreement with the closed forms is evidence only while the oracle
        # is built without them
        tree = ast.parse(pathlib.Path(fo.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append("." * node.level + (node.module or ""))
        assert imported
        assert not [name for name in imported if name.startswith((".", "richain"))]

"""Schedules, chain-state specs, limit runs, convergence studies and sweeps."""

import cmath
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fock_reference as ref
import mp_reference
from convergence import convergence_study
from richain import fock_oracle
from richain.dynamics import effective_beta_S, evolve_state, total_entropy
from richain.experiments import (
    ORACLE_MAX_N,
    ChainStateSpec,
    LimitSchedule,
    _CHUNK,
    _PRODUCT_TERM_CAP,
    _SERIES_ORDER,
    _chain_log,
    _chain_product_log,
    _head_length,
    _log_series,
    _series_log,
    moment_hypothesis_check,
    oracle_deltas,
    oracle_states,
    short_time_limit_run,
    sweep,
)
from richain.kernel import ModelParams, propagate_vector, step_scalars
from richain.quasifree import char_fn, occupation


def std_params(N=10, **kwargs):
    base = dict(E=1.0, eps=1.0, eta=1.0, tau=0.1, N=N,
                beta0=math.log(3), beta=math.log(2))
    base.update(kwargs)
    return ModelParams(**base)


class TestLimitSchedule:
    def test_defaults(self):
        s = LimitSchedule()
        assert s.exponent == 0.4
        assert s.multiplier == 2.0
        assert s.checkpoints == (100, 1_000, 10_000, 100_000, 1_000_000)
        assert abs(s.tau(100) - 2.0 * 100 ** (-0.4)) < 1e-15

    def test_scaling_window_enforced(self):
        # tau^2 N -> inf needs a < 1/2, tau^3 N -> 0 needs a > 1/3
        for a in (0.2, 1.0 / 3.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                LimitSchedule(exponent=a)
        LimitSchedule(exponent=0.34)
        LimitSchedule(exponent=0.49)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            LimitSchedule(checkpoints=(100,))
        with pytest.raises(ValueError):
            LimitSchedule(checkpoints=(100, 100))
        with pytest.raises(ValueError):
            LimitSchedule(checkpoints=(1000, 100))
        with pytest.raises(ValueError):
            LimitSchedule(multiplier=0.0)
        # a fraction is named, not truncated to (100, 1000)
        with pytest.raises(ValueError, match=r"^checkpoints\[0\] must be a whole number"):
            LimitSchedule(checkpoints=(100.9, 1000.2))
        assert LimitSchedule(checkpoints=(100.0, 1000)).checkpoints == (100, 1000)

    def test_scaling_sequences(self):
        s = LimitSchedule()
        tsq = [s.tau(n) ** 2 * n for n in s.checkpoints]
        tcb = [s.tau(n) ** 3 * n for n in s.checkpoints]
        assert all(b > a for a, b in zip(tsq, tsq[1:]))
        assert all(b < a for a, b in zip(tcb, tcb[1:]))


class TestChainStateSpec:
    def test_gibbs(self):
        spec = ChainStateSpec(kind="gibbs", beta=math.log(2))
        assert spec.min_cutoff == 2
        # symmetric moment is the untruncated covariance scalar
        assert abs(spec.symmetric_moment() - 3.0) < 1e-15
        rho = spec.density(12)
        assert abs(np.trace(rho).real - 1.0) < 1e-14

    def test_number_state(self):
        spec = ChainStateSpec(kind="number_state", level=1)
        assert spec.min_cutoff >= 3
        assert abs(spec.symmetric_moment() - 3.0) < 1e-15
        rho = spec.density(6)
        expect = np.zeros((6, 6))
        expect[1, 1] = 1.0
        assert np.max(np.abs(rho - expect)) < 1e-15

    def test_custom(self):
        m = np.diag([0.75, 0.25]).astype(complex)
        spec = ChainStateSpec(kind="custom", rho=m)
        assert spec.min_cutoff == 2
        # zero-padded to the working cutoff
        rho = spec.density(5)
        assert rho.shape == (5, 5)
        assert abs(rho[1, 1] - 0.25) < 1e-15
        assert np.all(rho[2:, 2:] == 0.0)
        # 2 <n> + 1 through the CCR
        assert abs(spec.symmetric_moment() - 1.5) < 1e-14

    @pytest.mark.parametrize("rho", [
        np.diag([1.0]), np.diag([0.5, 0.0, 0.25, 0.0, 0.25]), np.diag(np.exp(-0.7 * np.arange(30))),
    ], ids=["level-0", "sparse", "thermal-30"])
    def test_series_and_moment_sum_only_nonzero_weights(self, rho):
        # the same bits as the sum over every (n, k) pair, in the same order
        spec = ChainStateSpec(kind="custom", rho=np.pad(rho, (0, 1)) / np.trace(rho))
        p = np.diagonal(spec.density(spec.min_cutoff)).real
        every = np.array([(-1) ** k * sum(p[n] * (math.comb(n, k) / math.factorial(k))
                                          for n in range(k, len(p))) for k in range(len(p))])
        assert spec.factorial_series().tobytes() == every.tobytes()
        assert spec.symmetric_moment() == 1.0 - 2.0 * float(every[1])

    def test_number_state_series_is_one_term_per_order(self, monkeypatch):
        # a number state has one nonzero weight, so level 1000 takes C(1000, k)
        # once per order k <= 1000, where every (n, k) pair took about 500,000
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append(k) or comb(n, k))
        spec = ChainStateSpec(kind="number_state", level=1000)
        assert spec.symmetric_moment() == 2001.0 and not calls
        c = spec.factorial_series()
        assert calls == list(range(1001))
        assert c[1] == -1000.0 and c[1001] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainStateSpec(kind="gibbs")
        with pytest.raises(ValueError):
            ChainStateSpec(kind="gibbs", beta=-1.0)
        with pytest.raises(ValueError):
            ChainStateSpec(kind="number_state")
        with pytest.raises(ValueError):
            ChainStateSpec(kind="number_state", level=-1)
        # a fraction is named, not accepted with min_cutoff 3.7
        for bad in (1.7, True):
            with pytest.raises(ValueError, match="^level must be a whole number"):
                ChainStateSpec(kind="number_state", level=bad)
        assert ChainStateSpec(kind="number_state", level=1.0).density(3)[1, 1] == 1.0
        with pytest.raises(ValueError):
            ChainStateSpec(kind="custom")
        with pytest.raises(ValueError):
            ChainStateSpec(kind="bogus", beta=1.0)
        # cross-field contamination
        with pytest.raises(ValueError):
            ChainStateSpec(kind="gibbs", beta=1.0, level=2)
        with pytest.raises(ValueError, match="^unknown chain-state kind 'bogus'$"):
            ChainStateSpec(kind="bogus")
        with pytest.raises(ValueError, match="^cutoff 2 below the spec minimum 3$"):
            ChainStateSpec(kind="number_state", level=1).density(2)

    def test_custom_matrix_checks(self):
        bad_trace = np.diag([0.5, 0.2]).astype(complex)
        with pytest.raises(ValueError):
            ChainStateSpec(kind="custom", rho=bad_trace)
        non_herm = np.array([[0.8, 0.3], [0.0, 0.2]], dtype=complex)
        with pytest.raises(ValueError):
            ChainStateSpec(kind="custom", rho=non_herm)
        neg = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            ChainStateSpec(kind="custom", rho=neg)
        with pytest.raises(ValueError, match="square"):
            ChainStateSpec(kind="custom", rho=np.eye(3, dtype=complex)[:2] / 2)
        # NaN passes every comparison-based check, and inf breaks eigvalsh
        for bad in (math.nan, math.inf, -math.inf):
            off = np.diag([0.5, 0.5]).astype(complex)
            off[0, 1] = off[1, 0] = bad
            for rho in (off, np.diag([bad, 0.5]).astype(complex)):
                with pytest.raises(ValueError, match="non-finite"):
                    ChainStateSpec(kind="custom", rho=rho)


def _expectation(spec, cutoff, op):
    """Tr[rho op] for the spec's density at the cutoff, op built from the ladder a."""
    a = fock_oracle.build_ladder(cutoff)
    return complex(np.trace(spec.density(cutoff) @ op(a, a.conj().T)))


def flagged_moments(spec):
    """The (Tr[rho a], Tr[rho aa]) that `moment_hypothesis_check`'s ValueError names."""
    with pytest.raises(ValueError, match="moment hypotheses") as exc:
        moment_hypothesis_check(spec)
    named = re.search(r"Tr\[rho a\] = (\S+), Tr\[rho aa\] = (\S+)$", str(exc.value))
    return complex(named[1]), complex(named[2])


class TestMomentHypothesisCheck:
    def test_gibbs_reference(self):
        spec = ChainStateSpec(kind="gibbs", beta=math.log(2))
        assert moment_hypothesis_check(spec) is None
        tr_a, tr_aa = spec.gauge_moments()
        assert abs(tr_a) < 1e-14
        assert abs(tr_aa) < 1e-14
        # moments of the untruncated state, read off the truncated density
        number_sq = _expectation(spec, 45, lambda a, ad: (ad @ a) @ (ad @ a))
        assert abs(number_sq - 3.0) < 1e-10
        # second moment of the field equals the symmetric moment 2n + 1
        field_sq = _expectation(spec, 45, lambda a, ad: (a + ad) @ (a + ad))
        assert abs(field_sq - 3.0) < 1e-10
        assert abs(_expectation(spec, 45, lambda a, ad: ad @ a) - 1.0) < 1e-10
        assert abs(_expectation(spec, 45, lambda a, ad: a @ ad) - 2.0) < 1e-10

    def test_number_state(self):
        spec = ChainStateSpec(kind="number_state", level=1)
        assert moment_hypothesis_check(spec) is None
        assert abs(spec.symmetric_moment() - 3.0) < 1e-14
        number_sq = _expectation(spec, 12, lambda a, ad: (ad @ a) @ (ad @ a))
        assert abs(number_sq - 1.0) < 1e-14
        assert abs(_expectation(spec, 12, lambda a, ad: ad @ a) - 1.0) < 1e-14

    def test_moments_read_the_native_matrix(self):
        # every moment of a random 6 x 6 density against dense ladder products
        rng = np.random.default_rng(16)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = m @ m.conj().T
        spec = ChainStateSpec(kind="custom", rho=rho / np.trace(rho))
        tr_a, tr_aa = spec.gauge_moments()
        assert abs(tr_a - _expectation(spec, 6, lambda a, ad: a)) < 1e-14
        assert abs(tr_aa - _expectation(spec, 6, lambda a, ad: a @ a)) < 1e-14
        # (-1)^k f_k / (k!)^2 over the factorial moments f_k = Tr[rho a*^k a^k]
        c = spec.factorial_series()
        assert abs(c[0] - 1.0) < 1e-14
        assert abs(c[1] + _expectation(spec, 6, lambda a, ad: ad @ a)) < 1e-14
        assert abs(c[2] - _expectation(spec, 6, lambda a, ad: ad @ ad @ a @ a) / 4.0) < 1e-14
        assert abs(spec.symmetric_moment() - (1.0 - 2.0 * c[1])) < 1e-14
        # |3> gives the Laguerre polynomial L_3(x) = 1 - 3x + 3x^2/2 - x^3/6
        level3 = ChainStateSpec(kind="number_state", level=3).factorial_series()
        assert np.max(np.abs(level3 - [1.0, -3.0, 1.5, -1.0 / 6.0, 0.0])) < 1e-15
        with pytest.raises(ValueError, match="gibbs"):
            ChainStateSpec(kind="gibbs", beta=1.0).factorial_series()

    def test_gauge_breaking_states_flagged(self):
        psi01 = np.zeros(4, dtype=complex)
        psi01[0] = psi01[1] = 1.0 / math.sqrt(2)
        coherent_like = ChainStateSpec(kind="custom", rho=np.outer(psi01, psi01.conj()))
        tr_a, tr_aa = flagged_moments(coherent_like)
        assert abs(tr_a - 0.5) < 1e-14
        assert tr_aa == 0

        psi02 = np.zeros(4, dtype=complex)
        psi02[0] = psi02[2] = 1.0 / math.sqrt(2)
        squeezed_like = ChainStateSpec(kind="custom", rho=np.outer(psi02, psi02.conj()))
        tr_a, tr_aa = flagged_moments(squeezed_like)
        assert tr_a == 0
        assert abs(tr_aa - math.sqrt(2) / 2.0) < 1e-14


_PSI03 = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)


def streamed_value(template, schedule, spec, theta, n_steps, cutoff=60):
    """The run's value at checkpoint n_steps with all n_steps chain terms
    evaluated one by one through `_chain_product_log`, at `cutoff`."""
    tau = schedule.tau(n_steps)
    s = step_scalars(replace(template, tau=tau, N=n_steps))
    weyl = fock_oracle.OneModeWeyl(spec.density(cutoff))
    phase = cmath.exp(1j * n_steps * tau * template.eps)
    log_chain = _chain_product_log(weyl, s, phase * s.g * s.w * theta, n_steps)
    x0 = 2.0 * occupation(template.beta0) + 1.0
    return complex(np.exp(-0.25 * s.zsq_power(n_steps) * abs(theta) ** 2 * x0 + log_chain))


class TestShortTimeLimitRun:
    def test_gibbs_error_is_closed_form_discrepancy(self):
        template = std_params()
        sched = LimitSchedule(checkpoints=(100, 1_000, 10_000))
        spec = ChainStateSpec(kind="gibbs", beta=math.log(2))
        recs = short_time_limit_run(template, sched, spec, [1.0 + 0.0j])
        limit = math.exp(-0.25 * 3.0)
        for rec in recs:
            n, tau = rec.outputs["N"], rec.outputs["tau"]
            p = ModelParams(E=1.0, eps=1.0, eta=1.0, tau=tau, N=n,
                            beta0=math.log(3), beta=math.log(2))
            nstar = occupation(effective_beta_S(p, n))
            expect = abs(math.exp(-0.25 * (2.0 * nstar + 1.0)) - limit)
            assert abs(rec.outputs["abs_error"] - expect) < 1e-15
            assert rec.outputs["monotone_ok"]

    def test_product_route_agrees_with_gibbs_route(self):
        # feeding the thermal density as a custom matrix must give the same
        # values, both on the run's series route and with every term of the
        # product walked one by one
        template = std_params()
        sched = LimitSchedule(checkpoints=(100, 1_000))
        D = 30
        q = math.exp(-math.log(2))
        probs = (1 - q) * q ** np.arange(D)
        custom = ChainStateSpec(kind="custom", rho=np.diag(probs / probs.sum()).astype(complex))
        gibbs = ChainStateSpec(kind="gibbs", beta=math.log(2))
        rc = short_time_limit_run(template, sched, custom, [0.8 + 0.2j])
        rg = short_time_limit_run(template, sched, gibbs, [0.8 + 0.2j])
        for a, b in zip(rc, rg):
            assert abs(a.outputs["value"] - b.outputs["value"]) < 1e-5
            streamed = streamed_value(template, sched, custom, 0.8 + 0.2j, a.outputs["N"])
            assert abs(streamed - b.outputs["value"]) < 1e-5

    def test_number_state_run(self):
        template = std_params()
        sched = LimitSchedule(checkpoints=(100, 1_000, 10_000))
        recs = short_time_limit_run(
            template, sched, ChainStateSpec(kind="number_state", level=1), [1.0]
        )
        expect_limit = math.exp(-0.75)
        errs = []
        for rec in recs:
            assert abs(rec.outputs["limit"] - expect_limit) < 1e-15
            errs.append(rec.outputs["abs_error"])
            assert rec.outputs["monotone_ok"]
        assert errs[0] > errs[1] > errs[2]
        for rec in recs:
            gap = abs(rec.outputs["abs_error"] - rec.outputs["predicted_error"])
            assert 0.0 < gap <= rec.outputs["law_remainder"]

    @pytest.mark.parametrize("spec, theta, template, multiplier", [
        (ChainStateSpec(kind="number_state", level=1), 1.5 + 0.0j, std_params(E=2.0, eta=0.5), 2.0),
        (ChainStateSpec(kind="number_state", level=3), 1.5 + 0.0j, std_params(E=2.0, eta=0.5), 2.0),
        (ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj())), 0.7 + 0.3j,
         std_params(E=2.0, eta=0.5), 2.0),
        (ChainStateSpec(kind="number_state", level=1), 2.0 + 0.0j, std_params(), 10.0),
    ], ids=["level1", "level3", "superposition03", "level1_negative_factor"])
    def test_product_terms_match_propagated_vector(self, spec, theta, template, multiplier):
        # (|0> + |3>)/sqrt(2) passes the moment hypotheses, but its C(t) depends on
        # arg t, so the run's terms must carry the step phases of U_1 ... U_N e0.
        # The reference at D = 60 pins the run's own cutoff as converged.  At
        # E = eps = eta = 1 and tau(100) = 1.58, |w| is near 1, so the last
        # term of N = 100 has |theta_k| near 2, where C(a) = exp(-|a|^2/4) (1 -
        # |a|^2/2) of |1> is negative: the product must keep that sign.
        rho = spec.density(60)
        sched = LimitSchedule(multiplier=multiplier, checkpoints=(100, 1_000))
        recs = short_time_limit_run(template, sched, spec, [theta])
        for rec in recs:
            n = rec.outputs["N"]
            e0 = np.zeros(n + 1, dtype=complex)
            e0[0] = theta
            comps = propagate_vector(replace(template, tau=rec.outputs["tau"], N=n), n, e0)
            x0 = 2.0 * occupation(template.beta0) + 1.0
            expect = (math.exp(-0.25 * abs(comps[0]) ** 2 * x0)
                      * np.prod(1.0 + fock_oracle.weyl_expectation_batch(
                          fock_oracle.OneModeWeyl(rho), comps[1:])))
            assert abs(rec.outputs["value"] - expect) < 1e-13 * abs(expect)
        if multiplier == 10.0:
            assert recs[0].outputs["value"].real < 0.0

    def test_gibbs_error_is_not_rounded_to_zero(self):
        # limit exp(L) rounds to limit from N = 1e5 on; abs_error is |limit expm1(L)|
        sched = LimitSchedule(checkpoints=(100_000, 1_000_000))
        spec = ChainStateSpec(kind="gibbs", beta=math.log(2))
        recs = short_time_limit_run(std_params(), sched, spec, [1.0])
        for rec, law in zip(recs, (5.0036e-19, 3.4635e-29)):
            assert rec.outputs["value"] == rec.outputs["limit"]
            assert rec.outputs["abs_error"] == rec.outputs["predicted_error"]
            assert abs(rec.outputs["abs_error"] - law) < 1e-4 * law

    def test_gibbs_xstar_matches_mpmath_at_1e6(self):
        mp = pytest.importorskip("mpmath")
        # eta = 0.1 leaves |z|^(2N) near 0.5 at N = 1e6, so both temperatures weigh in
        template = std_params(E=2.0, eta=0.1)
        sched = LimitSchedule(checkpoints=(100_000, 1_000_000))
        spec = ChainStateSpec(kind="gibbs", beta=math.log(2))
        rec = short_time_limit_run(template, sched, spec, [1.0])[-1]
        xstar = -4.0 * math.log(rec.outputs["value"].real)
        at_run = replace(template, tau=rec.outputs["tau"], N=1_000_000)
        expect, zsq_n = mp_reference.mp_gibbs_xstar(mp, at_run, math.log(2))
        expect = float(expect)
        assert 0.3 < float(zsq_n) < 0.7
        assert abs(xstar - expect) < 1e-14 * expect

    @pytest.mark.parametrize("theta", [1.0 + 0.0j, 0.5 + 0.5j])
    def test_number_state_product_accuracy(self, theta):
        # level 1 has C(t) = exp(-|t|^2/4) (1 - |t|^2/2), so the product's log is
        # an fsum of closed-form terms with |theta_k|^2 = |w|^2 |z|^(2j) |theta|^2
        template = std_params(E=2.0, eta=0.5)
        sched = LimitSchedule(checkpoints=(10_000, 100_000))
        spec = ChainStateSpec(kind="number_state", level=1)
        x0 = 2.0 * occupation(template.beta0) + 1.0
        tsq = abs(theta) ** 2
        for rec in short_time_limit_run(template, sched, spec, [theta]):
            n = rec.outputs["N"]
            wsq = abs(step_scalars(replace(template, tau=rec.outputs["tau"], N=n)).w) ** 2
            zsq_j = np.exp(np.arange(n + 1) * math.log1p(-wsq))
            terms = wsq * zsq_j[:n] * tsq
            log_ref = -0.25 * zsq_j[n] * tsq * x0 + math.fsum(-terms / 4 + np.log1p(-terms / 2))
            expect = math.exp(log_ref)
            assert abs(rec.outputs["value"] - expect) < 1e-13 * expect

    def test_zero_theta_is_exact(self):
        recs = short_time_limit_run(
            std_params(), LimitSchedule(checkpoints=(100, 1_000)),
            ChainStateSpec(kind="number_state", level=0), [0.0]
        )
        for rec in recs:
            assert rec.outputs["value"] == 1.0
            assert rec.outputs["abs_error"] == 0.0

    def test_gauge_breaking_spec_rejected(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[1] = 1.0 / math.sqrt(2)
        spec = ChainStateSpec(kind="custom", rho=np.outer(psi, psi.conj()))
        with pytest.raises(ValueError, match="moment hypotheses"):
            short_time_limit_run(
                std_params(), LimitSchedule(checkpoints=(100, 1_000)), spec, [1.0]
            )

    def test_product_term_cap(self):
        # the cap binds only rows evaluated term by term: a non-diagonal chain,
        # which has no series, is refused before any row runs
        sched = LimitSchedule(checkpoints=(1_000_000, 100_000_001))
        superposition = ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj()))
        with pytest.raises(ValueError, match="capped"):
            short_time_limit_run(std_params(), sched, superposition, [1.0])
        # the gibbs closed form and the series of |1> have no such cap
        for spec in (ChainStateSpec(kind="gibbs", beta=1.0),
                     ChainStateSpec(kind="number_state", level=1)):
            recs = short_time_limit_run(std_params(), sched, spec, [1.0])
            assert len(recs) == 2

    @staticmethod
    def product_setup(spec, n_steps):
        # the run's prepared density and its terms' scale at checkpoint n_steps,
        # theta 0.7 + 0.3j
        template = std_params(E=2.0, eta=0.5)
        params = replace(template, tau=LimitSchedule().tau(n_steps), N=n_steps)
        s = step_scalars(params)
        rho = spec.density(16)
        return rho, fock_oracle.OneModeWeyl(rho), s, s.g * s.w * (0.7 + 0.3j)

    @pytest.mark.parametrize("spec", [
        ChainStateSpec(kind="number_state", level=1),
        ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj())),
    ], ids=["level1", "superposition03"])
    def test_chunked_product_equals_whole_array_sum(self, spec):
        # the streamed chunk sums against one numpy sum of log(1 + d) over all
        # 1e6 terms, whose arguments come from one whole-array gz_power; the
        # superposition walks the odd-offset and phase path.  Terms on both
        # sides of chunk boundaries are checked against the dense reference.
        n = 1_000_000
        rho, weyl, s, scale = self.product_setup(spec, n)
        alphas = scale * s.gz_power(np.arange(n))
        d = np.concatenate([
            fock_oracle.weyl_expectation_batch(weyl, alphas[lo : lo + _CHUNK])
            for lo in range(0, n, _CHUNK)
        ])
        for k in (0, _CHUNK - 1, _CHUNK, 3 * _CHUNK + 1, n - 1):
            assert abs(1.0 + d[k] - ref.weyl_expectation(rho, [alphas[k]], 16)) < 1e-13
        whole = np.sum(0.5 * np.log1p(2.0 * d.real + d.real**2 + d.imag**2)
                       + 1j * np.arctan2(d.imag, 1.0 + d.real))
        chunked = _chain_product_log(weyl, s, scale, n)
        assert abs(chunked - whole) <= 1e-14 * abs(whole)

    def test_product_memory_flat_in_n(self):
        # one product's tracemalloc peak does not grow from 1e5 to 1e6 terms,
        # where whole arrays of 1e6 complex terms alone take 15 MiB
        peaks = []
        for n in (100_000, 1_000_000):
            _, weyl, s, scale = self.product_setup(ChainStateSpec(kind="number_state", level=1), n)
            tracemalloc.start()
            try:
                _chain_product_log(weyl, s, scale, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20
        assert peaks[1] <= 2 * 2**20

    def test_record_grid_ids(self):
        recs = short_time_limit_run(
            std_params(), LimitSchedule(checkpoints=(100, 1_000)),
            ChainStateSpec(kind="gibbs", beta=1.0), [1.0, 0.5j]
        )
        assert [r.run_id for r in recs] == [
            "limit-000-00", "limit-001-00", "limit-000-01", "limit-001-01"
        ]

    def test_limit_workload_law_is_pinned(self):
        # the benchmark's limit workload: CLI default model, default schedule
        # 1e2..1e6, number_state level 1.  The law's j >= 3 tail is -X^3 G_3 / 3
        # to leading order, nearly all of its bound, so every row sits just
        # inside it, and the prediction meets the error to 5e-4 relative.
        template = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8,
                               beta0=math.log(3.0), beta=math.log(2.0))
        recs = short_time_limit_run(template, LimitSchedule(),
                                    ChainStateSpec(kind="number_state", level=1),
                                    [1.0, 0.5 + 0.5j])
        mp = pytest.importorskip("mpmath")
        for rec in recs:
            at_row = replace(template, tau=rec.outputs["tau"], N=rec.outputs["N"])
            predicted, remainder = mp_reference.mp_level_one_law(
                mp, at_row, abs(rec.inputs["theta"]) ** 2
            )
            assert abs(rec.outputs["predicted_error"] - predicted) <= 1e-12 * predicted
            assert abs(rec.outputs["law_remainder"] - remainder) <= 1e-12 * remainder
        for rec in recs:
            o = rec.outputs
            gap = abs(o["abs_error"] - o["predicted_error"])
            assert gap <= o["law_remainder"] + 1e-14 * o["limit"]
            assert gap <= 5e-4 * o["abs_error"]
            assert gap >= 0.99 * o["law_remainder"]

    def test_law_unavailable_is_nan(self):
        # a chain density with off-diagonal entries has no law at all
        recs = short_time_limit_run(
            std_params(E=2.0, eta=0.5), LimitSchedule(checkpoints=(100, 1_000)),
            ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj())), [0.7 + 0.3j],
        )
        for rec in recs:
            assert math.isnan(rec.outputs["predicted_error"])
            assert math.isnan(rec.outputs["law_remainder"])
        # |1> at theta = 2 and tau(100) = 1.58: X = |w|^2 |theta|^2 / 2 = 1.9 lies
        # past the radius 1 at N = 100, and 0.70 inside it at N = 1000
        recs = short_time_limit_run(
            std_params(), LimitSchedule(multiplier=10.0, checkpoints=(100, 1_000)),
            ChainStateSpec(kind="number_state", level=1), [2.0],
        )
        assert math.isnan(recs[0].outputs["predicted_error"])
        assert math.isnan(recs[0].outputs["law_remainder"])
        assert recs[1].outputs["law_remainder"] > 0.0

    def test_value_off_the_law_fails_the_run(self, monkeypatch):
        # a product 1e-6 off in relative terms passes the monotone gate, but
        # its streamed chunk leaves the series law over the same terms at N = 1e3
        from richain import experiments

        exact = experiments._chain_product_log
        monkeypatch.setattr(experiments, "_chain_product_log",
                            lambda *args: exact(*args) + math.log1p(1e-6))
        with pytest.raises(RuntimeError, match="law"):
            short_time_limit_run(
                std_params(E=2.0, eta=0.5), LimitSchedule(checkpoints=(1_000, 10_000)),
                ChainStateSpec(kind="number_state", level=1), [1.0],
            )

    @pytest.mark.parametrize("shift, fails", [(1e-6, True), (1e-9, False)])
    def test_abs_error_off_its_law_fails_the_run(self, monkeypatch, shift, fails):
        # a symmetric moment off by 1e-6 moves the limit, and with it abs_error,
        # off predicted_error by more than law_remainder at N = 1e3; at 1e-9 the
        # gap stays below law_remainder
        exact = ChainStateSpec.symmetric_moment
        monkeypatch.setattr(ChainStateSpec, "symmetric_moment",
                            lambda self: exact(self) * (1 + shift))
        run = lambda: short_time_limit_run(
            std_params(E=2.0, eta=0.5), LimitSchedule(checkpoints=(100, 1_000, 10_000)),
            ChainStateSpec(kind="number_state", level=1), [1.0])
        if fails:
            with pytest.raises(RuntimeError, match="off its law"):
                run()
        else:
            assert len(run()) == 3

    def test_evaluation_cutoff_is_bounded(self, monkeypatch):
        # theta = 3 on |1> takes cutoff 8 * 9 + 3 = 75: past a bound of 64 the run
        # raises before it forms a density at that cutoff
        from richain import experiments

        monkeypatch.setattr(experiments, "_EVAL_CUTOFF_CAP", 64)
        sizes = []
        density = ChainStateSpec.density
        monkeypatch.setattr(ChainStateSpec, "density",
                            lambda self, cutoff: sizes.append(cutoff) or density(self, cutoff))
        run = lambda theta: short_time_limit_run(
            std_params(), LimitSchedule(checkpoints=(100, 1_000)),
            ChainStateSpec(kind="number_state", level=1), [theta])
        with pytest.raises(ValueError, match=r"evaluation cutoff 75 for max\|theta\| = 3.0 is above 64"):
            run(3.0)
        assert max(sizes) < 64
        assert len(run(2.0)) == 2 and max(sizes) == 8 * 4 + 3

    def test_vacuum_errors_at_rounding_pass_the_monotone_gate(self):
        # the vacuum chain is Gaussian, so its value meets the limit to rounding:
        # abs_error [0, 5.6e-17, 0] rises by less than the gate's 1e-14 |limit|
        recs = short_time_limit_run(
            std_params(), LimitSchedule(multiplier=10.0, checkpoints=(100, 10_000, 1_000_000)),
            ChainStateSpec(kind="number_state", level=0), [2.0],
        )
        for rec in recs:
            assert rec.outputs["abs_error"] <= 1e-14 * rec.outputs["limit"]
            assert rec.outputs["monotone_ok"]

    @pytest.mark.parametrize("rise, fails", [(0.5e-14, False), (2e-14, True)])
    def test_monotone_gate_floor(self, monkeypatch, rise, fails):
        # a density with no error law is gated on monotonicity alone.  With the
        # chain's log set so that value = limit (1 + e), e = 0, rise, 0 along the
        # checkpoints, a rise below 1e-14 |limit| passes and one above it fails
        from richain import experiments

        template, spec = std_params(), ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj()))
        limit = math.exp(-0.25 * spec.symmetric_moment())  # theta = 1
        rel = dict(zip((100, 1_000, 10_000), (0.0, rise, 0.0)))

        def chain_log(weyl, series, s, scale, n_steps):
            log_c0 = -0.25 * s.zsq_power(n_steps) * (2.0 * occupation(template.beta0) + 1.0)
            return math.log(limit) - log_c0 + math.log1p(rel[n_steps])

        monkeypatch.setattr(experiments, "_chain_log", chain_log)
        run = lambda: short_time_limit_run(template, LimitSchedule(checkpoints=tuple(rel)), spec, [1.0])
        if fails:
            with pytest.raises(RuntimeError, match="not monotone"):
                run()
        else:
            errs = [rec.outputs["abs_error"] for rec in run()]
            assert errs[1] > 1.05 * errs[0] and abs(errs[1] - rise * limit) < 1e-15

    def test_non_finite_theta_rejected(self):
        # so are an empty or a 2-D list, and a theta whose |theta|^2 overflows
        for spec in (ChainStateSpec(kind="gibbs", beta=1.0),
                     ChainStateSpec(kind="number_state", level=1)):
            for thetas in ([1.0, math.inf], [1.0, complex(1.0, -math.inf)], [1.0, math.nan],
                           [], [[1.0, 0.5]], [1e300], [1e200j]):
                with pytest.raises(ValueError, match="thetas must be a nonempty 1-D array of finite"):
                    short_time_limit_run(std_params(), LimitSchedule(checkpoints=(100, 1_000)),
                                         spec, thetas)

    @pytest.mark.parametrize("theta", [1e3, 1e80, 1e100])
    def test_gibbs_rows_at_a_large_theta_read_zero(self, theta):
        # the default model's chain is hotter than S, so L > 0: exp(L) overflows
        # at theta = 1e3, and x^2 in L's j = 2 term (b_2 = 0) from theta = 1e80.
        # The value and the law are below the least subnormal, so every cell is 0
        template = std_params(E=2.0, eps=1.0, eta=0.5, beta0=math.log(3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            recs = short_time_limit_run(template, LimitSchedule(checkpoints=(100, 1_000)),
                                        ChainStateSpec(kind="gibbs", beta=math.log(2.0)), [theta])
        for rec in recs:
            o = rec.outputs
            assert o["value"] == o["limit"] == 0.0
            assert o["abs_error"] == o["predicted_error"] == o["law_remainder"] == 0.0
            assert o["monotone_ok"]

    def test_law_past_exp_range_on_a_number_state(self):
        # |100> with a cold S at multiplier 0.1 and theta = 5: L = 1.24e3, so exp(L)
        # overflows while limit = exp(-1256) is 0 and the value is 6.6e-7
        template = std_params(E=2.0, eps=1.0, eta=0.5, beta0=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            recs = short_time_limit_run(
                template, LimitSchedule(multiplier=0.1, checkpoints=(100, 1_000)),
                ChainStateSpec(kind="number_state", level=100), [5.0])
        for rec in recs:
            o = rec.outputs
            assert o["limit"] == 0.0 and o["value"].real > 0.0
            assert 0.0 < o["predicted_error"] < math.inf
            assert abs(o["abs_error"] - o["predicted_error"]) <= o["law_remainder"]


class TestSeriesRoute:
    """The chain's log as streamed head plus series tail, against the stream."""

    @pytest.mark.parametrize("spec, theta, template, multiplier, checkpoints, heads", [
        # X = 1.9 and 0.70 lie past radius/2 at N = 100 and 1e3, 0.12 at 1e4
        (ChainStateSpec(kind="number_state", level=1), 2.0, std_params(), 10.0,
         (100, 1_000, 10_000), [1, 1, 0]),
        (ChainStateSpec(kind="number_state", level=2), 1.5 + 0.5j, std_params(E=2.0, eta=0.5),
         2.0, (1_000, 100_000), [0, 0]),
        (ChainStateSpec(kind="custom", rho=np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)),
         0.7 + 0.3j, std_params(E=2.0, eta=0.5), 2.0, (1_000, 100_000), [0, 0]),
    ], ids=["level1_head", "level2", "custom_diagonal"])
    def test_series_route_matches_the_stream(self, spec, theta, template, multiplier,
                                             checkpoints, heads):
        # at N = 1e5 the series also covers terms past the one streamed chunk
        sched = LimitSchedule(multiplier=multiplier, checkpoints=checkpoints)
        series = _log_series(spec, _SERIES_ORDER)
        weyl = fock_oracle.OneModeWeyl(spec.density(40))
        recs = short_time_limit_run(template, sched, spec, [theta])
        for rec, head in zip(recs, heads):
            n = rec.outputs["N"]
            s = step_scalars(replace(template, tau=rec.outputs["tau"], N=n))
            scale = s.g * s.w * theta
            assert _head_length(abs(scale) ** 2 / 2.0, series[1], s, n) == head
            whole = _chain_product_log(weyl, s, scale, n)
            assert abs(_chain_log(weyl, series, s, scale, n) - whole) <= 1e-14 * abs(whole)
            expect = streamed_value(template, sched, spec, theta, n)
            assert abs(rec.outputs["value"] - expect) <= 1e-14 * abs(expect)

    def test_diagonal_rows_fall_back_to_the_stream(self, monkeypatch):
        # a series cut at order 2 never reaches rounding, so each row streams
        # all its terms; the values agree with the series rows to rounding
        import richain.experiments as experiments

        spec = ChainStateSpec(kind="number_state", level=1)
        sched = LimitSchedule(checkpoints=(100, 1_000))
        series_rows = short_time_limit_run(std_params(), sched, spec, [1.0])
        results = []
        series_log = experiments._series_log
        monkeypatch.setattr(experiments, "_series_log",
                            lambda *args: results.append(series_log(*args)) or results[-1])
        monkeypatch.setattr(experiments, "_SERIES_ORDER", 2)
        streamed_rows = short_time_limit_run(std_params(), sched, spec, [1.0])
        assert None in results
        for series_row, streamed_row in zip(series_rows, streamed_rows):
            expect = series_row.outputs["value"]
            assert abs(streamed_row.outputs["value"] - expect) <= 1e-15 * abs(expect)

    def test_series_log_refuses_a_sum_that_is_not_finite(self):
        s = step_scalars(std_params())
        assert _series_log((np.array([math.inf, 0.0]), 1.0, 1), 0.4, s, 100) is None

    def test_streamed_product_cap(self):
        # a head or whole row past 1e8 terms is refused before any term runs
        weyl = fock_oracle.OneModeWeyl(ChainStateSpec(kind="number_state", level=1).density(16))
        s = step_scalars(std_params())
        with pytest.raises(ValueError, match="^term-by-term product capped at 100000000 factors$"):
            _chain_product_log(weyl, s, 1.0, _PRODUCT_TERM_CAP + 1)

    def test_level_one_value_matches_mpmath_at_1e8(self):
        mp = pytest.importorskip("mpmath")
        # the CLI's default model, as the benchmark's limit workload runs it
        template = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8,
                               beta0=math.log(3.0), beta=math.log(2.0))
        sched = LimitSchedule(checkpoints=(1_000_000, 100_000_000))
        recs = short_time_limit_run(template, sched, ChainStateSpec(kind="number_state", level=1),
                                    [1.0, 0.5 + 0.5j])
        for rec in recs:
            params = replace(template, tau=rec.outputs["tau"], N=rec.outputs["N"])
            expect = float(mp_reference.mp_level_one_value(mp, params, abs(rec.inputs["theta"]) ** 2))
            assert rec.outputs["value"].imag == 0.0
            assert abs(rec.outputs["value"].real - expect) <= 1e-15 * expect

    @pytest.mark.parametrize("exponent", [0.34, 0.49])
    def test_level_one_value_matches_mpmath_past_the_cap(self, exponent):
        # the series has no term cap: |1> at N = 1e12 and 1e14 streams its
        # head and one chunk per row, at both edges of the exponent window
        mp = pytest.importorskip("mpmath")
        template = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8,
                               beta0=math.log(3.0), beta=math.log(2.0))
        sched = LimitSchedule(exponent=exponent, checkpoints=(10**12, 10**14))
        recs = short_time_limit_run(template, sched, ChainStateSpec(kind="number_state", level=1),
                                    [1.0])
        for rec in recs:
            params = replace(template, tau=rec.outputs["tau"], N=rec.outputs["N"])
            expect = float(mp_reference.mp_level_one_value(mp, params, abs(rec.inputs["theta"]) ** 2))
            assert rec.outputs["value"].imag == 0.0
            assert abs(rec.outputs["value"].real - expect) <= 1e-15 * expect

    def test_uncoupled_chain_streams_one_chunk_per_row(self, monkeypatch):
        # at eta = 0, w = 0 and |z| = 1: every argument is 0 and every factor
        # exactly 1.  The series route passes each row at most its head and one
        # checked chunk, not the whole row, and each value is C0 alone
        from richain import experiments

        calls = []
        batch = fock_oracle.weyl_expectation_batch

        def counted(weyl, alphas):
            calls.append(len(alphas))
            return batch(weyl, alphas)

        monkeypatch.setattr(experiments.fock_oracle, "weyl_expectation_batch", counted)
        template = ModelParams(E=2.0, eps=1.0, eta=0.0, tau=1.0, N=8,
                               beta0=math.log(3.0), beta=math.log(2.0))
        sched = LimitSchedule()
        recs = short_time_limit_run(template, sched, ChainStateSpec(kind="number_state", level=1),
                                    [1.0])
        assert calls == [min(n, _CHUNK) for n in sched.checkpoints]
        expect = complex(np.exp(-0.25 * (2.0 * occupation(template.beta0) + 1.0)))
        assert [rec.outputs["value"] for rec in recs] == [expect] * len(recs)

    def test_mutated_coefficient_fails_the_cross_check(self, monkeypatch):
        # a_3 of |1> is -1/3; 1e-6 of it moves the tail's series by about 4e-8
        # relative at N = 1e3, far past the cross-check's 1e-13
        from richain import experiments

        exact = experiments._log_series

        def mutated(spec, order):
            a, radius, degree = exact(spec, order)
            a = a.copy()
            a[2] *= 1.0 + 1e-6
            return a, radius, degree

        monkeypatch.setattr(experiments, "_log_series", mutated)
        with pytest.raises(RuntimeError, match="off their series law"):
            short_time_limit_run(
                std_params(), LimitSchedule(multiplier=10.0, checkpoints=(100, 1_000)),
                ChainStateSpec(kind="number_state", level=1), [2.0],
            )

    def test_subnormal_terms_pass_the_cross_check(self):
        # at |theta| = 1e-156 and 1e-160 the chain's log is about -1e-312 and
        # -1e-320, subnormal floats whose last digits stream and series need not share
        for theta in (1e-156, 1e-160):
            recs = short_time_limit_run(
                std_params(E=2.0, eta=0.5), LimitSchedule(checkpoints=(100, 1_000)),
                ChainStateSpec(kind="number_state", level=2), [theta],
            )
            assert all(rec.outputs["value"] == 1.0 for rec in recs)

    def test_wide_density_cutoff_keeps_the_stream_at_rounding(self):
        # the thermal state cut at D = 30 with theta = 0.5 + 0.5j: at the
        # cutoff 34 the stream's top levels leak past it, 1.4e-11 off the
        # series; the run's cutoff leaves room for the displaced top level
        probs = 0.5 ** np.arange(30)
        spec = ChainStateSpec(kind="custom", rho=np.diag(probs / probs.sum()).astype(complex))
        template = std_params()
        sched = LimitSchedule(multiplier=10.0, checkpoints=(100, 1_000))
        recs = short_time_limit_run(template, sched, spec, [0.5 + 0.5j])
        for rec in recs:
            expect = streamed_value(template, sched, spec, 0.5 + 0.5j, rec.outputs["N"], 80)
            assert abs(rec.outputs["value"] - expect) <= 1e-14 * abs(expect)


class TestLogSeries:
    def test_number_state_one(self):
        # P(x) = 1 - x: log P = -sum_j x^j / j, one root at 1
        a, radius, degree = _log_series(ChainStateSpec(kind="number_state", level=1), 8)
        assert np.max(np.abs(a + 1.0 / np.arange(1, 9))) < 1e-15
        assert radius == 1.0 and degree == 1

    def test_gibbs_has_no_term_past_the_first(self):
        a, radius, degree = _log_series(ChainStateSpec(kind="gibbs", beta=math.log(2)), 6)
        assert a[0] == -1.0 and np.all(a[1:] == 0.0)
        assert radius == math.inf and degree == 0
        # the same recursion on a thermal state cut at D = 30: its factorial
        # moments are k! n^k up to the 2^-30 tail, so log P = -n x up to it
        probs = 0.5 ** np.arange(30)
        spec = ChainStateSpec(kind="custom", rho=np.diag(probs / probs.sum()).astype(complex))
        b, radius, degree = _log_series(spec, 6)
        a = b / radius ** np.arange(1, 7)  # b_j = a_j radius^j
        assert abs(a[0] + 1.0) < 1e-7
        assert np.max(np.abs(a[1:])) < 1e-6
        assert degree == 29 and radius > 1.0

    def test_number_state_three(self):
        # P is the Laguerre polynomial L_3, whose smallest root is 0.4158
        b, radius, degree = _log_series(ChainStateSpec(kind="number_state", level=3), 4)
        roots = np.polynomial.laguerre.lagroots([0, 0, 0, 1])
        assert abs(radius - roots.min()) < 1e-12
        for j in range(1, 5):
            # b_j = a_j radius^j, a_j = -(1/j) sum_r x_r^-j
            assert abs(b[j - 1] + np.sum((radius / roots) ** j) / j) < 1e-12 * abs(b[j - 1])
        assert degree == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("level", [0, 1, 150, 167, 200, 300, 372, 400])
    def test_number_state_radius_at_high_levels(self, level):
        # P = L_level.  Its leading coefficient 1/level! would overflow a
        # division from level 167 and underflows to 0 from 178, so the degree
        # comes off the density's diagonal
        mp = pytest.importorskip("mpmath")
        a, radius, degree = _log_series(ChainStateSpec(kind="number_state", level=level),
                                        _SERIES_ORDER)
        assert degree == level
        if level == 0:
            assert radius == math.inf and np.all(a == 0.0)
        else:
            assert abs(radius - float(mp_reference.mp_laguerre_min_root(mp, level))) <= 1e-12 * radius
            # |b_j| <= deg/j, where a_j = b_j radius^-j passes 1.8e308 from about level 372
            assert np.all(np.abs(a) * np.arange(1, len(a) + 1) <= degree * (1.0 + 1e-12))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("level", [372, 400])
    def test_high_levels_take_the_series(self, level, monkeypatch):
        # every row's tail is summed by the series, streamed alongside it and
        # held to the cross-check, with no overflow warning on the way
        from richain import experiments

        sums = []
        exact = experiments._series_log

        def spy(*args):
            sums.append(exact(*args))
            return sums[-1]

        monkeypatch.setattr(experiments, "_series_log", spy)
        recs = short_time_limit_run(std_params(), LimitSchedule(checkpoints=(100, 1_000)),
                                    ChainStateSpec(kind="number_state", level=level), [1.0])
        assert len(sums) == 2 and all(v is not None and math.isfinite(v) for v in sums)
        assert all(r.outputs["monotone_ok"] for r in recs)

    def test_off_diagonal_density_has_none(self):
        spec = ChainStateSpec(kind="custom", rho=np.outer(_PSI03, _PSI03.conj()))
        assert _log_series(spec, 2) is None


class TestConvergenceStudy:
    @pytest.mark.parametrize("quantity", [
        "beta_star_gap", "beta_star_star_gap", "relative_entropy_gap", "window_entropy_gap",
    ])
    def test_fitted_ratio_matches_z_squared(self, quantity):
        p = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=80,
                        beta0=math.log(3), beta=math.log(2))
        study = convergence_study(p, quantity, horizon=50)
        ref = study.reference_ratio
        fitted = study.fitted_ratio
        assert abs(fitted - ref) <= 0.02 * ref

    def test_gaps_shrink(self):
        p = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=40,
                        beta0=math.log(3), beta=math.log(2))
        gaps = convergence_study(p, "relative_entropy_gap", horizon=30).gaps
        assert gaps[-1] < gaps[0] * 1e-2

    def test_validation(self):
        p = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=10,
                        beta0=math.log(3), beta=math.log(2))
        with pytest.raises(ValueError, match="unknown quantity"):
            convergence_study(p, "bogus", horizon=5)
        with pytest.raises(ValueError, match="horizon"):
            convergence_study(p, "beta_star_gap", horizon=11)


def _oracle_state(params, cutoff=8):
    rho = fock_oracle.BlockedDensityMatrix.from_thermal_product(
        [params.beta0] + [params.beta] * params.N, cutoff
    )
    return fock_oracle.evolve_density(rho, params, range(1, params.N + 1))


class TestOracleDeltas:
    def test_zero_samples_leave_the_generator_alone(self):
        p = std_params(N=2, tau=1.0, eta=0.5)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        deltas = oracle_deltas(p, 2, _oracle_state(p), rng, 0)
        assert rng.bit_generator.state == before
        assert deltas["char_fn_max"] == 0.0

    @pytest.mark.parametrize("N", [1, 2])
    def test_char_fn_max_matches_explicit_loop(self, N):
        # the samples are drawn one at a time, real parts then imaginary parts,
        # and the oracle takes them in one call
        p = std_params(N=N, tau=1.0, eta=0.5)
        rho = _oracle_state(p)
        state = evolve_state(p, N)
        rng = np.random.default_rng([7, N])
        zetas = []
        for _ in range(6):
            zeta = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
            norm = float(np.linalg.norm(zeta))
            if norm > 0.5:
                zeta *= 0.5 / norm
            zetas.append(zeta)
        brute = fock_oracle.weyl_expectation(rho, np.array(zetas))
        worst = max(abs(complex(char_fn(state, z)) - complex(b)) for z, b in zip(zetas, brute))
        batched = np.random.default_rng([7, N])
        got = oracle_deltas(p, N, rho, batched, 6)
        assert got["char_fn_max"] == worst and type(got["char_fn_max"]) is float
        assert 0.0 < worst < 1e-2
        # the generator ends where the one-at-a-time draws leave it
        assert batched.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_entropy_is_the_oracle_gap(self, m):
        p = std_params(N=2, tau=1.0, eta=0.5)
        rho = fock_oracle.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], 8
        )
        rho = fock_oracle.evolve_density(rho, p, range(1, m + 1))
        got = oracle_deltas(p, m, rho, np.random.default_rng(0), 0)["entropy"]
        assert got == abs(fock_oracle.von_neumann_entropy(rho) - total_entropy(p, m))


class TestSweep:
    def base_grid(self):
        return {
            "E": [1.0, 2.0], "eps": [1.0], "eta": [0.5], "tau": [1.0],
            "beta0": [math.log(3)], "beta": [math.log(2)], "N": [2],
        }

    def test_grid_order_and_outputs(self):
        recs = sweep(self.base_grid())
        assert [r.run_id for r in recs] == ["sweep-00000", "sweep-00001"]
        assert recs[0].inputs["E"] == 1.0 and recs[1].inputs["E"] == 2.0
        for r in recs:
            assert {"g", "w", "z", "abs_z_sq", "total_entropy"} <= set(r.outputs)
            assert r.oracle_deltas is None
            assert (r.inputs["oracle"], r.inputs["cutoff"], r.inputs["seed"]) == (False, None, None)

    def test_invalid_point_becomes_error_record(self):
        grid = self.base_grid()
        grid["eta"] = [0.5, 9.0]
        recs = sweep(grid)
        assert len(recs) == 4
        errors = [r for r in recs if "error" in r.outputs]
        assert len(errors) == 2
        assert all("unstable" in r.outputs["error"] for r in errors)

    def test_oracle_deltas_small(self):
        recs = sweep(self.base_grid(), cutoff=16)
        for r in recs:
            assert (r.inputs["oracle"], r.inputs["cutoff"], r.inputs["seed"]) == (True, 16, 0)
            assert r.oracle_deltas is not None
            assert r.oracle_deltas["char_fn_max"] < 1e-4
            assert r.oracle_deltas["entropy"] < 1e-3

    def test_oracle_skipped_beyond_three_modes(self):
        grid = self.base_grid()
        grid["N"] = [ORACLE_MAX_N + 1]
        recs = sweep(grid, cutoff=12)
        assert recs[0].oracle_deltas is None

    def test_deterministic(self):
        a = sweep(self.base_grid(), cutoff=12, seed=3)
        b = sweep(self.base_grid(), cutoff=12, seed=3)
        for ra, rb in zip(a, b):
            assert ra.run_id == rb.run_id
            assert ra.outputs == rb.outputs
            assert ra.oracle_deltas == rb.oracle_deltas

    def test_wrongly_typed_value_becomes_error_record(self):
        grid = self.base_grid()
        grid["E"] = [[2.0], 2.0]
        grid["N"] = [2, [2]]
        recs = sweep(grid)
        assert len(recs) == 4
        assert ["error" in r.outputs for r in recs] == [True, True, False, True]
        assert "float() argument" in recs[0].outputs["error"]
        assert "N must be a whole number" in recs[3].outputs["error"]
        assert recs[1].inputs["N"] == [2]

    def test_integer_past_the_floats_becomes_error_record(self):
        # float(10**400) raises OverflowError: it ends that point, not the sweep
        grid = self.base_grid()
        grid.update(E=[10**400, 1.0], beta0=[1.0], beta=[1.5], N=[2])
        recs = sweep(grid)
        assert ["error" in r.outputs for r in recs] == [True, False]
        assert recs[0].outputs == {"error": "int too large to convert to float"}
        assert recs[0].inputs["E"] == 10**400
        assert recs[1].inputs["E"] == 1.0 and "total_entropy" in recs[1].outputs

    def test_fractional_or_bool_n_becomes_error_record(self):
        grid = self.base_grid()
        grid["N"] = [2.5, True, 2.0, math.inf]
        recs = sweep(grid)
        assert ["error" in r.outputs for r in recs[:4]] == [True, True, False, True]
        assert [r.inputs["N"] for r in recs[:4]] == [2.5, True, 2, math.inf]
        assert "whole number" in recs[0].outputs["error"]

    def test_tiny_tau_row_has_a_finite_limit(self):
        grid = self.base_grid()
        grid.update(E=[2.0], tau=[1e-8])
        (rec,) = sweep(grid)
        assert rec.outputs["abs_z_sq"] == 1.0
        assert rec.outputs["h5_operative"]
        assert math.isfinite(rec.outputs["entropy_production_limit"])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="grid"):
            sweep(None)
        with pytest.raises(ValueError, match="missing axes"):
            sweep({})
        grid = self.base_grid()
        del grid["tau"]
        with pytest.raises(ValueError, match="missing axes"):
            sweep(grid)
        grid = self.base_grid()
        grid["E"] = []
        with pytest.raises(ValueError, match="nonempty"):
            sweep(grid)
        grid = self.base_grid()
        grid["cutoff"] = [8]
        with pytest.raises(ValueError, match="unknown sweep grid axes: \\['cutoff'\\]"):
            sweep(grid)


class TestOracleStates:
    def test_steps_one_slot_at_a_time(self):
        p = std_params(N=2, tau=1.0, eta=0.5)
        states = list(oracle_states(p, 6))
        assert len(states) == 3
        product = fock_oracle.BlockedDensityMatrix.from_thermal_product(
            [p.beta0, p.beta, p.beta], 6
        )
        for m, rho in enumerate(states):
            want = fock_oracle.evolve_density(product, p, range(1, m + 1))
            assert np.array_equal(rho._buffer, want._buffer)

    def test_chain_above_the_limit_raises(self):
        p = std_params(N=ORACLE_MAX_N + 1)
        with pytest.raises(ValueError, match=f"N <= {ORACLE_MAX_N}"):
            next(oracle_states(p, 6))

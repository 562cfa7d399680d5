"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test measures its deviations at the stated tolerance and runtime
budget.  Criteria that compare quantities related by an exact algebraic
identity (the entropy-production tail, the short-time Gibbs discrepancy)
are checked as identities at the 1e-12 roundoff allowance used for the
other exact-identity criteria, which implies the stated inequality at
working precision.
"""

import cmath
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from convergence import convergence_study
from mp_reference import dense_step_exponential
from richain import cli, dynamics, fock_oracle
from richain.experiments import (
    ChainStateSpec,
    LimitSchedule,
    short_time_limit_run,
)
from richain.kernel import (
    ModelParams,
    propagate_vector,
    step_matrix,
    step_scalars,
)
from richain.quasifree import char_fn, mode_entropy, occupation, occupation_entropy

LN3 = math.log(3)
LN2 = math.log(2)


def criterion(num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label} ({detail})"
    print(line)
    assert ok, line


def make_params(**kw):
    base = dict(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=8, beta0=LN3, beta=LN2)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def oracle_states_d25():
    """Blocked thermal three-mode reference and its one- and two-step images."""
    p2 = make_params(E=1.0, N=2)
    rho0 = fock_oracle.BlockedDensityMatrix.from_thermal_product(
        [p2.beta0, p2.beta, p2.beta], 25
    )
    rho1 = fock_oracle.evolve_density(rho0, p2, [1])
    rho2 = fock_oracle.evolve_density(rho1, p2, [2])
    return p2, [rho0, rho1, rho2]


def test_criterion_01_kernel_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    devs = {"g": 0.0, "zw": 0.0, "w_imag": 0.0, "unitary": 0.0}
    eye = np.eye(5)
    for _ in range(1000):
        E = rng.uniform(0.1, 5.0)
        eps = rng.uniform(0.1, 5.0)
        eta = rng.uniform(0.0, 0.999) * math.sqrt(E * eps)
        p = make_params(E=E, eps=eps, eta=eta, tau=rng.uniform(0.05, 3.0), N=4)
        s = step_scalars(p)
        V = step_matrix(p, int(rng.integers(1, 5)))
        devs["g"] = max(devs["g"], abs(abs(s.g) - 1.0))
        devs["zw"] = max(devs["zw"], abs(abs(s.z) ** 2 + abs(s.w) ** 2 - 1.0))
        devs["w_imag"] = max(devs["w_imag"], abs(s.w + s.w.conjugate()))
        devs["unitary"] = max(devs["unitary"], float(np.max(np.abs(V.conj().T @ V - eye))))
    elapsed = time.perf_counter() - start
    worst = max(devs.values())
    criterion(1, "kernel identities over 1000 seeded parameter sets",
              worst < 1e-12 and elapsed < 1.0,
              f"max deviation {worst:.3e} < 1e-12, {elapsed:.2f} s < 1 s")


def test_criterion_02_closed_form_vs_matrix_product():
    p = make_params(E=2.0, eta=0.7, tau=0.8, N=50)
    start = time.perf_counter()
    phase = complex(np.exp(1j * p.tau * p.eps))
    U = np.eye(51, dtype=complex)
    prefix = {}
    for n in range(1, 51):
        U = U @ (phase * step_matrix(p, n))
        if n in (1, 25, 50):
            prefix[n] = U.copy()
    rng = np.random.default_rng(202)
    Z = rng.standard_normal((51, 100)) + 1j * rng.standard_normal((51, 100))
    dev = 0.0
    for m, P in prefix.items():
        explicit = P @ Z
        for i in range(100):
            out = propagate_vector(p, m, Z[:, i])
            dev = max(dev, float(np.max(np.abs(out - explicit[:, i]))))
    elapsed = time.perf_counter() - start
    criterion(2, "closed-form propagation vs explicit product, N=50, 100 vectors",
              dev < 1e-10 and elapsed < 5.0,
              f"max deviation {dev:.3e} < 1e-10, {elapsed:.2f} s < 5 s")


def test_criterion_03_matrix_exponential_equals_step():
    cases = [
        make_params(),
        make_params(E=1.0, eps=1.0, eta=1.0, tau=math.pi / 4),
        make_params(E=0.3, eps=2.5, eta=0.8, tau=2.0),
        make_params(E=4.0, eps=0.5, eta=1.2, tau=0.1),
    ]
    dev = 0.0
    for base in cases:
        for N in range(1, 11):
            p = replace(base, N=N)
            phase = cmath.exp(1j * p.tau * p.eps)
            for n in range(1, N + 1):
                step = phase * step_matrix(p, n)
                dev = max(dev, float(np.max(np.abs(dense_step_exponential(p, n) - step))))
    criterion(3, "eigendecomposition exponential equals closed-form step, N <= 10",
              dev < 1e-10, f"max deviation {dev:.3e} < 1e-10")


def test_criterion_04_oracle_characteristic_functions(oracle_states_d25):
    p2, rho_m = oracle_states_d25
    start = time.perf_counter()
    state = dynamics.reduced_state(p2, 2, range(p2.N + 1))
    rng = np.random.default_rng(404)
    zetas = []
    for _ in range(50):
        zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        zeta *= rng.uniform(0.0, 0.5) / np.linalg.norm(zeta)
        zetas.append(zeta)
    # the oracle takes all 50 samples in one call
    brute = fock_oracle.weyl_expectation(rho_m[2], np.array(zetas))
    dev = max(abs(complex(char_fn(state, z)) - b) for z, b in zip(zetas, brute))
    elapsed = time.perf_counter() - start
    criterion(4, "characteristic functions vs truncated-Fock oracle, D=25, 50 points",
              dev < 1e-5 and elapsed < 120.0,
              f"max deviation {dev:.3e} < 1e-5, {elapsed:.1f} s < 120 s")


def test_criterion_05_oracle_relative_entropy():
    p2 = make_params(E=1.0, N=2)
    ref = fock_oracle.BlockedDensityMatrix.from_thermal_product(
        [p2.beta0, p2.beta, p2.beta], 30
    )
    evolved = fock_oracle.evolve_density(ref, p2, [1, 2])
    got = fock_oracle.relative_entropy_oracle(evolved, ref)
    want = dynamics.relative_entropy(p2, 2)
    dev = abs(got - want)
    criterion(5, "relative entropy closed form vs oracle, D=30",
              dev < 1e-4, f"deviation {dev:.3e} < 1e-4")


def test_criterion_06_entropy_constancy(oracle_states_d25):
    p2, rho_m = oracle_states_d25
    target = p2.N * mode_entropy(p2.beta) + mode_entropy(p2.beta0)
    dev = max(
        abs(fock_oracle.von_neumann_entropy(rho) - target) for rho in rho_m
    )
    criterion(6, "oracle von Neumann entropy constant over m=0,1,2, D=25",
              dev < 1e-5, f"max deviation {dev:.3e} < 1e-5")


def test_criterion_07_entropy_production_tail():
    rng = np.random.default_rng(707)
    points = 0
    excess = 0.0
    identity_dev = 0.0
    while points < 20:
        E = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.2, 3.0)
        eta = rng.uniform(0.05, 0.95) * math.sqrt(E * eps)
        p = make_params(E=E, eps=eps, eta=eta, tau=rng.uniform(0.1, 2.5),
                        N=200, beta0=rng.uniform(0.2, 3.0), beta=rng.uniform(0.2, 3.0))
        if abs(p.beta0 - p.beta) < 1e-3 or abs(step_scalars(p).z) >= 1.0:
            continue
        points += 1
        limit = dynamics.entropy_production_limit(p)
        q = abs(step_scalars(p).z) ** 2
        for n in range(0, 201):
            gap = abs(dynamics.relative_entropy(p, n) - limit)
            bound = limit * q**n
            excess = max(excess, gap - bound)
            identity_dev = max(identity_dev, abs(gap - bound))
    # the tail saturates the bound exactly, so the inequality is checked as
    # the identity |gap - prefactor |z|^2N| <= 1e-12, which implies it
    criterion(7, "entropy production within prefactor*|z|^2N of its limit, N <= 200",
              identity_dev < 1e-12,
              f"max excess over bound {max(excess, 0.0):.3e}, "
              f"identity deviation {identity_dev:.3e} < 1e-12")


def test_criterion_08_effective_temperature_convergence():
    dev = 0.0
    for p in (make_params(E=1.0, N=100), make_params(E=2.0, eta=0.9, N=100)):
        q = abs(step_scalars(p).z) ** 2
        n_bg = occupation(p.beta)
        ns = [occupation(dynamics.effective_beta_S(p, m)) for m in range(0, 101)]
        for m in range(100):
            dev = max(dev, abs(ns[m + 1] - (q * ns[m] + (1.0 - q) * n_bg)))
    p = make_params(E=1.0, N=100)
    q = abs(step_scalars(p).z) ** 2
    fitted = convergence_study(p, "beta_star_gap", horizon=100).fitted_ratio
    ratio_err = abs(fitted - q) / q
    criterion(8, "n(beta*) affine identity and fitted geometric ratio |z|^2",
              dev < 1e-12 and ratio_err <= 0.02,
              f"affine deviation {dev:.3e} < 1e-12, ratio off by {100 * ratio_err:.3f}% <= 2%")


def test_criterion_09_window_subsystem():
    p = make_params(E=1.0, N=16)
    dev = 0.0
    for n in range(0, 5):
        for k in range(n, 13):
            if k == 0:
                embedded = 1.0
            else:
                embedded = 0.0
                for slot in [0] + list(range(k - n + 1, k + 1)):
                    e = np.zeros(17, dtype=complex)
                    e[slot] = 1.0
                    embedded += abs(propagate_vector(p, k, e)[0]) ** 2
            dev = max(dev, abs(embedded - dynamics.window_overlap_norm_sq(p, n, k)))
    n_bg = occupation(p.beta)
    const = p.beta * abs(occupation(p.beta0) - n_bg)
    ratio_err = 0.0
    proportional = True
    for n in range(0, 5):
        ratios = []
        for k in (10, 13, 16):
            norm = dynamics.window_overlap_norm_sq(p, n, k)
            err = abs(dynamics.window_entropy(p, n, k) - (n + 1) * occupation_entropy(n_bg))
            ratios.append(err / norm)
        ratio_err = max(ratio_err, abs(ratios[-1] / const - 1.0))
        # the ratio settles onto the constant as the overlap shrinks
        proportional &= abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
    criterion(9, "window overlap embedding identity and entropy proportionality",
              dev < 1e-12 and ratio_err < 0.05 and proportional,
              f"embedding deviation {dev:.3e} < 1e-12, "
              f"error/overlap off constant by {100 * ratio_err:.2f}% < 5%")


def test_criterion_10_short_time_limit():
    start = time.perf_counter()
    template = make_params(E=1.0, eta=1.0)
    schedule = LimitSchedule(exponent=0.4, multiplier=2.0)
    theta = 1.0 + 0.0j

    gibbs = ChainStateSpec(kind="gibbs", beta=template.beta)
    grecs = short_time_limit_run(template, schedule, gibbs, [theta])
    n0 = occupation(template.beta0)
    n_bg = occupation(template.beta)
    gibbs_dev = 0.0
    gerrs = []
    for rec in grecs:
        n, tau = rec.outputs["N"], rec.outputs["tau"]
        q = abs(step_scalars(replace(template, tau=tau, N=n)).z) ** 2
        target = math.exp(-0.25 * (2.0 * n_bg + 1.0)) * abs(
            -math.expm1(-0.5 * q**n * (n0 - n_bg))
        )
        gibbs_dev = max(gibbs_dev, abs(rec.outputs["abs_error"] - target))
        gerrs.append(rec.outputs["abs_error"])
    # strictly decreasing until the tail underflows to an exact zero
    gibbs_monotone = all(b < a or a == b == 0.0 for a, b in zip(gerrs, gerrs[1:]))

    number = ChainStateSpec(kind="number_state", level=1)
    moment = number.symmetric_moment()
    nrecs = short_time_limit_run(template, schedule, number, [theta])
    nerrs = [r.outputs["abs_error"] for r in nrecs]
    limit_dev = abs(nrecs[-1].outputs["limit"] - math.exp(-0.75))
    law_gap = max(
        abs(o["abs_error"] - o["predicted_error"]) - o["law_remainder"] - 1e-14 * o["limit"]
        for o in (r.outputs for r in nrecs)
    )
    tsq = [r.outputs["tau_sq_N"] for r in nrecs]
    first = next(j for j, t in enumerate(tsq) if t >= 1.0)
    number_monotone = all(b <= a for a, b in zip(nerrs[first:], nerrs[first + 1:]))
    elapsed = time.perf_counter() - start

    criterion(10, "short-time universality along tau = 2 N^-0.4",
              gibbs_dev < 1e-12 and gibbs_monotone and abs(moment - 3.0) < 1e-12
              and limit_dev < 1e-12 and law_gap <= 0.0 and number_monotone
              and elapsed < 300.0,
              f"closed-form discrepancy match {gibbs_dev:.3e} < 1e-12, "
              f"|1> final error {nerrs[-1]:.3e}, its distance from the error law "
              f"beyond the law's remainder {law_gap:.3e} <= 0, {elapsed:.1f} s < 300 s")


def test_criterion_11_determinism(tmp_path, capsys):
    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    configs = {
        "simulate": {"schema_version": 1,
                     "model": {"E": 1.0, "eps": 1.0, "eta": 0.5, "tau": 1.0,
                               "N": 2, "beta0": LN3, "beta": LN2}},
        "subsystem": {"schema_version": 1,
                      "model": {"N": 12},
                      "subsystem": {"kind": "window", "m": 9, "n": 2,
                                    "alphas": [[[0.5, 0.0], [0.1, 0.2], [0.3, -0.1]]]}},
        "limit": {"schema_version": 1,
                  "model": {"E": 1.0, "eps": 1.0, "eta": 1.0, "tau": 0.1, "N": 10},
                  "limit": {"checkpoints": [100, 1000, 10000]}},
        "sweep": {"schema_version": 1,
                  "sweep": {"grid": {"E": [1.0, 2.0], "eps": [1.0], "eta": [0.5],
                                     "tau": [1.0], "beta0": ["inf", LN3],
                                     "beta": [LN2], "N": [2]}}},
    }
    identical = True
    worst = ""
    for cmd in ("kernel", "simulate", "subsystem", "limit", "sweep", "verify"):
        argv = [cmd]
        if cmd in configs:
            path = tmp_path / f"{cmd}.json"
            path.write_text(json.dumps(configs[cmd]), encoding="utf-8")
            argv += ["--config", str(path)]
        out_a, out_b = tmp_path / f"{cmd}_a.csv", tmp_path / f"{cmd}_b.csv"
        code_a, stdout_a = run(argv + ["--output", str(out_a)])
        code_b, stdout_b = run(argv + ["--output", str(out_b)])
        same = (code_a == code_b == 0 and stdout_a == stdout_b
                and out_a.read_bytes() == out_b.read_bytes())
        if not same:
            identical = False
            worst = cmd
    criterion(11, "verification report and every CSV output byte-identical on rerun",
              identical,
              "six subcommands, stdout and file bytes"
              + (f"; first mismatch: {worst}" if worst else ""))

"""`verify` bites: each closed form perturbed far above rounding fails the checks
that read it.

Each row scales one function's value by 1 + delta and runs the whole suite at
cutoff 8.  Cutoff 8 fails the three oracle checks from truncation alone, so
only the other eleven are compared.  The gz_power row moves xi_m off the unit
sphere: no library gate stops the run, and the checks that read the phases
report it.  One test perturbs the evolved state of a hot chain, where a unit
zeta would underflow the compared values to 0.  The last evaluates every step
at tau (1 + 1e-9), a defect that keeps each scalar identity: the checks whose
reference is the generator's own 2x2 exponential fail, the rest pass.
"""

from dataclasses import replace

import pytest

from richain import cli, dynamics, experiments, kernel
from richain.kernel import StepScalars

ORACLE_CHECKS = {"oracle_char_fn", "oracle_entropy_constancy", "oracle_relative_entropy"}

ROWS = [
    (StepScalars, "zsq_complement", 1e-10, {"effective_beta_affine", "marginalization_consistency",
                                            "entropy_production_affine"}),
    (StepScalars, "zsq_power", 1e-10, {"effective_beta_affine", "window_norm_embedding",
                                       "limit_law", "marginalization_consistency"}),
    (StepScalars, "gz_power", 1e-9, {"propagation_vs_matrix_product", "marginalization_consistency",
                                     "limit_law"}),
    (dynamics, "_occupation_S", 1e-9, {"effective_beta_affine", "marginalization_consistency"}),
    (dynamics, "_production_prefactor", 1e-9, {"entropy_production_affine"}),
    (dynamics, "window_overlap_norm_sq", 1e-9, {"window_norm_embedding"}),
]


def failed_checks(params) -> set:
    return {r.outputs["check"] for r in cli.run_verification(params, cutoff=8)
            if not r.outputs["passed"]} - ORACLE_CHECKS


def test_unperturbed_passes():
    assert failed_checks(cli._model_from_config({})) == set()


@pytest.mark.parametrize("owner, name, delta, caught", ROWS, ids=[row[1] for row in ROWS])
def test_perturbation_fails_its_checks(monkeypatch, owner, name, delta, caught):
    exact = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: exact(*args) * (1 + delta))
    assert failed_checks(cli._model_from_config({})) == caught


def test_composition_bites_on_a_hot_chain(monkeypatch):
    # at beta = 1e-12 a unit zeta would underflow both characteristic functions to 0;
    # |zeta|^2 = 1/(2n + 1) keeps them near e^(-1/4), so an evolved background
    # occupation off by 1e-9 fails the check
    exact = dynamics.reduced_state

    def perturbed(params, m, slots):
        state = exact(params, m, slots)
        return replace(state, n=state.n * (1 + 1e-9)) if m else state

    monkeypatch.setattr(dynamics, "reduced_state", perturbed)
    assert failed_checks(cli._model_from_config({"model": {"beta": 1e-12}})) == {"quasifree_composition"}


def test_consistent_step_defect_fails_the_generator_checks(monkeypatch):
    # tau * (1 + 1e-9) inside step_scalars keeps |g| = 1, |z|^2 + |w|^2 = 1 and w
    # imaginary, so every closed form stays self-consistent: only the references
    # formed from the generator's own exponential see it
    exact = kernel.step_scalars
    for module in (kernel, dynamics, experiments, cli):
        monkeypatch.setattr(module, "step_scalars",
                            lambda params: exact(replace(params, tau=params.tau * (1 + 1e-9))))
    assert failed_checks(cli._model_from_config({})) == {
        "matrix_exponential", "propagation_vs_matrix_product", "quasifree_composition",
        "effective_beta_affine", "entropy_production_affine", "window_norm_embedding"}

"""`verify` bites: each closed form perturbed far above rounding fails the checks
that read it.

Each row scales one function's value by 1 + delta and runs the whole suite at
cutoff 8.  Cutoff 8 fails the three oracle checks from truncation alone, so
only the other ten are compared.  The production prefactor scaled by 1 + 1e-9
is caught by none of them, which is why it has no row.  The last test perturbs
the evolved state of a hot chain, where a unit zeta would underflow the
compared values to 0.
"""

from dataclasses import replace

import pytest

from richain import cli, dynamics
from richain.kernel import StepScalars

ORACLE_CHECKS = {"oracle_char_fn", "oracle_entropy_constancy", "oracle_relative_entropy"}

ROWS = [
    (StepScalars, "zsq_complement", 1e-10, {"effective_beta_affine", "marginalization_consistency"}),
    (StepScalars, "zsq_power", 1e-10, {"effective_beta_affine", "window_norm_embedding",
                                       "limit_law", "marginalization_consistency"}),
    (dynamics, "_occupation_S", 1e-9, {"effective_beta_affine", "marginalization_consistency"}),
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
    evolve = dynamics.evolve_state

    def perturbed(params, m):
        state = evolve(params, m)
        return replace(state, n=state.n * (1 + 1e-9)) if m else state

    monkeypatch.setattr(dynamics, "evolve_state", perturbed)
    assert failed_checks(cli._model_from_config({"model": {"beta": 1e-12}})) == {"quasifree_composition"}

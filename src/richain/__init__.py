"""Exactly soluble dynamics of an oscillator refreshed by a chain of modes.

One distinguished mode meets a sequence of identically prepared chain
modes, one per time slot, through a bilinear exchange coupling.  Every
dynamical quantity of interest admits a closed form: the propagator is a
product of two-mode rotations, quasi-free states stay quasi-free, and
the entropies reduce to scalar recursions.  A truncated-Fock brute-force
oracle cross-checks the closed forms on small chains.
"""

from .kernel import (
    ModelParams,
    as_integer,
    StepScalars,
    matrix_exponential_check,
    normal_modes,
    pair_exponential,
    propagate_vector,
    step_matrix,
    step_scalars,
)
from .quasifree import (
    RankOneQuasiFreeState,
    char_fn,
    mode_entropy,
    occupation,
    occupation_entropy,
)
from .dynamics import (
    char_fn_S,
    effective_beta_S,
    effective_beta_Sm,
    entropy_production_limit,
    reduced_char_fn,
    reduced_state,
    relative_entropy,
    subsystem_slots,
    total_entropy,
    window_entropy,
    window_overlap_norm_sq,
)
from .experiments import (
    ChainStateSpec,
    LimitSchedule,
    RunRecord,
    moment_hypothesis_check,
    short_time_limit_run,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "StepScalars", "as_integer",
    "step_scalars", "step_matrix", "normal_modes", "pair_exponential",
    "matrix_exponential_check", "propagate_vector",
    "RankOneQuasiFreeState", "mode_entropy", "occupation", "occupation_entropy",
    "char_fn",
    "subsystem_slots", "reduced_state", "reduced_char_fn", "char_fn_S",
    "effective_beta_S", "effective_beta_Sm", "total_entropy",
    "relative_entropy", "entropy_production_limit",
    "window_overlap_norm_sq", "window_entropy",
    "LimitSchedule", "ChainStateSpec", "RunRecord",
    "moment_hypothesis_check", "short_time_limit_run", "sweep",
    "__version__",
]

"""Universality of the many-fast-weak-interactions limit.

Send N -> infinity while shrinking the window as tau = c N^(-a) with
1/3 < a < 1/2.  The distinguished mode's characteristic function then
depends on the chain state only through one number, the symmetric
second moment Tr[rho_1 (a a* + a* a)]: a Gibbs chain and a |1> number
state chain with the same moment land on the same limit.
"""

import math

from richain import (
    ChainStateSpec,
    LimitSchedule,
    ModelParams,
    short_time_limit_run,
)

template = ModelParams(E=1.0, eps=1.0, eta=1.0, tau=1.0, N=8,
                       beta0=math.log(3), beta=math.log(2))
schedule = LimitSchedule(exponent=0.4, multiplier=2.0)
theta = [1.0 + 0.0j]

for spec in (ChainStateSpec(kind="gibbs", beta=math.log(2)),
             ChainStateSpec(kind="number_state", level=1)):
    moment = spec.symmetric_moment()
    limit = math.exp(-0.25 * moment)
    label = spec.kind if spec.kind == "gibbs" else f"number state |{spec.level}>"
    print(f"{label}: symmetric moment {moment:.4f}, limit {limit:.10f}")
    records = short_time_limit_run(template, schedule, spec, theta)
    print("       N        tau      tau^2 N    |value - limit|   predicted   law remainder")
    for rec in records:
        o = rec.outputs
        print(f"  {o['N']:8d}   {o['tau']:.5f}   {o['tau_sq_N']:8.2f}"
              f"    {o['abs_error']:.4e}      {o['predicted_error']:.4e}    {o['law_remainder']:.1e}")
    print()

print("both chains drive the distinguished mode to the same Gaussian limit;")
print("the error law of the chain's factorial moments predicts the error, and")
print("the measured error stays within the law's remainder of the prediction.")

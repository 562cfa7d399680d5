"""Closed forms vs a truncated-Fock brute-force oracle on a short chain.

Every analytic result in the library can be replayed, slowly, by exact
diagonalization of the truncated ladder operators.  On a two-mode chain
at cutoff D the oracle carries no model insight at all: it builds the
step Hamiltonians, exponentiates them, and traces.
"""

import math

import numpy as np

from richain import ModelParams, char_fn, fock_oracle, reduced_state
from richain import relative_entropy, total_entropy

D = 20
p = ModelParams(E=1.0, eps=1.0, eta=0.5, tau=1.0, N=2,
                beta0=math.log(3), beta=math.log(2))

rho0 = fock_oracle.BlockedDensityMatrix.from_thermal_product(
    [p.beta0, p.beta, p.beta], D)
rho2 = fock_oracle.evolve_density(rho0, p, [1, 2])

rng = np.random.default_rng(9)
dev = 0.0
state = reduced_state(p, 2, range(p.N + 1))
for _ in range(20):
    zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta *= 0.4 / np.linalg.norm(zeta)
    exact = complex(char_fn(state, zeta))
    dev = max(dev, abs(exact - fock_oracle.weyl_expectation(rho2, zeta)))
print(f"characteristic function, 20 random arguments at D={D}: max dev {dev:.2e}")

s_oracle = fock_oracle.von_neumann_entropy(rho2)
s_exact = total_entropy(p, 2)
print(f"von Neumann entropy after 2 steps: oracle {s_oracle:.8f},"
      f" closed form {s_exact:.8f}, dev {abs(s_oracle - s_exact):.2e}")

ent_oracle = fock_oracle.relative_entropy_oracle(rho2, rho0)
ent_exact = relative_entropy(p, 2)
print(f"entropy production after 2 steps:  oracle {ent_oracle:.8f},"
      f" closed form {ent_exact:.8f}, dev {abs(ent_oracle - ent_exact):.2e}")

print("\nresidual deviations are pure truncation; they shrink with the cutoff:")
for d in (12, 16, 20):
    r0 = fock_oracle.BlockedDensityMatrix.from_thermal_product(
        [p.beta0, p.beta, p.beta], d)
    r2 = fock_oracle.evolve_density(r0, p, [1, 2])
    err = abs(fock_oracle.von_neumann_entropy(r2) - s_exact)
    print(f"  D = {d:2d}: entropy dev {err:.2e}")

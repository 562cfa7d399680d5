"""One interaction step and the exact multi-step propagator.

The distinguished oscillator (energy E) couples to chain mode n with
strength eta for a window of length tau.  Each window contributes one
2x2 mixing block; the closed-form m-step propagation is compared here
against the explicit ordered matrix product.
"""

import cmath
import math

import numpy as np

from richain import (
    ModelParams,
    matrix_exponential_check,
    normal_modes,
    propagate_vector,
    step_matrix,
    step_scalars,
)

p = ModelParams(E=2.0, eps=1.0, eta=0.5, tau=1.0, N=12,
                beta0=math.log(3), beta=math.log(2))
s = step_scalars(p)

print("step scalars at E=2, eps=1, eta=0.5, tau=1")
print(f"  g = {s.g:.6f}   |g| - 1      = {abs(s.g) - 1:+.2e}")
print(f"  w = {s.w:.6f}   w + conj(w)  = {s.w + s.w.conjugate():+.2e}")
print(f"  z = {s.z:.6f}   |z|^2+|w|^2-1 = {abs(s.z)**2 + abs(s.w)**2 - 1:+.2e}")

e0, e1 = normal_modes(p)
print(f"  two-mode normal frequencies: {e0:.6f}, {e1:.6f}")

print(f"  stability eta^2 <= E*eps (ModelParams enforces it): {p.eta**2:g} <= {p.E * p.eps:g};"
      f" strict contraction |z| < 1: {s.contracting}")

# the eigendecomposition route and the closed form agree on the two coupled
# slots, the same block for every step
dev = matrix_exponential_check(p)
print(f"\nexp(i tau Y) vs closed-form step on slots {{0, n}}: max dev {dev:.2e}")

# closed-form m-step propagation vs the ordered product U_1 ... U_m
rng = np.random.default_rng(5)
zeta = rng.standard_normal(p.N + 1) + 1j * rng.standard_normal(p.N + 1)
phase = cmath.exp(1j * p.tau * p.eps)
U = np.eye(p.N + 1, dtype=complex)
for n in range(1, 8):
    U = U @ (phase * step_matrix(p, n))
out = propagate_vector(p, 7, zeta)
print(f"m=7 closed form vs explicit product:   max dev {np.max(np.abs(out - U @ zeta)):.2e}")

# the distinguished component contracts by |gz| per step
theta = np.zeros(p.N + 1, dtype=complex)
theta[0] = 1.0
print("\n|propagated e0 component 0| per step (decays like |z|^m):")
for m in (1, 2, 4, 8, 12):
    amp = abs(propagate_vector(p, m, theta)[0])
    print(f"  m = {m:2d}: {amp:.6f}   |z|^m = {abs(s.z)**m:.6f}")

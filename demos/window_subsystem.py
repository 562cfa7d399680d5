"""The distinguished mode plus its n most recent chain partners.

After k steps the reduced state of that sliding window is an exactly
quasi-free rank-one perturbation of the chain Gibbs state whose memory
of the initial condition is the overlap <xi,xi>.  The overlap decays
geometrically in k, so the window entropy converges to the fully
thermalized value (n+1) s(n(beta)), with s the entropy of one mode of
mean occupation n(beta), and with error asymptotically proportional to
the overlap itself.
"""

import math

from richain import (
    ModelParams,
    occupation,
    occupation_entropy,
    window_entropy,
    window_overlap_norm_sq,
)

p = ModelParams(E=1.0, eps=1.0, eta=0.5, tau=1.0, N=16,
                beta0=math.log(3), beta=math.log(2))
n = 2
n_beta = occupation(p.beta)
thermal = (n + 1) * occupation_entropy(n_beta)
const = p.beta * abs(occupation(p.beta0) - n_beta)

print(f"window of n = {n} recent chain modes plus the distinguished mode")
print(f"thermal entropy target (n+1) s(n(beta)) = {thermal:.10f}\n")

print(" k   <xi,xi>       S_window       error        error/<xi,xi>")
for k in (2, 4, 6, 8, 10, 12, 14, 16):
    overlap = window_overlap_norm_sq(p, n, k)
    s_w = window_entropy(p, n, k)
    err = abs(s_w - thermal)
    print(f"{k:2d}   {overlap:.6e}  {s_w:.10f}  {err:.3e}    {err / overlap:.6f}")

print(f"\nlimiting ratio beta |n(beta0) - n(beta)| = {const:.6f}")

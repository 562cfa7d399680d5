"""Dense reference helpers for the oracle tests."""

import numpy as np

from richain import fock_oracle as fo


def sector_blocks(rho):
    """Dense block of each total-occupation sector, in sector order.

    Each group block lands on its basis positions inside its sector; no
    D^M x D^M matrix is built.
    """
    basis = fo._SectorBasis.get(rho.modes, rho.cutoff)
    starts = basis.starts
    out = [np.zeros((hi - lo, hi - lo), dtype=complex) for lo, hi in zip(starts[:-1], starts[1:])]
    group_of = rho._layout.group_of
    members = np.split(np.argsort(group_of, kind="stable"), np.cumsum([len(b) for b in rho.blocks])[:-1])
    for block, positions in zip(rho.blocks, members):
        s = basis.totals[positions[0]]
        local = positions - starts[s]
        out[s][np.ix_(local, local)] = block
    return out


def partial_trace(rho, keep):
    """Reduced density matrix on the modes listed in `keep` (in that order).

    A blocked state is traced sector by sector, from `sector_blocks`: at
    D = 16 three modes make a 4096 x 4096 dense matrix (256 MiB).
    """
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty list of distinct modes")
    if any(not 0 <= k < rho.modes for k in keep):
        raise ValueError(f"keep entries must lie in 0..{rho.modes - 1}")
    D = rho.cutoff
    traced = [m for m in range(rho.modes) if m not in keep]
    out_dim = D ** len(keep)
    if isinstance(rho, fo.BlockedDensityMatrix):
        out = np.zeros((out_dim, out_dim), dtype=complex)
        keep_radix = D ** np.arange(len(keep) - 1, -1, -1)
        traced_radix = D ** np.arange(len(traced) - 1, -1, -1)
        basis = fo._SectorBasis.get(rho.modes, D)
        sectors = np.split(basis.grid, basis.starts[1:-1])
        for B, block in zip(sectors, sector_blocks(rho)):
            kept_idx = B[:, keep] @ keep_radix
            traced_key = B[:, traced] @ traced_radix
            for key in np.unique(traced_key):
                grp = np.flatnonzero(traced_key == key)
                out[np.ix_(kept_idx[grp], kept_idx[grp])] += block[np.ix_(grp, grp)]
        return fo.FockDensityMatrix(len(keep), D, out)
    T = rho.matrix.reshape((D,) * (2 * rho.modes))
    for m in sorted(traced, reverse=True):
        T = np.trace(T, axis1=m, axis2=m + (T.ndim // 2))
    remaining = [m for m in range(rho.modes) if m in keep]
    perm = [remaining.index(k) for k in keep]
    half = len(keep)
    T = np.transpose(T, axes=perm + [p + half for p in perm])
    return fo.FockDensityMatrix(len(keep), D, T.reshape(out_dim, out_dim))

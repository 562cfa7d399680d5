"""Dense reference for the oracle tests, on plain ndarrays.

The step is the kron-embedded step Hamiltonian exponentiated by scipy's
expm, the Weyl expectation an einsum over expm'd one-mode factors, and
the entropies come from full-matrix eigendecompositions.  Nothing here
shares code with the blocked oracle's pair blocks, steps or spectra.
"""

import math

import numpy as np
import scipy.linalg

from richain import fock_oracle as fo

# largest dense dimension D^M the reference builds
DENSE_DIM_GUARD = 20000


def _check_dim(dim):
    if dim > DENSE_DIM_GUARD:
        raise ValueError(f"dense dimension {dim} exceeds the guard {DENSE_DIM_GUARD}")


def _kron_all(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def step_hamiltonian(params, n, modes, cutoff):
    """Dense step-n Hamiltonian on `modes` modes at the given cutoff.

    H_n = E*num_0 + eps*sum_k num_k + eta*(b0^dag b_n + b_n^dag b0),
    with k running over chain slots 1..modes-1.
    """
    if not 1 <= n < modes:
        raise ValueError(f"active slot n must satisfy 1 <= n < modes, got {n}")
    _check_dim(cutoff**modes)
    a = fo.build_ladder(cutoff)
    num = np.diag(np.arange(cutoff)).astype(complex)
    eye = np.eye(cutoff, dtype=complex)

    def embed(ops):
        return _kron_all([ops.get(m, eye) for m in range(modes)])

    H = params.E * embed({0: num})
    for k in range(1, modes):
        H += params.eps * embed({k: num})
    H += params.eta * (embed({0: a.conj().T, n: a}) + embed({0: a, n: a.conj().T}))
    return H


def evolve(mat, params, schedule, modes, cutoff):
    """U_n mat U_n^H for each slot n in `schedule`, U_n = expm(-i*tau*H_n)."""
    for n in schedule:
        U = scipy.linalg.expm(-1j * params.tau * step_hamiltonian(params, n, modes, cutoff))
        mat = U @ mat @ U.conj().T
    return mat


def weyl_expectation(mat, zeta, cutoff, factor=None):
    """Tr[mat * W(zeta)], W the product of the one-mode Weyl operators.

    sum_{I,J} mat[I,J] * prod_m w_m[J_m, I_m], contracted mode by mode so
    the D^M x D^M Weyl matrix is never built.  Each w_m is scipy's expm of
    the truncated generator, or factor(zeta_m, cutoff) where given: a test
    of the contraction alone passes the oracle's own one-mode factors,
    which differ from expm's by about 1e-15.
    """
    zeta = np.asarray(zeta, dtype=complex)
    M, D = len(zeta), cutoff
    a = fo.build_ladder(D)
    operands = [np.asarray(mat).reshape((D,) * (2 * M)), list(range(2 * M))]
    for m, z in enumerate(zeta):
        if factor is None:
            w = scipy.linalg.expm(1j * (np.conj(z) * a + z * a.conj().T) / math.sqrt(2.0))
        else:
            w = factor(z, D)
        operands.extend([w, [M + m, m]])
    operands.append([])
    return complex(np.einsum(*operands, optimize=True))


def entropy(mat):
    """-Tr[mat ln mat] from the eigenvalues of the whole matrix."""
    lam = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    lam = lam[lam > fo.EIG_FLOOR]
    return float(-(lam * np.log(lam)).sum())


def relative_entropy(mat, ref):
    """Tr[mat (ln mat - ln ref)] for a full-rank `ref`, from the
    eigendecompositions of both matrices."""
    mu, V = np.linalg.eigh(ref)
    # diagonal of mat in the eigenbasis of ref
    weight_on_ref = np.einsum("ij,ik,kj->j", V.conj(), mat, V).real
    return -entropy(mat) - float(weight_on_ref @ np.log(mu))


def unpack(X):
    """The Hermitian blocks (..., k, k) of packed real blocks X.

    The convention of `BlockedDensityMatrix`: X[r, c] is Re rho[r, c] on
    and below the diagonal, and Im rho[c, r] above it.
    """
    X = np.asarray(X, dtype=float)
    r, c = np.indices(X.shape[-2:])
    Xt = np.swapaxes(X, -1, -2)
    real = np.where(r >= c, X, Xt)
    imag = np.where(r > c, Xt, np.where(r < c, -X, 0.0))
    return real + 1j * imag


def pack(H):
    """Packed real blocks of Hermitian blocks H (..., k, k), read off their
    lower triangles; the inverse of `unpack`."""
    H = np.asarray(H)
    r, c = np.indices(H.shape[-2:])
    return np.where(r >= c, H.real, np.swapaxes(H.imag, -1, -2))


def to_dense(rho):
    """The D^M x D^M matrix of a blocked state, in row-major occupation order."""
    dim = rho.cutoff**rho.modes
    _check_dim(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    # row-major ravel index of each basis tuple
    ravel = rho._layout.basis.grid @ (rho.cutoff ** np.arange(rho.modes - 1, -1, -1))
    for st, packed in rho._stacks():
        idx = ravel[st.members]
        mat[idx[:, :, None], idx[:, None, :]] = unpack(packed)
    return mat


def trace(rho):
    """Trace of a blocked state, summed over its group blocks."""
    return float(sum(np.trace(unpack(packed), axis1=1, axis2=2).real.sum()
                     for _, packed in rho._stacks()))


def sector_starts(modes, cutoff):
    """Basis position where each total-occupation sector starts, then the
    basis size: sector s is grid[starts[s]:starts[s + 1]]."""
    totals = fo._SectorBasis.get(modes, cutoff).totals
    return np.searchsorted(totals, np.arange(modes * (cutoff - 1) + 2))


def diagonal(rho):
    """Diagonal of a blocked state, one array per total-occupation sector."""
    return np.split(rho._diagonal(), sector_starts(rho.modes, rho.cutoff)[1:-1])


def blocks(rho):
    """One Hermitian block per group, by sector and then by uncoupled
    occupations, unpacked from the state's buffer: read-only views of one
    complex array."""
    layout = rho._layout
    spans = [(k, offset) for k, offset in zip(layout.sizes.tolist(), layout.offsets.tolist())]
    full = np.empty(rho._buffer.shape, dtype=complex)
    for k, offset in spans:
        packed = rho._buffer[offset : offset + k * k].reshape(k, k)
        full[offset : offset + k * k] = unpack(packed).ravel()
    full.flags.writeable = False
    return tuple(full[offset : offset + k * k].reshape(k, k) for k, offset in spans)


def sector_blocks(rho):
    """Dense block of each total-occupation sector, in sector order.

    Each group block lands on its basis positions inside its sector; no
    D^M x D^M matrix is built.
    """
    totals = rho._layout.basis.totals
    starts = sector_starts(rho.modes, rho.cutoff)
    out = [np.zeros((hi - lo, hi - lo), dtype=complex) for lo, hi in zip(starts[:-1], starts[1:])]
    group_blocks = blocks(rho)
    bounds = np.cumsum([len(b) for b in group_blocks])[:-1]
    members = np.split(np.argsort(rho._layout.group_of, kind="stable"), bounds)
    for block, positions in zip(group_blocks, members):
        s = totals[positions[0]]
        local = positions - starts[s]
        out[s][np.ix_(local, local)] = block
    return out


def from_sector_blocks(modes, cutoff, blocks):
    """Blocked state with one given block per total-occupation sector:
    `from_group_blocks` on the layout where every mode is coupled, whose
    groups are the sectors."""
    return from_group_blocks(modes, cutoff, range(modes), blocks)


def from_group_blocks(modes, cutoff, coupled, blocks):
    """Blocked state with one given block per group of the layout where
    the modes `coupled` have exchanged quanta, in the layout's group order.

    The blocks are packed into the buffer from their lower triangles; only
    their shapes are checked.
    """
    layout = fo._GroupLayout.get(modes, cutoff, frozenset(coupled))
    if len(blocks) != len(layout.sizes):
        raise ValueError(f"expected {len(layout.sizes)} group blocks, got {len(blocks)}")
    buffer = np.empty(layout.size)
    for g, (k, offset, block) in enumerate(zip(layout.sizes, layout.offsets, blocks)):
        block = np.asarray(block)
        if block.shape != (k, k):
            raise ValueError(f"group {g} block must be {k}x{k}, got {block.shape}")
        buffer[offset : offset + k * k] = pack(block).ravel()
    return fo.BlockedDensityMatrix(layout, buffer)


def _check_keep(keep, modes):
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty list of distinct modes")
    if any(not 0 <= k < modes for k in keep):
        raise ValueError(f"keep entries must lie in 0..{modes - 1}")
    return keep


def partial_trace(rho, keep):
    """Reduced density matrix of a blocked state on the modes listed in `keep`
    (in that order), as a plain ndarray.

    The state is traced sector by sector, from `sector_blocks`: at D = 16
    three modes make a 4096 x 4096 dense matrix (256 MiB).
    """
    keep = _check_keep(keep, rho.modes)
    D = rho.cutoff
    traced = [m for m in range(rho.modes) if m not in keep]
    out_dim = D ** len(keep)
    out = np.zeros((out_dim, out_dim), dtype=complex)
    keep_radix = D ** np.arange(len(keep) - 1, -1, -1)
    traced_radix = D ** np.arange(len(traced) - 1, -1, -1)
    grid = rho._layout.basis.grid
    sectors = np.split(grid, sector_starts(rho.modes, D)[1:-1])
    for B, block in zip(sectors, sector_blocks(rho)):
        kept_idx = B[:, keep] @ keep_radix
        traced_key = B[:, traced] @ traced_radix
        for key in np.unique(traced_key):
            grp = np.flatnonzero(traced_key == key)
            out[np.ix_(kept_idx[grp], kept_idx[grp])] += block[np.ix_(grp, grp)]
    return out


def dense_partial_trace(mat, modes, cutoff, keep):
    """Reduced density matrix of a dense `modes`-mode matrix on `keep`."""
    keep = _check_keep(keep, modes)
    D = cutoff
    T = np.asarray(mat).reshape((D,) * (2 * modes))
    for m in sorted(set(range(modes)) - set(keep), reverse=True):
        T = np.trace(T, axis1=m, axis2=m + (T.ndim // 2))
    remaining = sorted(keep)
    perm = [remaining.index(k) for k in keep]
    half = len(keep)
    T = np.transpose(T, axes=perm + [p + half for p in perm])
    return T.reshape(D**half, D**half)

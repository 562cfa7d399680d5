"""Brute-force finite-cutoff Fock-space simulator.

Everything here is built from truncated ladder matrices and Hermitian
eigendecompositions; none of the closed forms of the rest of the library
are imported, so agreement between the two paths is evidence, not
tautology.

Cutoff semantics: each mode keeps levels 0..D-1 and transitions beyond
level D-1 are dropped, i.e. operators are compressed to the truncated
space and unitaries are exponentials of the truncated Hamiltonians.

Multi-mode states have one representation, `BlockedDensityMatrix`.
Because the step Hamiltonians commute with the total number operator,
states evolved from diagonal products never develop matrix elements
between different total-occupation sectors, and a mode that has not yet
exchanged quanta keeps a definite occupation.  So a state stores one
dense block per group of equal uncoupled-mode occupations inside each
sector, all blocks of one state in one buffer.  Three modes at D = 24
make 70 sectors, the largest 432 x 432, and the states of a two-step run
store:

- the thermal product, no mode coupled: 1 x 1 groups, its 13,824
  diagonal entries (0.2 MiB);
- after step 1, modes 0 and 1 coupled: one pair block of size <= D per
  group, 221,376 entries (3.4 MiB);
- after step 2, every mode coupled: the groups are the sectors,
  4,382,904 entries (66.9 MiB), where the dense matrix takes 2.8 GiB.

States are born only as products, `from_diagonal_product` and
`from_thermal_product`, which `evolve_density` then steps; no public
call builds a state from caller-supplied blocks.  `evolve_density`,
`weyl_expectation`, `von_neumann_entropy` and `relative_entropy_oracle`
take blocked states only, and the reference of `relative_entropy_oracle`
must be a diagonal product.  `OneModeWeyl` reads a one-mode state as
a plain square matrix, whose size is its cutoff, and prepares it for
`weyl_expectation_batch`; the caller validates it.

The steps and spectra split further wherever the physics guarantees it:

- The pair Hamiltonian conserves the pair occupation p = n0 + nn, so
  its step unitary is one tridiagonal exponential of size <= D per p,
  cached per (E, eps, eta, tau, D).
- A step on slot n writes the layout of the coupled modes plus {0, n}
  directly.  Where each output group is one pair block p, as in the
  first step from a product, the group becomes U[p] rho_g U[p]^H,
  batched over the groups of one size.  Otherwise each output group
  embeds the finer input groups it contains and permutes rows only:
  Us @ block @ Us^H = Us @ (Us @ block)^H, and each side gathers the
  block's rows into spectator-occupation order, applies the pair blocks
  times their spectator phases to contiguous row slices and gathers the
  rows back.
- Blocks of one size are stacked in the buffer.  A spectrum is one
  `eigvalsh` call per size, computed once per state, and
  `weyl_expectation` gathers each mode's factor of the Weyl matrix for
  a run of one stack's groups with one flat `take` from that mode's
  transposed one-mode matrix, multiplies the factors in place and
  contracts them with the run in one dot of the two ravels.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlockedDensityMatrix",
    "build_ladder",
    "thermal_probabilities",
    "evolve_density",
    "weyl_expectation",
    "OneModeWeyl",
    "weyl_expectation_batch",
    "von_neumann_entropy",
    "relative_entropy_oracle",
]

EIG_FLOOR = 1e-300
NEG_EIG_CLAMP = -1e-12
_TRACE_TOL = 1e-12
# largest Weyl-matrix gather of `weyl_expectation` on a blocked state
_GATHER_ENTRIES = 1 << 17


def build_ladder(D: int) -> np.ndarray:
    """Truncated annihilation matrix: <n|a|n+1> = sqrt(n+1), top level dropped."""
    if D < 2:
        raise ValueError(f"cutoff must be at least 2, got {D}")
    return np.diag(np.sqrt(np.arange(1.0, D)), k=1).astype(complex)


def _expi_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*H) for Hermitian H via eigendecomposition (never a series)."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def _one_mode_weyl(alpha: complex, D: int) -> np.ndarray:
    """exp(i*(conj(alpha)*a + alpha*a^dag)/sqrt(2)) at cutoff D."""
    a = build_ladder(D)
    h = (np.conj(alpha) * a + alpha * a.conj().T) / math.sqrt(2.0)
    return _expi_hermitian(h, 1.0)


def thermal_probabilities(beta: float, D: int) -> np.ndarray:
    """Occupation probabilities of a thermal mode, renormalized over the cutoff."""
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    p = np.zeros(D)
    if math.isinf(beta):
        p[0] = 1.0
        return p
    weights = np.exp(-beta * np.arange(D))
    return weights / weights.sum()


class _SectorBasis:
    """Occupation tuples of M modes at cutoff D, grouped by total occupation.

    `grid` lists the tuples sector after sector, row-major inside a
    sector; a tuple's index in `grid` is its basis position.
    """

    def __init__(self, modes: int, cutoff: int):
        self.modes = modes
        self.cutoff = cutoff
        grid = np.indices((cutoff,) * modes).reshape(modes, -1).T  # (D^M, M)
        order = np.argsort(grid.sum(axis=1), kind="stable")
        self.grid = _read_only(np.ascontiguousarray(grid[order]))
        self.totals = _read_only(self.grid.sum(axis=1))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def get(cls, modes: int, cutoff: int) -> "_SectorBasis":
        return cls(modes, cutoff)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _indices(arr: np.ndarray) -> np.ndarray:
    """Read-only indices for the plans `_step_plan` caches: int32, half of intp, if they fit."""
    return _read_only(arr.astype(np.int32 if arr.size == 0 or arr.max() < 2**31 else np.intp))


def _occupation_groups(
    B: np.ndarray, cols: list[int], cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row order that groups the basis tuples B by their occupations of `cols`.

    Returns (order, bounds): group g is order[bounds[g]:bounds[g + 1]],
    and inside a group the rows keep the sector's row-major order.
    """
    key = B[:, cols] @ (cutoff ** np.arange(len(cols) - 1, -1, -1))
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    return order, np.r_[starts, len(B)]


class _Stack(NamedTuple):
    """The groups of one size k: `members[i]` lists the basis positions of
    the i-th, whose k x k block starts at buffer[offset + i*k*k]."""

    size: int
    members: np.ndarray
    offset: int


class _GroupLayout:
    """Groups of equal uncoupled-mode occupations inside each sector.

    A mode outside `coupled` keeps a definite occupation, so a state is
    block-diagonal in these groups.  Groups are numbered by sector and
    then by the uncoupled occupations, and inside a group the basis keeps
    the sector's row-major order.  A state keeps its blocks in one buffer
    of `size` entries, stacked by ascending block size.
    """

    def __init__(self, modes: int, cutoff: int, coupled: frozenset[int]):
        self.modes = modes
        self.cutoff = cutoff
        self.coupled = coupled
        self.basis = basis = _SectorBasis.get(modes, cutoff)
        uncoupled = [m for m in range(modes) if m not in coupled]
        key = basis.grid[:, uncoupled] @ (cutoff ** np.arange(len(uncoupled) - 1, -1, -1))
        positions = np.arange(len(key))
        order = np.lexsort((positions, key, basis.totals))
        new = np.r_[True, (np.diff(basis.totals[order]) != 0) | (np.diff(key[order]) != 0)]
        starts = np.flatnonzero(new)
        sorted_group = np.cumsum(new) - 1
        self.sizes = _read_only(np.diff(np.r_[starts, len(order)]))
        # group of each basis position, and its index inside that group
        self.group_of = np.empty_like(positions)
        self.group_of[order] = sorted_group
        self.local = np.empty_like(positions)
        self.local[order] = positions - starts[sorted_group]
        _read_only(self.group_of)
        _read_only(self.local)

        offsets = np.empty(len(starts), dtype=np.intp)
        stacks = []
        offset = 0
        for k in np.unique(self.sizes).tolist():
            groups = np.flatnonzero(self.sizes == k)
            offsets[groups] = offset + k * k * np.arange(len(groups))
            members = order[starts[groups][:, None] + np.arange(k)]
            stacks.append(_Stack(k, _read_only(members), offset))
            offset += len(groups) * k * k
        self.offsets = _read_only(offsets)
        self.stacks: tuple[_Stack, ...] = tuple(stacks)
        self.size = offset

    @classmethod
    @functools.lru_cache(maxsize=16)
    def get(cls, modes: int, cutoff: int, coupled: frozenset[int]) -> "_GroupLayout":
        return cls(modes, cutoff, coupled)


def _embedding(fine: _GroupLayout, coarse: _GroupLayout) -> tuple[np.ndarray, np.ndarray]:
    """Where each buffer entry of a `fine` state sits in a `coarse` one.

    Every fine group lies inside one coarse group, so a fine state's
    buffer scatters into a zeroed coarse buffer as coarse[dst] = fine[src].
    The pairs come sorted by dst.
    """
    srcs, dsts = [], []
    for st in fine.stacks:
        rows = st.members[:, :, None]
        group = coarse.group_of[rows]
        dst = (coarse.offsets[group] + coarse.local[rows] * coarse.sizes[group]
               + coarse.local[st.members[:, None, :]])
        dsts.append(dst.ravel())
        srcs.append(st.offset + np.arange(dst.size))
    dst = np.concatenate(dsts)
    order = np.argsort(dst)
    return _indices(np.concatenate(srcs)[order]), _indices(dst[order])


class BlockedDensityMatrix:
    """Density matrix stored as one dense block per group of equal
    uncoupled-mode occupations inside each total-occupation sector.

    Valid only for states with no coherences between sectors, which is
    preserved by every operation in this module that returns one.  States
    are born as products, by `from_diagonal_product`, and `evolve_density`
    steps them; each knows which modes have exchanged quanta and stores
    only the groups of its `_GroupLayout`.  The constructor takes over a
    fresh buffer that nothing else holds, uncopied, and makes it
    read-only, so the spectrum computed once stays valid.
    """

    def __init__(self, layout: _GroupLayout, buffer: np.ndarray):
        self.modes = layout.modes
        self.cutoff = layout.cutoff
        self._layout = layout
        self._buffer = _read_only(buffer)
        self._spectrum: np.ndarray | None = None

    def _stacks(self):
        """Each stack of the layout with its blocks, an (n, k, k) read-only view."""
        for st in self._layout.stacks:
            n, k = len(st.members), st.size
            yield st, self._buffer[st.offset : st.offset + n * k * k].reshape(n, k, k)

    @classmethod
    def from_diagonal_product(
        cls, prob_vectors: list[np.ndarray], cutoff: int
    ) -> "BlockedDensityMatrix":
        """Product of diagonal one-mode states given by probability vectors,
        each of length `cutoff`, nonnegative and summing to 1."""
        modes = len(prob_vectors)
        if modes == 0:
            raise ValueError("need at least one mode")
        layout = _GroupLayout.get(modes, cutoff, frozenset())
        grid = layout.basis.grid
        diag = np.ones(len(grid))
        for m, p in enumerate(prob_vectors):
            p = np.asarray(p, dtype=float)
            if p.shape != (cutoff,):
                raise ValueError(
                    f"probability vector {m} must have length {cutoff}, got shape {p.shape}"
                )
            # NaN fails both comparisons, and inf the second
            if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= _TRACE_TOL):
                raise ValueError(f"probability vector {m} must be nonnegative and sum to 1")
            diag = diag * p[grid[:, m]]
        # with no mode coupled each group is one basis tuple, in basis order
        return cls(layout, diag.astype(complex))

    @classmethod
    def from_thermal_product(
        cls, betas: list[float], cutoff: int
    ) -> "BlockedDensityMatrix":
        return cls.from_diagonal_product(
            [thermal_probabilities(b, cutoff) for b in betas], cutoff
        )

    def _diagonal(self) -> np.ndarray:
        """The diagonal, indexed by basis position."""
        out = np.empty(len(self._layout.basis.grid), dtype=complex)
        for st, blocks in self._stacks():
            out[st.members] = np.diagonal(blocks, axis1=1, axis2=2)
        return out


def _pair_occupations(p: int, D: int) -> np.ndarray:
    """n0 values of the pair basis (n0, p - n0) at pair occupation p, ascending."""
    return np.arange(max(0, p - D + 1), min(p, D - 1) + 1)


@functools.lru_cache(maxsize=32)
def _pair_blocks(
    E: float, eps: float, eta: float, tau: float, D: int
) -> tuple[np.ndarray, ...]:
    """exp(-i*tau*H_pair) as one read-only block per pair occupation p = n0 + nn.

    H_pair conserves p, so block p acts on the basis (n0, p - n0) listed by
    `_pair_occupations`, where H_pair is tridiagonal: E*n0 + eps*nn on the
    diagonal and eta*sqrt((n0 + 1)*nn) between (n0, nn) and (n0 + 1, nn - 1).
    Inside a block neither mode leaves 0..D-1, so the blocks are exact for
    the truncated ladders.
    """
    blocks = []
    for p in range(2 * D - 1):
        n0 = _pair_occupations(p, D)
        nn = p - n0
        off = eta * np.sqrt((n0[:-1] + 1.0) * nn[:-1])
        H = np.diag(E * n0 + eps * nn) + np.diag(off, 1) + np.diag(off, -1)
        blocks.append(_read_only(_expi_hermitian(H, -tau)))
    return tuple(blocks)


@functools.lru_cache(maxsize=32)
def _step_plan(modes: int, D: int, coupled: frozenset[int], n: int) -> tuple:
    """How the step on slot n maps a state of layout `coupled` to its successor.

    Returns the output layout, for coupled | {0, n}, and per output stack
    (pairs, embed, groups).  An embed is the part (src, dst) of
    `_embedding` that lands in the stack or group, dst counted from its
    start.

    - Where no mode but 0 and n is coupled, each output group is one pair
      block: pairs lists each group's pair occupation p, embed is the
      stack's, and groups is None.
    - Otherwise pairs and embed are None and groups holds, per group,
      (order, inverse, runs, embed): order sorts the group's basis by
      spectator occupation (every mode but 0 and n), inverse undoes it,
      and runs lists (lo, hi, p, spectator total) per row slice.  Inside
      a run p is fixed and n0 ascends, so the run is exactly the basis of
      pair block p.  The group's embed puts the rows in `order` already.
    """
    fine = _GroupLayout.get(modes, D, coupled)
    out = _GroupLayout.get(modes, D, coupled | {0, n})
    embedding = _embedding(fine, out)
    grid = out.basis.grid
    rest = [c for c in range(modes) if c not in (0, n)]
    plan = []
    for st in out.stacks:
        k = st.size
        if out.coupled == {0, n}:
            first = grid[st.members[:, 0]]
            pairs = tuple((first[:, 0] + first[:, n]).tolist())
            plan.append((pairs, _embed_range(embedding, st.offset, len(st.members) * k * k), None))
            continue
        groups = []
        for i, members in enumerate(st.members):
            B = grid[members]
            order, bounds = _occupation_groups(B, rest, D)
            inverse = np.argsort(order)
            runs = []
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                p = int(B[order[lo], 0] + B[order[lo], n])
                runs.append((lo, hi, p, int(B[0].sum()) - p))
            src, dst = _embed_range(embedding, st.offset + i * k * k, k * k)
            rows, cols = np.divmod(dst, k)
            embed = (src, _indices(inverse[rows] * k + cols))
            groups.append((_indices(order), _indices(inverse), tuple(runs), embed))
        plan.append((None, None, tuple(groups)))
    return out, tuple(plan)


def _embed_range(embedding, start: int, length: int):
    """The pairs of `embedding` with dst in [start, start + length), dst - start."""
    src, dst = embedding
    lo, hi = np.searchsorted(dst, [start, start + length])
    return src[lo:hi], _indices(dst[lo:hi] - start)


def _blocked_step(rho: BlockedDensityMatrix, params, n: int) -> BlockedDensityMatrix:
    D, modes = rho.cutoff, rho.modes
    layout, plan = _step_plan(modes, D, rho._layout.coupled, n)
    U = _pair_blocks(params.E, params.eps, params.eta, params.tau, D)
    phase = np.exp(-1j * params.tau * params.eps * np.arange(modes * (D - 1) + 1))
    source = rho._buffer
    buffer = np.empty(layout.size, dtype=complex)
    for st, (pairs, embed, groups) in zip(layout.stacks, plan):
        count, k = len(st.members), st.size
        stack = slice(st.offset, st.offset + count * k * k)
        out = buffer[stack].reshape(count, k, k)
        if pairs is not None:
            X = np.zeros(count * k * k, dtype=complex)
            X[embed[1]] = source[embed[0]]
            X = X.reshape(count, k, k)
            # one spectator phase multiplies both sides of a pair block, so
            # it cancels
            Ug = np.stack([U[p] for p in pairs])
            np.matmul(Ug @ X, Ug.conj().transpose(0, 2, 1), out=out)
            continue
        # Us = P^T G P with P the row permutation `order` and G the grouped
        # blocks, so Us @ block @ Us^H = Us @ (Us @ block)^H: each side permutes
        # rows only, through one group-sized temporary A and the result R.
        # The indices are permutations, so mode="clip" never clips; it
        # spares the copy that take(..., out=) makes by default.
        for i, (R, (order, inverse, runs, embed)) in enumerate(zip(out, groups)):
            steps = [(lo, hi, phase[rest_total] * U[p]) for lo, hi, p, rest_total in runs]
            A = np.zeros(k * k, dtype=complex)
            A[embed[1]] = source[embed[0]]
            A = A.reshape(k, k)
            for lo, hi, Us in steps:
                np.matmul(Us, A[lo:hi], out=R[lo:hi])
            np.take(R, inverse, axis=0, out=A, mode="clip")  # A = Us @ block
            np.conjugate(A, out=A)
            np.take(A.T, order, axis=0, out=R, mode="clip")
            for lo, hi, Us in steps:
                np.matmul(Us, R[lo:hi], out=A[lo:hi])
            np.take(A, inverse, axis=0, out=R, mode="clip")
    return BlockedDensityMatrix(layout, buffer)


def _check_blocked(*states) -> None:
    for rho in states:
        if not isinstance(rho, BlockedDensityMatrix):
            raise ValueError(f"expected a BlockedDensityMatrix, got {type(rho).__name__}")


def evolve_density(rho: BlockedDensityMatrix, params, schedule) -> BlockedDensityMatrix:
    """Apply exp(-i*tau*H_n) for each slot n in `schedule`, in order.

    Each step unitary is assembled from Hermitian eigendecompositions of
    the two-mode part, one per pair occupation, tensored with the free
    spectator phases; this equals the exponential of the whole truncated
    step Hamiltonian because the two commuting parts truncate
    independently.
    """
    _check_blocked(rho)
    schedule = list(schedule)
    for n in schedule:
        if not 1 <= n < rho.modes:
            raise ValueError(f"schedule slot {n} outside 1..{rho.modes - 1}")
    for n in schedule:
        rho = _blocked_step(rho, params, n)
    return rho


def _check_weyl_headroom(largest: float, D: int) -> None:
    """Raise unless the largest |zeta| leaves the cutoff D headroom."""
    disp = largest / math.sqrt(2.0)
    if disp > math.sqrt(D) / 4.0:
        raise ValueError(
            f"displacement {disp:.3g} exceeds cutoff headroom sqrt(D)/4 = "
            f"{math.sqrt(D) / 4.0:.3g}; raise the cutoff"
        )


def weyl_expectation(rho: BlockedDensityMatrix, zeta) -> complex:
    """Tr[rho * W(zeta)] with W(zeta) the product of one-mode Weyl operators.

    W(zeta) = exp[i*(<zeta,b> + <b,zeta>)/sqrt(2)] factorizes over modes;
    each factor is exponentiated by eigendecomposition.
    """
    _check_blocked(rho)
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (rho.modes,):
        raise ValueError(f"zeta must have length modes = {rho.modes}")
    D = rho.cutoff
    _check_weyl_headroom(float(np.max(np.abs(zeta))), D)
    # W[I, J] = prod_m w_m[J_m, I_m], gathered flat from the transposed
    # factors for a run of one stack's groups, so sum_{I,J} rho[I,J] *
    # W[I,J] is one dot of the ravels; a run holds at most
    # _GATHER_ENTRIES entries unless one group alone has more
    flat = [np.ascontiguousarray(_one_mode_weyl(z, D).T).ravel() for z in zeta]
    grid = rho._layout.basis.grid
    total = 0j
    for st, blocks in rho._stacks():
        run = max(1, _GATHER_ENTRIES // st.size**2)
        for lo in range(0, len(blocks), run):
            cols = grid[st.members[lo : lo + run]].transpose(2, 0, 1)  # (modes, groups, k)
            W = flat[0].take(D * cols[0][:, :, None] + cols[0][:, None, :])
            for wt, col in zip(flat[1:], cols[1:]):
                W *= wt.take(D * col[:, :, None] + col[:, None, :])
            total += W.ravel() @ blocks[lo : lo + run].ravel()
    return complex(total)


# alphas per call of `weyl_expectation_batch`: a `OneModeWeyl`'s scratch is
# near 1 MiB at D = 16
_CHUNK = 1 << 14


class OneModeWeyl:
    """One one-mode density matrix prepared for `weyl_expectation_batch`;
    the matrix size is the cutoff.

    Holds the rho-dependent set-up, the eigendecomposition and the
    projection T that `weyl_expectation_batch` describes, and the scratch
    buffers of one call of up to `capacity` alphas.  Every call fills the
    same buffers, so a stream of chunks allocates nothing per chunk.
    """

    capacity = _CHUNK

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"one-mode density matrix must be square, got shape {rho.shape}")
        self.cutoff = D = rho.shape[0]
        a = build_ladder(D)
        lam, Q = np.linalg.eigh((a + a.conj().T) / math.sqrt(2.0))
        # positive half of the spectrum, then the zero mode at half weight
        half = D // 2
        lam_pos = lam[D - half :]
        Q_pos = Q[:, D - half :]
        weight = np.full(half, 2.0)
        if D % 2:
            lam_pos = np.append(lam_pos, 0.0)
            Q_pos = np.column_stack([Q_pos, Q[:, half]])
            weight = np.append(weight, 1.0)

        # T[j, d] = weight_j * sum_r conj(Q[r, j]) rho[r, r+d] Q[r+d, j]
        offsets = []
        cols = []
        for d in range(-(D - 1), D):
            diag = np.diagonal(rho, offset=d)
            if not np.any(diag):
                continue
            rows = np.arange(max(0, -d), D - max(0, d))
            offsets.append(d)
            cols.append(weight * (Q_pos[rows].conj() * diag[:, None] * Q_pos[rows + d]).sum(axis=0))
        ds = np.array(offsets)
        T = np.stack(cols, axis=1)  # (len(lam_pos), nd)
        even = ds % 2 == 0
        h = len(lam_pos)
        # the trig columns are sin^2(|alpha| lam/2), then sin(|alpha| lam) when
        # an odd offset needs them; M maps them to each offset's term.  M's
        # float view interleaves real and imaginary parts, so the real matmul
        # into `_terms` writes complex numbers.
        odd = not even.all()
        M = np.zeros((2 * h if odd else h, len(ds)), dtype=complex)
        M[:h, even] = -2.0 * T[:, even]
        if odd:
            M[h:, ~even] = 1j * T[:, ~even]
        self._M = M.view(float)
        self._lam = lam_pos
        self._half_lam = lam_pos / 2.0
        # the phases exp(i phi d); a diagonal rho has offset 0 alone and none
        self._i_ds = 1j * ds if np.any(ds) else None
        self._r = np.empty(_CHUNK)
        self._trig = np.empty((_CHUNK, len(M)))
        self._terms = np.empty((_CHUNK, 2 * len(ds)))
        if self._i_ds is not None:
            self._phi = np.empty(_CHUNK)
            self._phase = np.empty((_CHUNK, len(ds)), dtype=complex)
            self._out = np.empty(_CHUNK, dtype=complex)


def weyl_expectation_batch(weyl: OneModeWeyl, alphas: np.ndarray) -> np.ndarray:
    """Tr[rho * w(alpha)] - 1 for the one-mode density prepared in `weyl`
    and a complex array of at most `weyl.capacity` alphas.

    Returns a complex view of `weyl`'s scratch, valid until its next call.
    The shift by one is evaluated without cancellation, which keeps
    products of many near-unit factors at full precision; add 1 for the
    expectation itself.

    Writing alpha = |alpha|*exp(i*phi), the one-mode Weyl operator is the
    phase rotation exp(i*phi*num) conjugating exp(i*|alpha|*X) with
    X = (a + a^dag)/sqrt(2); that identity is exact at the cutoff because
    the rotation is diagonal.  A single eigendecomposition of X therefore
    serves every alpha.

    X has a zero diagonal, so the parity S = (-1)^num maps its
    eigenvector for lam to one for -lam: the spectrum is symmetric.  Only
    the D//2 positive eigenvalues (and, for odd D, the zero mode) enter.
    With T+ collecting the positive eigenvectors' overlaps with offset d
    of rho, the mirrored overlaps are exactly (-1)^d T+, so offset d
    reads 2*Re(e) @ T+ when d is even and 2i*Im(e) @ T+ when d is odd,
    e = exp(i*|alpha|*lam).  This holds for every rho and halves the
    transcendentals per alpha; a diagonal rho needs no sines of odd
    offsets and no phase factors.  The even offsets take cos(x) - 1 in
    place of cos(x): summed over the weighted positive half, T is Tr[rho]
    at d = 0 and zero at every other even d, so this subtracts Tr[rho] = 1.
    cos(x) - 1 is taken as -2*sin^2(x/2), without cancellation, and the
    -2 is folded into T.
    """
    m, h = len(alphas), len(weyl._lam)
    if m > weyl.capacity:
        raise ValueError(f"at most {weyl.capacity} alphas per call, got {m}")
    r = np.abs(alphas, out=weyl._r[:m])
    _check_weyl_headroom(float(r.max()), weyl.cutoff)
    trig = weyl._trig[:m]
    half = trig[:, :h]
    np.multiply(r[:, None], weyl._half_lam, out=half)
    np.square(np.sin(half, out=half), out=half)
    if trig.shape[1] > h:
        full = trig[:, h:]
        np.sin(np.multiply(r[:, None], weyl._lam, out=full), out=full)
    terms = np.matmul(trig, weyl._M, out=weyl._terms[:m]).view(complex)
    if weyl._i_ds is None:
        return terms[:, 0]
    phi = np.arctan2(alphas.imag, alphas.real, out=weyl._phi[:m])
    phase = np.multiply(phi[:, None], weyl._i_ds, out=weyl._phase[:m])
    np.exp(phase, out=phase)
    np.multiply(terms, phase, out=phase)
    return np.sum(phase, axis=1, out=weyl._out[:m])


def _entropy_from_eigs(vals: np.ndarray) -> float:
    if float(vals.min(initial=0.0)) < NEG_EIG_CLAMP:
        raise ValueError(f"eigenvalue {vals.min()} below the clamp tolerance")
    vals = np.clip(vals, 0.0, None)
    mask = vals > EIG_FLOOR
    v = vals[mask]
    return float(-(v * np.log(v)).sum())


def _spectrum(rho: BlockedDensityMatrix) -> np.ndarray:
    """All eigenvalues of a blocked state, one `eigvalsh` call per stack,
    computed once per state."""
    if rho._spectrum is None:
        rho._spectrum = _read_only(np.concatenate([
            np.linalg.eigvalsh(blocks).ravel() for _, blocks in rho._stacks()
        ]))
    return rho._spectrum


def von_neumann_entropy(rho: BlockedDensityMatrix) -> float:
    """-Tr[rho ln rho] in nats, with 0*ln 0 := 0."""
    _check_blocked(rho)
    return _entropy_from_eigs(_spectrum(rho))


_SUPPORT_TOL = 1e-10


def relative_entropy_oracle(rho: BlockedDensityMatrix, rho0: BlockedDensityMatrix) -> float:
    """Tr[rho (ln rho - ln rho0)] against a product reference, nonnegative
    up to numerical slack.

    rho0 must store only 1 x 1 blocks, as a product of diagonal one-mode
    states does; then ln rho0 is diagonal, and the formula is minus the
    entropy of rho, from its cached spectrum, less the diagonal of rho
    against the log of rho0's diagonal.  A reference with a coupled mode
    raises ValueError.
    """
    _check_blocked(rho, rho0)
    if (rho.modes, rho.cutoff) != (rho0.modes, rho0.cutoff):
        raise ValueError("states must share modes and cutoff")
    if any(st.size > 1 for st in rho0._layout.stacks):
        raise ValueError("reference state must be a diagonal product, with no coupled mode")
    p0 = rho0._diagonal().real
    diag = rho._diagonal().real
    dead = p0 <= EIG_FLOOR
    if np.any(diag[dead] > _SUPPORT_TOL):
        raise ValueError("support of rho is not contained in support of rho0")
    live = ~dead
    return -von_neumann_entropy(rho) - float((diag[live] * np.log(p0[live])).sum())

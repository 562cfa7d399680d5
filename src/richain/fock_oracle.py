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
sector, all blocks of one state in one float64 buffer.  Each block is
Hermitian, so it is stored as one real array of its size, eight bytes
per entry (`BlockedDensityMatrix`).  Three modes at D = 24 make 70
sectors, the largest 432 x 432, and the states of a two-step run store:

- the thermal product, no mode coupled: 1 x 1 groups, its 13,824
  diagonal entries (0.1 MiB);
- after step 1, modes 0 and 1 coupled: one pair block of size <= D per
  group, 221,376 entries (1.7 MiB);
- after step 2, every mode coupled: the groups are the sectors,
  4,382,904 entries (33.4 MiB), where the dense complex matrix takes
  2.8 GiB.

States are born only as products, `from_diagonal_product` and
`from_thermal_product`, which `evolve_density` then steps; no public
call builds a state from caller-supplied blocks.  A product is refused,
with a ValueError naming its cutoff and before any basis is formed, where
one step of the state with every mode coupled would hold more than 1 GiB.
`evolve_density`, `weyl_expectation`, `von_neumann_entropy` and
`relative_entropy_oracle` take blocked states only, and the reference of
`relative_entropy_oracle` must be a diagonal product.  `OneModeWeyl` reads a one-mode state as
a plain square matrix, whose size is its cutoff, and prepares it for
`weyl_expectation_batch`; the caller validates it.

The steps and spectra split further wherever the physics guarantees it:

- The pair Hamiltonian conserves the pair occupation p = n0 + nn, so
  its step unitary is one tridiagonal exponential of size <= D per p,
  cached per (E, eps, eta, tau, D).
- A step on slot n writes the layout of the coupled modes plus {0, n}
  directly.  Where each output group is one pair block p, as in the
  first step from a product, the group becomes U[p] rho_g U[p]^H,
  batched over the groups of one size.  Otherwise a spectator mode is
  coupled.  The spectator phases are diagonal, so they multiply the
  input, unpacked to complex, entry by entry; then each output group
  embeds the finer input groups it contains with its rows and columns
  in spectator-occupation order, and the step is one pair block per
  contiguous row slice and, conjugated, per column slice.  The result
  is gathered back to the group's order and packed.
- Blocks of one size are stacked in the buffer.  A spectrum is one
  `eigvalsh` call per size, computed once per state.
- `weyl_expectation` contracts mode 0 first, for all samples of a call
  at once.  A stored entry rho[(a, x), (b, y)], a and b mode 0's
  occupations, has b - a = delta = |x| - |y|.  Mode 0 leads the order
  inside a group, so the entry lies below the diagonal where delta < 0,
  and where delta = 0 as x's row-major code exceeds y's.  For each
  delta <= 0 these entries form a dense (D - |delta|) x J_delta block,
  one column per pair (x, y), and each is read with its mirror above
  the diagonal, the imaginary part: one complex number per column and
  row, so every stored real number off the diagonal is read once.  Each
  offset is one matmul of the samples' mode-0 factors with its block,
  for the entry and for its conjugate mirror, weighted per column by the
  product of the other modes' factors; the cached per-layout plan holds
  the column templates, and the buffer positions are formed per call.
  Every one-mode factor comes from one cached eigendecomposition of
  X = (a + a^dag)/sqrt(2) per cutoff, which `OneModeWeyl` shares.
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
# what one step holds per entry of a state with every mode coupled, at most:
# its complex input, its packed output and the cached plan's indices (a step
# that couples two coupled modes again, measured at D = 24 and 28), and the
# most one step may hold
_STEP_BYTES_PER_ENTRY = 48
_STEP_BYTES_CAP = 1 << 30
# largest gather of `weyl_expectation` from a blocked state, in entries
# read with their mirrors, and of the samples' products: each of a chunk's
# arrays stays near 1 MiB, within a core's cache
_GATHER_ENTRIES = 1 << 16


def build_ladder(D: int) -> np.ndarray:
    """Truncated annihilation matrix: <n|a|n+1> = sqrt(n+1), top level dropped."""
    if D < 2:
        raise ValueError(f"cutoff must be at least 2, got {D}")
    return np.diag(np.sqrt(np.arange(1.0, D)), k=1).astype(complex)


def _expi_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*H) for Hermitian H via eigendecomposition (never a series)."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


@functools.lru_cache(maxsize=8)
def _quadrature(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of X = (a + a^dag)/sqrt(2) at cutoff D, read-only."""
    a = build_ladder(D)
    lam, Q = np.linalg.eigh((a + a.conj().T) / math.sqrt(2.0))
    return _read_only(lam), _read_only(Q)


def _one_mode_weyl(alpha, D: int) -> np.ndarray:
    """exp(i*(conj(alpha)*a + alpha*a^dag)/sqrt(2)) at cutoff D, one D x D
    matrix per entry of `alpha`.

    Writing alpha = |alpha|*exp(i*phi), the exponent is |alpha| R X R^dag
    with R = exp(i*phi*num); R is diagonal, so this holds at the cutoff and
    the cached eigendecomposition of X serves every alpha.
    """
    alpha = np.asarray(alpha, dtype=complex)
    lam, Q = _quadrature(D)
    E = (Q * np.exp(1j * np.abs(alpha)[..., None, None] * lam)) @ Q.conj().T
    R = np.exp(1j * np.angle(alpha)[..., None] * np.arange(D))
    return R[..., :, None] * E * R.conj()[..., None, :]


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


def _thermal_log_probabilities(beta: float, D: int) -> np.ndarray:
    """The logs of `thermal_probabilities`, -beta k - log Z with
    log Z = log(1 - e^(-beta D)) - log(1 - e^-beta), each 1 - e^-x as
    -expm1(-x).  They stay finite where e^(-beta k) underflows; -inf
    marks the levels a vacuum mode (beta = inf) leaves empty."""
    if math.isinf(beta):
        return np.where(np.arange(D) == 0, 0.0, -np.inf)
    log_z = math.log(-math.expm1(-beta * D)) - math.log(-math.expm1(-beta))
    return -beta * np.arange(D) - log_z


def _check_problem_size(modes: int, cutoff: int) -> None:
    """Raise ValueError naming the cutoff where a step of the `modes`-mode
    state with every mode coupled, the sum over sectors of k^2 entries, would
    hold more than _STEP_BYTES_CAP.  The sector sizes are the coefficients of
    (1 + x + ... + x^(D-1))^modes, formed only where the D^modes basis tuples,
    at most that sum, fit the bound."""
    entries = int(cutoff) ** modes
    if entries * _STEP_BYTES_PER_ENTRY <= _STEP_BYTES_CAP:
        sizes = np.ones(1, dtype=np.int64)
        for _ in range(modes):
            sizes = np.convolve(sizes, np.ones(cutoff, dtype=np.int64))
        entries = int(sizes @ sizes)
    need = entries * _STEP_BYTES_PER_ENTRY
    if need > _STEP_BYTES_CAP:
        gib = need / 2**30 if need.bit_length() < 1000 else math.inf  # no float past that
        raise ValueError(f"oracle cutoff {cutoff} is too large for {modes} modes: a step "
                         f"would hold {gib:.3g} GiB, above {_STEP_BYTES_CAP / 2**30:g} GiB")


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


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the stable order that sorts `key`, so equal keys keep
    their order, and where each run of equal keys starts in it."""
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    return order, np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])


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
        # by sector total, then by the uncoupled occupations as digits below it
        order, starts = _runs(basis.totals * cutoff ** len(uncoupled) + key)
        positions = np.arange(len(key))
        self.sizes = _read_only(np.diff(np.r_[starts, len(order)]))
        sorted_group = np.repeat(np.arange(len(starts)), self.sizes)
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
        for k in sorted(set(self.sizes.tolist())):  # np.unique would import numpy.ma
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


@functools.lru_cache(maxsize=16)
def _tri(n: int) -> np.ndarray:
    return _read_only(np.tri(n, dtype=bool))


def _lower(k: int) -> np.ndarray:
    """Read-only k x k mask of the entries on and below the diagonal: a view
    of a cached mask whose size is a power of two, so a few small masks
    serve every k."""
    return _tri(1 << (k - 1).bit_length())[:k, :k]


def _unpack(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Hermitian blocks (..., k, k) whose packed real form is X, into complex `out`.

    X holds Re rho on and below the diagonal and, above it, X[r, c] =
    Im rho[c, r], the imaginary part of the mirrored entry below.
    """
    lower = _lower(X.shape[-1])
    Xt = X.swapaxes(-1, -2)
    np.copyto(out.real, Xt)
    np.copyto(out.real, X, where=lower)
    np.negative(X, out=out.imag)
    np.copyto(out.imag, Xt, where=lower)
    diag = np.arange(X.shape[-1])
    out.imag[..., diag, diag] = 0.0
    return out


def _pack(R: np.ndarray, out: np.ndarray) -> None:
    """Store the Hermitian blocks R (..., k, k) in real `out` as `_unpack`
    reads them: Re R on and below the diagonal, -Im R above it."""
    np.negative(R.imag, out=out)
    np.copyto(out, R.real, where=_lower(R.shape[-1]))


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

    Every block is Hermitian, so it is stored as one real k x k array X
    in its slot of a float64 buffer, half the bytes of the complex block:
    X[r, c] = Re rho[r, c] on and below the diagonal, and X[r, c] =
    Im rho[c, r] above it.  `_unpack` and `_pack` convert.
    """

    def __init__(self, layout: _GroupLayout, buffer: np.ndarray):
        self.modes = layout.modes
        self.cutoff = layout.cutoff
        self._layout = layout
        self._buffer = _read_only(buffer)
        self._spectrum: np.ndarray | None = None
        # a product's one-mode log probabilities, which only the products set
        self._log_factors: list[np.ndarray] | None = None

    def _stacks(self):
        """Each stack of the layout with its packed blocks, an (n, k, k) read-only view."""
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
        _check_problem_size(modes, cutoff)
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
        rho = cls(layout, diag)
        with np.errstate(divide="ignore"):  # a level of probability 0 has log -inf
            rho._log_factors = [np.log(np.asarray(p, dtype=float)) for p in prob_vectors]
        return rho

    @classmethod
    def from_thermal_product(
        cls, betas: list[float], cutoff: int
    ) -> "BlockedDensityMatrix":
        rho = cls.from_diagonal_product(
            [thermal_probabilities(b, cutoff) for b in betas], cutoff
        )
        # exact logs, which a cold mode's underflowed probabilities lack
        rho._log_factors = [_thermal_log_probabilities(b, cutoff) for b in betas]
        return rho

    def _diagonal(self) -> np.ndarray:
        """The diagonal, real, indexed by basis position."""
        out = np.empty(len(self._layout.basis.grid))
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
      (inverse, runs, embed).  Let order sort the group's basis by
      spectator occupation (every mode but 0 and n): the group's embed
      puts the rows and columns in that order, inverse undoes it, and
      runs lists (lo, hi, p) per row slice of it.  Inside a run p is fixed
      and n0 ascends, so the run is exactly the basis of pair block p.
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
            # rows grouped by spectator occupation, in the sector's row-major order
            order, starts = _runs(B[:, rest] @ (D ** np.arange(len(rest) - 1, -1, -1)))
            inverse = np.argsort(order)
            bounds = np.r_[starts, k].tolist()
            runs = [(lo, hi, int(B[order[lo], 0] + B[order[lo], n]))
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
            src, dst = _embed_range(embedding, st.offset + i * k * k, k * k)
            rows, cols = np.divmod(dst, k)
            embed = (src, _indices(inverse[rows] * k + inverse[cols]))
            groups.append((_indices(inverse), tuple(runs), embed))
        plan.append((None, None, tuple(groups)))
    return out, tuple(plan)


def _embed_range(embedding, start: int, length: int):
    """The pairs of `embedding` with dst in [start, start + length), dst - start."""
    src, dst = embedding
    lo, hi = np.searchsorted(dst, [start, start + length])
    return src[lo:hi], _indices(dst[lo:hi] - start)


@functools.lru_cache(maxsize=32)
def _weyl_plan(modes: int, D: int, coupled: frozenset[int]) -> tuple:
    """Where `weyl_expectation` finds the stored entries of a state of
    layout `coupled`, per mode-0 offset delta <= 0: (digits, members, row,
    col, size, deltas).

    Write a basis tuple as (a, x): a is mode 0's occupation and x, coded
    row-major, the occupations of modes 1..modes-1.  The class of x is
    its total |x| with its uncoupled occupations; the tuples of a group
    with a given a are the x of one class, in row-major order.  So:

    - digits[m - 1] is mode m's occupation of each x, and members lists
      the x by class, ascending inside a class;
    - row, col and size give, for the tuple of row-major code
      a D^(modes-1) + x, the buffer position where its row of its group
      block starts, its index inside the block and the block's size;
    - deltas lists (delta, xs, first, count) for every delta <= 0 with
      stored entries.  (a, x) and (a + delta, y) share a group exactly
      when |x| - |y| = delta and the classes agree but for the total, and
      delta = 0 too where mode 0 is uncoupled.  xs are the x with such a
      y, in class order, and the y of x are members[first : first +
      count]: its whole partner class where delta < 0, and at delta = 0
      its own class up to x itself.  Since mode 0 leads the row-major
      order inside a group, these are the entries on and below the
      diagonal.

    The columns themselves, each x of xs with each of its y, are
    expanded per call.
    """
    layout = _GroupLayout.get(modes, D, coupled)
    rest = modes - 1
    digits = np.indices((D,) * rest).reshape(rest, D**rest)
    uncoupled = [m - 1 for m in range(1, modes) if m not in coupled]
    spread = D ** len(uncoupled)
    key = digits.sum(axis=0) * spread + (D ** np.arange(len(uncoupled))) @ digits[uncoupled]
    members, starts = _runs(key)
    class_key = key[members[starts]]
    counts = np.diff(np.r_[starts, len(members)])
    sorted_class = np.repeat(np.arange(len(starts)), counts)

    code = layout.basis.grid @ (D ** np.arange(modes - 1, -1, -1))
    group = layout.group_of
    row, col = np.empty(D**modes, dtype=np.intp), np.empty(D**modes, dtype=np.intp)
    row[code] = layout.offsets[group] + layout.local * layout.sizes[group]
    col[code] = layout.local
    size = np.empty(D**modes, dtype=np.intp)
    size[code] = layout.sizes[group]

    deltas = []
    for delta in range(-(D - 1), 0) if 0 in coupled else ():
        partner_key = class_key - delta * spread
        partner = np.minimum(np.searchsorted(class_key, partner_key), len(class_key) - 1)
        has = (class_key[partner] == partner_key)[sorted_class]
        if has.any():
            partner = partner[sorted_class[has]]
            deltas.append((delta, members[has], starts[partner], counts[partner]))
    first = starts[sorted_class]
    deltas.append((0, members, first, np.arange(len(members)) - first + 1))
    deltas = tuple((delta, *map(_indices, columns)) for delta, *columns in deltas)
    return (*map(_read_only, (digits, members, row, col, size)), deltas)


def _blocked_step(rho: BlockedDensityMatrix, params, n: int) -> BlockedDensityMatrix:
    D, modes = rho.cutoff, rho.modes
    layout, plan = _step_plan(modes, D, rho._layout.coupled, n)
    U = _pair_blocks(params.E, params.eps, params.eta, params.tau, D)
    # the input is unpacked whole, and the plan's embeds gather from it
    source = np.empty(rho._buffer.shape, dtype=complex)
    for st, blocks in rho._stacks():
        _unpack(blocks, source[st.offset : st.offset + blocks.size].reshape(blocks.shape))
    if layout.coupled != {0, n}:
        # A spectator is coupled.  The step unitary is Us = Phi U0 = U0 Phi,
        # U0 the pair blocks alone and Phi diagonal, exp(-i tau eps t) with t
        # the spectator total of each basis tuple.  So Us rho Us^H = U0 (Phi
        # rho Phi^H) U0^H: the phases multiply the input, entry (r, c) by
        # Phi[r] conj(Phi[c]), and the pair blocks act unphased.
        grid = layout.basis.grid
        t = layout.basis.totals - grid[:, 0] - grid[:, n]
        phase = np.exp(-1j * params.tau * params.eps * t)
        for st, blocks in rho._stacks():
            S = source[st.offset : st.offset + blocks.size].reshape(blocks.shape)
            w = phase[st.members]
            S *= w[:, :, None]
            S *= w.conj()[:, None, :]
        U_h = [u.conj().T for u in U]
    buffer = np.empty(layout.size)
    for st, (pairs, embed, groups) in zip(layout.stacks, plan):
        count, k = len(st.members), st.size
        out = buffer[st.offset : st.offset + count * k * k].reshape(count, k, k)
        if pairs is not None:
            X = np.zeros((count, k, k), dtype=complex)
            X.reshape(-1)[embed[1]] = source[embed[0]]
            # the spectator phase of a group is one number, so it cancels
            Ug = np.stack([U[p] for p in pairs])
            _pack(Ug @ X @ Ug.conj().transpose(0, 2, 1), out)
            continue
        # U0 = P^T G P with P the row permutation `order` and G the pair
        # blocks along the diagonal, so U0 @ block @ U0^H = P^T (G @ block' @
        # G^H) P, block' the block with its rows and columns in `order`: G
        # and G^H act on contiguous row and column slices.  The result's rows
        # and columns are then gathered back, and it is packed.  The indices
        # are permutations, so mode="clip" never clips; it spares the copy
        # that take(..., out=) makes by default.
        A = np.empty((k, k), dtype=complex)
        R = np.empty((k, k), dtype=complex)
        for i, (inverse, runs, embed) in enumerate(groups):
            A[...] = 0.0
            A.reshape(-1)[embed[1]] = source[embed[0]]
            for lo, hi, p in runs:
                np.matmul(U[p], A[lo:hi], out=R[lo:hi])
            for lo, hi, p in runs:
                np.matmul(R[:, lo:hi], U_h[p], out=A[:, lo:hi])
            np.take(A, inverse, axis=0, out=R, mode="clip")
            np.take(R, inverse, axis=1, out=A, mode="clip")
            _pack(A, out[i])
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
            f"displacement {disp:.3g} exceeds the headroom sqrt(D)/4 = "
            f"{math.sqrt(D) / 4.0:.3g} of cutoff D = {D}; raise the cutoff"
        )


def weyl_expectation(rho: BlockedDensityMatrix, zetas):
    """Tr[rho * W(zeta)] with W(zeta) the product of one-mode Weyl operators.

    W(zeta) = exp[i*(<zeta,b> + <b,zeta>)/sqrt(2)] factorizes over modes.
    `zetas` of shape (modes,) gives a complex, and of shape (K, modes) one
    expectation per row; every row must leave the cutoff headroom.

    With w_m the mode-m factor, the trace is the sum of rho[(a, x), (b, y)]
    w_0[b, a] T[x, y] over stored entries, T[x, y] = prod_{m>=1} w_m[y_m, x_m],
    contracted over a first per offset b - a as the module docstring says.
    An entry rho below a group's diagonal and its mirror conj(rho) above it
    add rho W_cr + conj(rho) W_rc, with W_cr = w_0[b, a] T[x, y] and
    W_rc = w_0[a, b] T[y, x]; a diagonal entry is its own mirror and
    counts half in each term.  Each stored real number off the diagonal is
    read once per call, whatever the number of samples.
    """
    _check_blocked(rho)
    zetas = np.asarray(zetas, dtype=complex)
    if zetas.ndim not in (1, 2) or zetas.shape[-1] != rho.modes:
        raise ValueError(
            f"zeta must have shape (modes,) or (samples, modes), modes = {rho.modes}; "
            f"got {zetas.shape}"
        )
    D = rho.cutoff
    _check_weyl_headroom(float(np.abs(zetas).max(initial=0.0)), D)
    samples = np.atleast_2d(zetas)
    K = len(samples)
    W = _one_mode_weyl(samples, D)  # (K, modes, D, D)
    # the mode-m factors, flat: entry x_m * D + y_m of row k is w_m[y_m, x_m]
    # of sample k, and of row K + k conj(w_m[x_m, y_m])
    flat = [np.concatenate([W[:, m].transpose(0, 2, 1), W[:, m].conj()]).reshape(2 * K, D * D)
            for m in range(1, rho.modes)]
    digits, members, row, col, size, deltas = _weyl_plan(rho.modes, D, rho._layout.coupled)
    stride = D ** (rho.modes - 1)  # row-major code of (a, x) is a * stride + x
    buffer = rho._buffer
    total = np.zeros(2 * K, dtype=complex)
    for delta, xs, first, count in deltas:
        lo, L = -delta, D + delta
        # the columns: each x of xs with the y of every rank j from its first
        at = np.repeat(np.arange(len(xs)), count)
        j = np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
        ys = members[first[at] + j]
        # rho[(a, xs[i]), (a + delta, y)] is stored at below[a - lo, i] + j, and
        # the imaginary part at mirror[a - lo, i] + j * k[a - lo, i], the row
        # start of (a + delta, y) plus the column of (a, x)
        a = np.arange(lo, lo + L)[:, None] * stride
        rows, cols = a + xs, a + delta * stride + members[first]
        below, mirror, k = row[rows] + col[cols], row[cols] + col[rows], size[rows]
        # w_0[a + delta, a] for each sample, then conj(w_0[a, a + delta])
        w0 = np.concatenate([np.diagonal(W[:, 0], offset=-delta, axis1=1, axis2=2),
                             np.diagonal(W[:, 0], offset=delta, axis1=1, axis2=2).conj()])
        step = max(1, _GATHER_ENTRIES // max(L, 2 * K))
        for c in range(0, len(ys), step):
            i, y, jc = at[c : c + step], ys[c : c + step], j[c : c + step]
            idx = np.empty((L, len(i), 2), dtype=np.intp)
            np.add(below.take(i, axis=1), jc, out=idx[..., 0])
            np.add(mirror.take(i, axis=1), k.take(i, axis=1) * jc, out=idx[..., 1])
            Z = buffer.take(idx).view(complex)[..., 0]
            x = xs[i]
            if delta == 0:
                Z[:, x == y] *= 0.5  # a diagonal entry is its own mirror
            R = w0 @ Z
            for m, wt in enumerate(flat):
                R *= wt.take(digits[m, x] * D + digits[m, y], axis=1)
            total += R.sum(axis=1)
    # each entry below the diagonal with its mirror above: rho W_cr + conj(rho) W_rc
    total = total[:K] + total[K:].conj()
    return complex(total[0]) if zetas.ndim == 1 else total


class OneModeWeyl:
    """One one-mode density matrix prepared for `weyl_expectation_batch`;
    the matrix size is the cutoff.

    Holds the rho-dependent set-up, the eigendecomposition and the
    projection T that `weyl_expectation_batch` describes.
    """

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"one-mode density matrix must be square, got shape {rho.shape}")
        self.cutoff = D = rho.shape[0]
        lam, Q = _quadrature(D)
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
        # with it yields complex numbers.
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


def weyl_expectation_batch(weyl: OneModeWeyl, alphas: np.ndarray) -> np.ndarray:
    """Tr[rho * w(alpha)] - 1 for the one-mode density prepared in `weyl`
    and a complex array of alphas, as a new complex array.

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

    Each alpha's value has the same bits whichever alphas share the call.
    """
    if len(alphas) == 1:
        # a one-row trig @ M takes another BLAS path and sums in another order,
        # so a lone alpha is evaluated beside a copy of itself
        return weyl_expectation_batch(weyl, np.repeat(alphas, 2))[:1]
    h = len(weyl._lam)
    r = np.abs(alphas)
    _check_weyl_headroom(float(r.max()), weyl.cutoff)
    trig = np.empty((len(r), len(weyl._M)))
    half = trig[:, :h]
    np.multiply(r[:, None], weyl._half_lam, out=half)
    np.square(np.sin(half, out=half), out=half)
    if trig.shape[1] > h:
        full = trig[:, h:]
        np.sin(np.multiply(r[:, None], weyl._lam, out=full), out=full)
    terms = (trig @ weyl._M).view(complex)
    if weyl._i_ds is None:
        return terms[:, 0]
    phase = np.arctan2(alphas.imag, alphas.real)[:, None] * weyl._i_ds
    np.exp(phase, out=phase)
    np.multiply(terms, phase, out=phase)
    return phase.sum(axis=1)


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
        parts = []
        # one complex scratch, as large as the largest stack, serves every stack
        scratch = np.empty(max(X.size for _, X in rho._stacks()), dtype=complex)
        for _, X in rho._stacks():
            # the lower triangle of C is rho's, and eigvalsh reads no other
            # entry: UPLO 'L', and a Hermitian diagonal's imaginary part is
            # taken as 0.  Each C is laid out column-major, as LAPACK reads
            # it, so eigvalsh copies it in without a transposing pass.
            C = scratch[: X.size].reshape(X.shape).transpose(0, 2, 1)
            C.real = X
            C.imag = X.swapaxes(1, 2)
            parts.append(np.linalg.eigvalsh(C).ravel())
        rho._spectrum = _read_only(np.concatenate(parts))
    return rho._spectrum


def von_neumann_entropy(rho: BlockedDensityMatrix) -> float:
    """-Tr[rho ln rho] in nats, with 0*ln 0 := 0."""
    _check_blocked(rho)
    return _entropy_from_eigs(_spectrum(rho))


_SUPPORT_TOL = 1e-10


def relative_entropy_oracle(rho: BlockedDensityMatrix, rho0: BlockedDensityMatrix) -> float:
    """Tr[rho (ln rho - ln rho0)] against a product reference, nonnegative
    up to numerical slack.

    rho0 must be a product of diagonal one-mode states, as
    `from_diagonal_product` and `from_thermal_product` build it; then
    ln rho0 is diagonal, the sum of the one-mode log probabilities the
    product keeps, and the formula is minus the entropy of rho, from its
    cached spectrum, less the diagonal of rho against it.  A thermal
    product keeps exact logs, so a cold mode whose weights e^(-beta k)
    underflow still has a finite one.  Any other reference raises
    ValueError, and so does a rho with weight where rho0 has none.
    """
    _check_blocked(rho, rho0)
    if (rho.modes, rho.cutoff) != (rho0.modes, rho0.cutoff):
        raise ValueError("states must share modes and cutoff")
    if rho0._log_factors is None:
        raise ValueError("reference state must be a diagonal product, with no coupled mode")
    grid = rho0._layout.basis.grid
    log_p0 = sum(f[grid[:, m]] for m, f in enumerate(rho0._log_factors))
    diag = rho._diagonal()
    dead = np.isneginf(log_p0)
    if np.any(diag[dead] > _SUPPORT_TOL):
        raise ValueError("support of rho is not contained in support of rho0")
    live = ~dead
    return -von_neumann_entropy(rho) - float((diag[live] * log_p0[live]).sum())

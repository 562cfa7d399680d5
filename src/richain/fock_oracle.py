"""Brute-force finite-cutoff Fock-space simulator.

Everything here is built from truncated ladder matrices and Hermitian
eigendecompositions; none of the closed forms of the rest of the library
are imported, so agreement between the two paths is evidence, not
tautology.

Cutoff semantics: each mode keeps levels 0..D-1 and transitions beyond
level D-1 are dropped, i.e. operators are compressed to the truncated
space and unitaries are exponentials of the truncated Hamiltonians.

Two density-matrix representations are provided.  `FockDensityMatrix`
stores the full D^M x D^M matrix and is subject to the desk-scale guard
D^M <= 20000.  Because the step Hamiltonians commute with the total
number operator, states evolved from diagonal products never develop
matrix elements between different total-occupation sectors; the
`BlockedDensityMatrix` representation stores one dense block per sector
and pushes the reachable size well past the dense guard: three modes at
D = 30 make 88 sectors, the largest 675 x 675, and all blocks of one
state take 204 MiB where the dense matrix would take 10.9 GiB.  All
public operations accept either representation.

The blocked path splits further wherever the physics guarantees it:

- The pair Hamiltonian conserves the pair occupation p = n0 + nn, so
  its step unitary is one tridiagonal exponential of size <= D per p,
  cached per (E, eps, eta, tau, D).  A step groups each sector's basis
  by spectator occupation; inside a group p is fixed and the step is one
  such block times a spectator phase.
- A mode that has not yet exchanged quanta keeps a definite occupation.
  A state evolved from a diagonal product records which modes have, and
  its spectrum is taken per group of equal uncoupled occupations (at
  most D x D for three modes after their first step).  Equal-size groups
  share one `eigvalsh` call, and each state's spectrum is computed once.

Each blocked operation touches a sector block in a single pass of flat
or row gathers and never builds a sector-sized `np.ix_` copy:

- A step permutes rows only: Us @ block @ Us^H = Us @ (Us @ block)^H,
  and each side gathers the block's rows into spectator-occupation
  order, applies the pair blocks to contiguous row slices and gathers
  the rows back, through one sector-sized temporary besides the result.
- `weyl_expectation` gathers each mode's factor of the Weyl matrix with
  one flat `take` from that mode's transposed one-mode matrix, multiplies
  the factors in place and contracts them with the block in one dot of
  the two ravels.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockDensityMatrix",
    "BlockedDensityMatrix",
    "CutoffReport",
    "build_ladder",
    "build_hamiltonian",
    "gibbs_density",
    "thermal_probabilities",
    "recommend_cutoff",
    "product_density",
    "evolve_density",
    "weyl_expectation",
    "weyl_expectation_batch",
    "partial_trace",
    "von_neumann_entropy",
    "relative_entropy_oracle",
]

DENSE_DIM_GUARD = 20000
EIG_FLOOR = 1e-300
NEG_EIG_CLAMP = -1e-12
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
# full spectra are only checked on construction below this dimension
_EIG_CHECK_DIM = 1200


def build_ladder(D: int) -> np.ndarray:
    """Truncated annihilation matrix: <n|a|n+1> = sqrt(n+1), top level dropped."""
    if D < 2:
        raise ValueError(f"cutoff must be at least 2, got {D}")
    return np.diag(np.sqrt(np.arange(1.0, D)), k=1).astype(complex)


def _number_diag(D: int) -> np.ndarray:
    return np.arange(D, dtype=float)


def _expi_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*H) for Hermitian H via eigendecomposition (never a series)."""
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def _one_mode_weyl(alpha: complex, D: int) -> np.ndarray:
    """exp(i*(conj(alpha)*a + alpha*a^dag)/sqrt(2)) at cutoff D."""
    a = build_ladder(D)
    h = (np.conj(alpha) * a + alpha * a.conj().T) / math.sqrt(2.0)
    return _expi_hermitian(h, 1.0)


@dataclass(frozen=True)
class CutoffReport:
    """Auditing record for a cutoff choice."""

    tail_weight: float
    recommendation: int


def recommend_cutoff(beta: float, zeta_norm: float = 0.0, tol: float = 1e-10) -> int:
    """Smallest cutoff with thermal tail weight < tol, plus displacement headroom.

    The headroom is ceil(4*zeta_norm^2) extra levels, enough for the
    Weyl arguments used at desk scale.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must lie in (0, +inf], got {beta!r}")
    headroom = math.ceil(4.0 * zeta_norm**2)
    if math.isinf(beta):
        return max(2, 2 + headroom)
    # tail weight of levels >= D is exp(-beta*D)
    base = math.ceil(-math.log(tol) / beta)
    return max(2, base + headroom)


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


@dataclass(frozen=True)
class FockDensityMatrix:
    """Dense density matrix on `modes` modes with per-mode cutoff `cutoff`."""

    modes: int
    cutoff: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff**self.modes
        if dim > DENSE_DIM_GUARD:
            raise ValueError(
                f"dense dimension {dim} exceeds the guard {DENSE_DIM_GUARD}; "
                "use BlockedDensityMatrix"
            )
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {mat.shape}")
        herm = float(np.max(np.abs(mat - mat.conj().T))) if dim else 0.0
        if herm > _HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max deviation {herm}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        if dim <= _EIG_CHECK_DIM:
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < NEG_EIG_CLAMP:
                raise ValueError(f"matrix not PSD: lowest eigenvalue {lo}")

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes


class _SectorBasis:
    """Occupation tuples of M modes at cutoff D, grouped by total occupation."""

    def __init__(self, modes: int, cutoff: int):
        self.modes = modes
        self.cutoff = cutoff
        grids = np.indices((cutoff,) * modes).reshape(modes, -1).T  # (D^M, M)
        totals = grids.sum(axis=1)
        order = np.argsort(totals, kind="stable")
        grids = grids[order]
        totals = totals[order]
        bounds = np.searchsorted(totals, np.arange(modes * (cutoff - 1) + 2))
        self.sectors: list[np.ndarray] = [
            _read_only(np.ascontiguousarray(grids[bounds[s] : bounds[s + 1]]))
            for s in range(modes * (cutoff - 1) + 1)
        ]
        # row-major ravel index of each basis tuple, per sector
        radix = cutoff ** np.arange(modes - 1, -1, -1)
        self.ravels: list[np.ndarray] = [_read_only(B @ radix) for B in self.sectors]

    @classmethod
    @functools.lru_cache(maxsize=16)
    def get(cls, modes: int, cutoff: int) -> "_SectorBasis":
        return cls(modes, cutoff)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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


class BlockedDensityMatrix:
    """Density matrix stored as one dense block per total-occupation sector.

    Valid only for states with no coherences between sectors, which is
    preserved by every operation in this module that returns one.  The
    constructor copies the given blocks and stores the copies as a tuple
    of read-only arrays, so the spectrum computed from them once stays
    valid whatever the caller later does with its own arrays.
    """

    def __init__(self, modes: int, cutoff: int, blocks: list[np.ndarray]):
        self._set_blocks(modes, cutoff, [np.array(b, dtype=complex) for b in blocks])

    @classmethod
    def _from_own_blocks(
        cls, modes: int, cutoff: int, blocks: list[np.ndarray]
    ) -> "BlockedDensityMatrix":
        """Take over fresh complex arrays that nothing else holds, uncopied."""
        rho = cls.__new__(cls)
        rho._set_blocks(modes, cutoff, blocks)
        return rho

    def _set_blocks(self, modes: int, cutoff: int, blocks: list[np.ndarray]) -> None:
        self.modes = modes
        self.cutoff = cutoff
        self.basis = _SectorBasis.get(modes, cutoff)
        if len(blocks) != len(self.basis.sectors):
            raise ValueError(
                f"expected {len(self.basis.sectors)} sector blocks, got {len(blocks)}"
            )
        self.blocks = tuple(_read_only(b) for b in blocks)
        # Modes that have exchanged quanta since a diagonal product, or None
        # when unknown.  Every other mode keeps a definite occupation, so the
        # state is block-diagonal in those modes' occupations.
        self._coupled: frozenset[int] | None = None
        self._spectrum: np.ndarray | None = None

    @classmethod
    def from_diagonal_product(
        cls, prob_vectors: list[np.ndarray], cutoff: int
    ) -> "BlockedDensityMatrix":
        """Product of diagonal one-mode states given by probability vectors."""
        modes = len(prob_vectors)
        basis = _SectorBasis.get(modes, cutoff)
        blocks = []
        for B in basis.sectors:
            diag = np.ones(len(B))
            for m in range(modes):
                diag = diag * np.asarray(prob_vectors[m])[B[:, m]]
            blocks.append(np.diag(diag.astype(complex)))
        rho = cls._from_own_blocks(modes, cutoff, blocks)
        rho._coupled = frozenset()
        return rho

    @classmethod
    def from_thermal_product(
        cls, betas: list[float], cutoff: int
    ) -> "BlockedDensityMatrix":
        return cls.from_diagonal_product(
            [thermal_probabilities(b, cutoff) for b in betas], cutoff
        )

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks))

    def diagonal(self) -> list[np.ndarray]:
        return [np.diagonal(b).copy() for b in self.blocks]

    def to_dense(self) -> FockDensityMatrix:
        dim = self.cutoff**self.modes
        if dim > DENSE_DIM_GUARD:
            raise ValueError(f"dense dimension {dim} exceeds the guard")
        mat = np.zeros((dim, dim), dtype=complex)
        for B_ravel, block in zip(self.basis.ravels, self.blocks):
            mat[np.ix_(B_ravel, B_ravel)] = block
        return FockDensityMatrix(self.modes, self.cutoff, mat)


def build_hamiltonian(params, n: int, modes: int, cutoff: int) -> np.ndarray:
    """Dense step-n Hamiltonian on `modes` modes at the given cutoff.

    H_n = E*num_0 + eps*sum_k num_k + eta*(b0^dag b_n + b_n^dag b0),
    with k running over chain slots 1..modes-1.
    """
    if not 1 <= n < modes:
        raise ValueError(f"active slot n must satisfy 1 <= n < modes, got {n}")
    dim = cutoff**modes
    if dim > DENSE_DIM_GUARD:
        raise ValueError(
            f"dense dimension {dim} exceeds the guard {DENSE_DIM_GUARD}"
        )
    a = build_ladder(cutoff)
    num = np.diag(_number_diag(cutoff)).astype(complex)
    eye = np.eye(cutoff, dtype=complex)

    def embed(op: np.ndarray, site: int) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for m in range(modes):
            out = np.kron(out, op if m == site else eye)
        return out

    def embed_two(opA: np.ndarray, i: int, opB: np.ndarray, j: int) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for m in range(modes):
            if m == i:
                out = np.kron(out, opA)
            elif m == j:
                out = np.kron(out, opB)
            else:
                out = np.kron(out, eye)
        return out

    H = params.E * embed(num, 0)
    for k in range(1, modes):
        H += params.eps * embed(num, k)
    H += params.eta * (embed_two(a.conj().T, 0, a, n) + embed_two(a, 0, a.conj().T, n))
    return H


def gibbs_density(beta: float, D: int) -> tuple[FockDensityMatrix, CutoffReport]:
    """One-mode thermal state at cutoff D, renormalized, with its cutoff audit."""
    p = thermal_probabilities(beta, D)
    rho = FockDensityMatrix(1, D, np.diag(p.astype(complex)))
    report = CutoffReport(tail_weight=float(p[-1]), recommendation=recommend_cutoff(beta))
    return rho, report


def product_density(factors: list[FockDensityMatrix]) -> FockDensityMatrix:
    """Tensor product of one-mode density matrices (dense, guard applies)."""
    cutoff = factors[0].cutoff
    if any(f.cutoff != cutoff for f in factors):
        raise ValueError("all factors must share one cutoff")
    mat = np.array([[1.0 + 0j]])
    for f in factors:
        mat = np.kron(mat, f.matrix)
    return FockDensityMatrix(len(factors), cutoff, mat)


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


def _pair_step_unitary(params, D: int) -> np.ndarray:
    """exp(-i*tau*H_pair) on the two interacting modes, (D^2 x D^2)."""
    U2 = np.zeros((D * D, D * D), dtype=complex)
    blocks = _pair_blocks(params.E, params.eps, params.eta, params.tau, D)
    for p, block in enumerate(blocks):
        n0 = _pair_occupations(p, D)
        idx = n0 * D + (p - n0)
        U2[np.ix_(idx, idx)] = block
    return U2


def _dense_step(mat: np.ndarray, modes: int, D: int, n: int, U2: np.ndarray,
                spectator_phase: np.ndarray) -> np.ndarray:
    """One step applied to a dense matrix via tensor reshaping (no D^M x D^M unitary)."""
    dim = D**modes
    # rows: bring mode axes (0, n) to the front, apply U2, restore
    T = mat.reshape((D,) * modes + (dim,))
    T = np.moveaxis(T, n, 1)
    T = U2 @ T.reshape(D * D, -1)
    T = np.moveaxis(T.reshape((D, D) + (D,) * (modes - 2) + (dim,)), 1, n)
    # spectator phases on row axes
    for k in range(modes):
        if k in (0, n):
            continue
        shape = [1] * (modes + 1)
        shape[k] = D
        T = T * spectator_phase.reshape(shape)
    out = T.reshape(dim, dim)
    # columns: the conjugate transformation
    out = out.conj().T.reshape((D,) * modes + (dim,))
    out = np.moveaxis(out, n, 1)
    out = U2 @ out.reshape(D * D, -1)
    out = np.moveaxis(out.reshape((D, D) + (D,) * (modes - 2) + (dim,)), 1, n)
    for k in range(modes):
        if k in (0, n):
            continue
        shape = [1] * (modes + 1)
        shape[k] = D
        out = out * spectator_phase.reshape(shape)
    return out.reshape(dim, dim).conj().T


@functools.lru_cache(maxsize=32)
def _step_plan(modes: int, D: int, n: int) -> tuple:
    """Per sector, how the step on slot n acts on it.

    A sector's basis is grouped by spectator occupation (every mode but 0
    and n).  Inside a group the pair occupation p is fixed and n0 ascends,
    so the group is exactly the basis of pair block p and the step there
    is that block times the spectator phase.  Each entry is (order,
    inverse, groups): order makes the groups contiguous, inverse undoes
    it, and groups lists (lo, hi, p, spectator total) per row slice.
    """
    basis = _SectorBasis.get(modes, D)
    rest = [c for c in range(modes) if c not in (0, n)]
    plan = []
    for s, B in enumerate(basis.sectors):
        order, bounds = _occupation_groups(B, rest, D)
        groups = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            p = int(B[order[lo], 0] + B[order[lo], n])
            groups.append((int(lo), int(hi), p, s - p))
        plan.append((_read_only(order), _read_only(np.argsort(order)), tuple(groups)))
    return tuple(plan)


def _blocked_step(rho: BlockedDensityMatrix, params, n: int) -> BlockedDensityMatrix:
    D, modes = rho.cutoff, rho.modes
    U = _pair_blocks(params.E, params.eps, params.eta, params.tau, D)
    phase = np.exp(-1j * params.tau * params.eps * np.arange(modes * (D - 1) + 1))
    # Us = P^T G P with P the row permutation `order` and G the grouped
    # blocks, so Us @ block @ Us^H = Us @ (Us @ block)^H: each side permutes
    # rows only.  A sector needs two buffers, its evolved block B and one
    # temporary A.  The indices are permutations, so mode="clip" never
    # clips; it spares the copy that take(..., out=) makes by default.
    new_blocks = []
    for block, (order, inverse, groups) in zip(rho.blocks, _step_plan(modes, D, n)):
        steps = [(lo, hi, phase[rest_total] * U[p]) for lo, hi, p, rest_total in groups]
        B = np.empty_like(block)
        A = block.take(order, axis=0)
        for lo, hi, Us in steps:
            np.matmul(Us, A[lo:hi], out=B[lo:hi])
        np.take(B, inverse, axis=0, out=A, mode="clip")  # A = Us @ block
        np.conjugate(A, out=A)
        np.take(A.T, order, axis=0, out=B, mode="clip")
        for lo, hi, Us in steps:
            np.matmul(Us, B[lo:hi], out=A[lo:hi])
        np.take(A, inverse, axis=0, out=B, mode="clip")
        new_blocks.append(B)
        # free A before the next sector's B is allocated, so the evolved
        # blocks pack together instead of around freed temporaries
        del A
    out = BlockedDensityMatrix._from_own_blocks(modes, D, new_blocks)
    if rho._coupled is not None:
        out._coupled = rho._coupled | {0, n}
    return out


def evolve_density(rho, params, schedule) -> "FockDensityMatrix | BlockedDensityMatrix":
    """Apply exp(-i*tau*H_n) for each slot n in `schedule`, in order.

    Each step unitary is assembled from Hermitian eigendecompositions of
    the two-mode part, one per pair occupation, tensored with the free
    spectator phases; this equals the exponential of the whole truncated
    step Hamiltonian because the two commuting parts truncate
    independently.
    """
    schedule = list(schedule)
    for n in schedule:
        if not 1 <= n < rho.modes:
            raise ValueError(f"schedule slot {n} outside 1..{rho.modes - 1}")
    if isinstance(rho, BlockedDensityMatrix):
        out = rho
        for n in schedule:
            out = _blocked_step(out, params, n)
        return out
    mat = rho.matrix.copy()
    spectator_phase = np.exp(-1j * params.tau * params.eps * _number_diag(rho.cutoff))
    U2 = _pair_step_unitary(params, rho.cutoff)
    for n in schedule:
        mat = _dense_step(mat, rho.modes, rho.cutoff, n, U2, spectator_phase)
    return FockDensityMatrix(rho.modes, rho.cutoff, mat)


def _check_weyl_headroom(zeta: np.ndarray, D: int) -> None:
    disp = float(np.max(np.abs(zeta))) / math.sqrt(2.0)
    if disp > math.sqrt(D) / 4.0:
        raise ValueError(
            f"displacement {disp:.3g} exceeds cutoff headroom sqrt(D)/4 = "
            f"{math.sqrt(D) / 4.0:.3g}; raise the cutoff"
        )


def weyl_expectation(rho, zeta) -> complex:
    """Tr[rho * W(zeta)] with W(zeta) the product of one-mode Weyl operators.

    W(zeta) = exp[i*(<zeta,b> + <b,zeta>)/sqrt(2)] factorizes over modes;
    each factor is exponentiated by eigendecomposition.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (rho.modes,):
        raise ValueError(f"zeta must have length modes = {rho.modes}")
    _check_weyl_headroom(zeta, rho.cutoff)
    ws = [_one_mode_weyl(z, rho.cutoff) for z in zeta]
    if isinstance(rho, BlockedDensityMatrix):
        # W[I, J] = prod_m w_m[J_m, I_m], gathered flat from the transposed
        # factors, so sum_{I,J} rho[I,J] * W[I,J] is one dot of the ravels
        D = rho.cutoff
        flat = [np.ascontiguousarray(w.T).ravel() for w in ws]
        total = 0j
        for B, block in zip(rho.basis.sectors, rho.blocks):
            cols = B.T
            W = flat[0].take(D * cols[0][:, None] + cols[0])
            for wt, col in zip(flat[1:], cols[1:]):
                W *= wt.take(D * col[:, None] + col)
            total += W.ravel() @ block.ravel()
        return complex(total)
    # sum_{I,J} rho[I,J] * prod_m w_m[J_m, I_m], contracted mode by mode so the
    # D^M x D^M Weyl matrix is never materialized
    M = rho.modes
    D = rho.cutoff
    operands: list = [rho.matrix.reshape((D,) * (2 * M)), list(range(2 * M))]
    for m in range(M):
        operands.extend([ws[m], [M + m, m]])
    operands.append([])
    return complex(np.einsum(*operands, optimize=True))


def weyl_expectation_batch(
    rho: FockDensityMatrix, alphas: np.ndarray, minus_one: bool = False
) -> np.ndarray:
    """Tr[rho * w(alpha)] for a one-mode state and a whole array of alphas.

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
    offsets and no phase factors.  With minus_one=True the returned array
    is Tr[rho*w(alpha)] - 1 evaluated without cancellation, which keeps
    million-term products of near-unit factors at full precision.
    """
    if rho.modes != 1:
        raise ValueError("batch path is for one-mode states")
    D = rho.cutoff
    alphas = np.asarray(alphas, dtype=complex).ravel()
    _check_weyl_headroom(alphas, D)
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
        diag = np.diagonal(rho.matrix, offset=d)
        if not np.any(diag):
            continue
        rows = np.arange(max(0, -d), D - max(0, d))
        offsets.append(d)
        cols.append(weight * (Q_pos[rows].conj() * diag[:, None] * Q_pos[rows + d]).sum(axis=0))
    ds = np.array(offsets)
    T = np.stack(cols, axis=1)  # (len(lam_pos), nd)
    even = ds % 2 == 0

    def real_times(A, B):
        # real A times complex B without a complex copy of A
        return A @ B.real + 1j * (A @ B.imag)

    r = np.abs(alphas)
    phi = np.angle(alphas) if np.any(ds) else None
    out = np.empty(len(alphas), dtype=complex)
    chunk = 200_000
    for lo in range(0, len(alphas), chunk):
        hi = min(lo + chunk, len(alphas))
        arg = np.outer(r[lo:hi], lam_pos)
        # cos(x) - 1 = -2*sin^2(x/2), no cancellation
        re = -2.0 * np.sin(arg / 2.0) ** 2 if minus_one else np.cos(arg)
        C = np.empty((hi - lo, len(ds)), dtype=complex)
        C[:, even] = real_times(re, T[:, even])
        if not even.all():
            C[:, ~even] = 1j * real_times(np.sin(arg), T[:, ~even])
        if phi is not None:
            C *= np.exp(1j * np.outer(phi[lo:hi], ds))
        out[lo:hi] = C.sum(axis=1)
    return out


def partial_trace(rho, keep) -> FockDensityMatrix:
    """Reduced density matrix on the modes listed in `keep` (in that order)."""
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty list of distinct modes")
    if any(not 0 <= k < rho.modes for k in keep):
        raise ValueError(f"keep entries must lie in 0..{rho.modes - 1}")
    D = rho.cutoff
    traced = [m for m in range(rho.modes) if m not in keep]
    out_dim = D ** len(keep)
    if isinstance(rho, BlockedDensityMatrix):
        out = np.zeros((out_dim, out_dim), dtype=complex)
        keep_radix = D ** np.arange(len(keep) - 1, -1, -1)
        for B, block in zip(rho.basis.sectors, rho.blocks):
            kept_idx = B[:, keep] @ keep_radix
            order, bounds = _occupation_groups(B, traced, D)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                grp = order[lo:hi]
                out[np.ix_(kept_idx[grp], kept_idx[grp])] += block[np.ix_(grp, grp)]
        return FockDensityMatrix(len(keep), D, out)
    # dense: reshape, trace out, reorder remaining axes to the keep order
    T = rho.matrix.reshape((D,) * (2 * rho.modes))
    for m in sorted(traced, reverse=True):
        T = np.trace(T, axis1=m, axis2=m + (T.ndim // 2))
    remaining = [m for m in range(rho.modes) if m in keep]
    perm = [remaining.index(k) for k in keep]
    half = len(keep)
    T = np.transpose(T, axes=perm + [p + half for p in perm])
    return FockDensityMatrix(len(keep), D, T.reshape(out_dim, out_dim))


def _entropy_from_eigs(vals: np.ndarray) -> float:
    if float(vals.min(initial=0.0)) < NEG_EIG_CLAMP:
        raise ValueError(f"eigenvalue {vals.min()} below the clamp tolerance")
    vals = np.clip(vals, 0.0, None)
    mask = vals > EIG_FLOOR
    v = vals[mask]
    return float(-(v * np.log(v)).sum())


def _spectrum(rho: BlockedDensityMatrix) -> np.ndarray:
    """All eigenvalues of a blocked state, computed once per state.

    A mode outside `rho._coupled` keeps a definite occupation, so each
    sector block is block-diagonal in those modes' occupations and the
    groups' sub-blocks carry its whole spectrum.  With no record every
    mode counts as coupled and each sector is one group.  Groups of one
    size are stacked, across sectors, into one `eigvalsh` call.
    """
    if rho._spectrum is None:
        coupled = range(rho.modes) if rho._coupled is None else rho._coupled
        uncoupled = [m for m in range(rho.modes) if m not in coupled]
        stacks = defaultdict(list)
        for B, block in zip(rho.basis.sectors, rho.blocks):
            order, bounds = _occupation_groups(B, uncoupled, rho.cutoff)
            sizes = np.diff(bounds)
            for k in np.unique(sizes).tolist():
                if k == len(block):
                    stacks[k].append(block[None])
                else:
                    # one row of group indices per group of size k
                    idx = order[bounds[:-1][sizes == k][:, None] + np.arange(k)]
                    stacks[k].append(block[idx[:, :, None], idx[:, None, :]])
        rho._spectrum = _read_only(np.concatenate([
            np.linalg.eigvalsh(np.concatenate(parts)).ravel()
            for parts in stacks.values()
        ]))
    return rho._spectrum


def von_neumann_entropy(rho) -> float:
    """-Tr[rho ln rho] in nats, with 0*ln 0 := 0."""
    if isinstance(rho, BlockedDensityMatrix):
        return _entropy_from_eigs(_spectrum(rho))
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.matrix))


_SUPPORT_TOL = 1e-10


def _relative_entropy_spectral(rho_mat: np.ndarray, ref_mat: np.ndarray) -> float:
    lam, U = np.linalg.eigh(rho_mat)
    mu, V = np.linalg.eigh(ref_mat)
    lam = np.clip(lam, 0.0, None)
    mu = np.clip(mu, 0.0, None)
    overlap = np.abs(U.conj().T @ V) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    weight_on_ref = lam @ overlap
    dead = mu <= EIG_FLOOR
    if np.any(weight_on_ref[dead] > _SUPPORT_TOL):
        raise ValueError("support of rho is not contained in support of rho0")
    term_rho = float((lam[lam > EIG_FLOOR] * np.log(lam[lam > EIG_FLOOR])).sum())
    live = ~dead
    term_ref = float((weight_on_ref[live] * np.log(mu[live])).sum())
    return term_rho - term_ref


def relative_entropy_oracle(rho, rho0) -> float:
    """Tr[rho (ln rho - ln rho0)], nonnegative up to numerical slack."""
    if isinstance(rho, BlockedDensityMatrix) != isinstance(rho0, BlockedDensityMatrix):
        raise ValueError("both states must use the same representation")
    if isinstance(rho, BlockedDensityMatrix):
        if (rho.modes, rho.cutoff) != (rho0.modes, rho0.cutoff):
            raise ValueError("states must share modes and cutoff")
        ref_diagonal = all(
            np.count_nonzero(b) == np.count_nonzero(np.diagonal(b)) for b in rho0.blocks
        )
        if not ref_diagonal:
            return sum(
                _relative_entropy_spectral(b, b0)
                for b, b0 in zip(rho.blocks, rho0.blocks)
            )
        lam = np.clip(_spectrum(rho), 0.0, None)
        keep = lam > EIG_FLOOR
        total = float((lam[keep] * np.log(lam[keep])).sum())
        for block, block0 in zip(rho.blocks, rho0.blocks):
            p0 = np.diagonal(block0).real
            diag = np.diagonal(block).real
            dead = p0 <= EIG_FLOOR
            if np.any(diag[dead] > _SUPPORT_TOL):
                raise ValueError("support of rho is not contained in support of rho0")
            live = ~dead
            total -= float((diag[live] * np.log(p0[live])).sum())
        return total
    if (rho.modes, rho.cutoff) != (rho0.modes, rho0.cutoff):
        raise ValueError("states must share modes and cutoff")
    return _relative_entropy_spectral(rho.matrix, rho0.matrix)

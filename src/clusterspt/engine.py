"""Numerical backend: states, the operator matrix, low spectra, degeneracy
clusters, and ground-space projections.

Basis convention: computational basis |b_1 b_2 ... b_L> with site 1 as the
most significant bit of the index.  A term X^x Z^z acts on a basis index b as
a sign (-1)^popcount(z & b) followed by the bit flip b ^ x, so every operator
sum is a sum of signed permutations.  One kernel, `_mask_rows`, reads every
matrix element off the masks, per x mask and row.  Every product of an
operator with states runs straight off its rows (`_act`: `apply`,
`expectations`, `splitting_matrices`, `resolve_sectors`), x masks in
ascending order, with no matrix built.  `operator_matrix` wraps the rows of
every basis index into a CSR matrix, which only the full-space solves of
`eig_low` (an operator with neither symmetry) and a scan's observables
build.  Sector blocks come from the kernel run once on the orbit
representatives of the translation x spin-flip group, from one orbit table
per lattice (`_sector_table`: each index's orbit and group element, and
each sector's character and columns), and one helper gives each row's
entries in its sector (`_sector_entries`).  `project_sectors` scatters
them into small dense blocks of every sector at once, which `sector_low`
solves for phase scans up to 12 sites and for every dense `eig_low` of a
symmetric operator; `_sector_blocks` keeps each spin-flip sector's rows as
a CSR block, which `sector_lanczos` solves by Lanczos for every iterative
`eig_low` of a P-invariant operator and for larger scans.  All golden
values depend on this ordering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .clifford import CzCircuit
from .errors import ConvergenceError, DomainError, LengthMismatchError, ResourceLimitError
from .pauli import OperatorSum, PauliString

DENSE_SITE_CAP = 12
APPLY_SITE_CAP = 24

# Relative tolerance for grouping eigenvalues into degenerate clusters.  The
# desk-scale spectra keep clusters at least gap/100 apart.
CLUSTER_RTOL = 1e-8

RESIDUAL_RTOL = 1e-9

_LANCZOS_MAXITER = 20000   # implicit restarts allowed to ARPACK

# Entry tolerance of the orbit-table check in project_sectors: characters
# from phases reduced mod 2 pi are multiplicative to 2.2e-15 on rings and
# open chains of 3-20 sites (unreduced, to 1.7e-14 at 17 sites).
BASIS_ATOL = 1e-14


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _as_sum(op) -> OperatorSum:
    return OperatorSum.from_pauli(op) if isinstance(op, PauliString) else op


class StateVector:
    """A 2^L amplitude vector over the computational basis."""

    __slots__ = ("length", "amps")

    def __init__(self, length: int, amps, normalize: bool = False, copy: bool = True):
        amps = np.array(amps, dtype=np.complex128, copy=copy)
        if amps.shape != (1 << length,):
            raise ValueError(
                f"amplitude vector must have length 2^{length}, got {amps.shape}")
        if normalize:
            n = np.linalg.norm(amps)
            if n == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / n
        self.length = length
        self.amps = amps
        self.amps.setflags(write=False)

    @classmethod
    def computational(cls, length: int, bits: int) -> "StateVector":
        """Basis state |b> for an L-bit integer with site 1 as the MSB."""
        amps = np.zeros(1 << length, dtype=np.complex128)
        amps[bits] = 1.0
        return cls(length, amps, copy=False)

    @classmethod
    def plus_state(cls, length: int) -> "StateVector":
        """Uniform superposition: every site in the +1 eigenstate of X."""
        dim = 1 << length
        return cls(length, np.full(dim, dim ** -0.5, dtype=np.complex128),
                   copy=False)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        return StateVector(self.length, self.amps, normalize=True)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.length != other.length:
            raise LengthMismatchError("states live on different chains")
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self):
        return f"StateVector(L={self.length}, norm={self.norm:.6f})"


def _mask_rows(op: OperatorSum, rows: np.ndarray):
    """(indices, data), each (rows.size, #x masks): op's entries in `rows`,
    one per x mask (ascending) per row: float64 when has_real_matrix holds.

    A term c X^x Z^z sends b to b ^ x with sign (-1)^popcount(z & b), so row
    r pulls from r ^ x alone, and the terms sharing x give it
    sum_z c (-1)^popcount(z & (r ^ x)).  The rows are every basis index for
    the full-space matrix and the state products, and the orbit
    representatives for the sector blocks (project_sectors).
    """
    groups = {}
    for (x, z), coeff in op.items():
        groups.setdefault(x, []).append((z, coeff))
    real = has_real_matrix(op)
    indices = np.empty((rows.size, len(groups)), dtype=rows.dtype)
    data = np.zeros((rows.size, len(groups)),
                    dtype=np.float64 if real else np.complex128)
    for k, x in enumerate(sorted(groups)):
        cols = indices[:, k]
        np.bitwise_xor(rows, x, out=cols)
        for z, coeff in groups[x]:
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
            data[:, k] += (coeff.real if real else coeff) * signs
    return indices, data


def operator_matrix(op) -> scipy.sparse.csr_array:
    """Sparse CSR matrix of an operator sum, one entry per x mask per row
    (see _mask_rows): float64 when has_real_matrix holds, else complex128."""
    op = _as_sum(op)
    if op.length > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"operator matrices capped at {APPLY_SITE_CAP} sites, "
            f"got {op.length}")
    dim = 1 << op.length
    return _csr(*_mask_rows(op, np.arange(dim, dtype=np.int32)))


def _csr(indices: np.ndarray, data: np.ndarray) -> scipy.sparse.csr_array:
    """Square CSR matrix whose row a holds data[a, k] in column
    indices[a, k], one entry per k, the arrays' own memory as its own."""
    n = indices.shape[0]
    # int32 offsets keep scipy from widening the column indices to int64
    wide = indices.size >= 2**31
    indptr = np.arange(n + 1, dtype=np.int64 if wide else np.int32)
    indptr *= indices.shape[1]
    return scipy.sparse.csr_array(
        (data.ravel(), indices.ravel(), indptr), shape=(n, n))


def _check_length(op: OperatorSum, dim: int) -> None:
    """Raise LengthMismatchError unless states of `dim` amplitudes live on
    op's sites, and ResourceLimitError above APPLY_SITE_CAP sites."""
    if dim != 1 << op.length:
        raise LengthMismatchError(
            f"operator acts on {op.length} sites, states have {dim} amplitudes")
    if op.length > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"operator products capped at {APPLY_SITE_CAP} sites, "
            f"got {op.length}")


def _act(op: OperatorSum, vecs: np.ndarray) -> np.ndarray:
    """op @ vecs for a (2^L,) or (2^L, n) array, off op's rows (_mask_rows):
    per x mask, ascending, the row data times vecs[r ^ x], added in the
    order a CSR product with operator_matrix(op) adds them.  The product is
    formed in the gathered copy, so one 2^L x n temporary is open at a
    time."""
    dim = vecs.shape[0]
    _check_length(op, dim)
    indices, data = _mask_rows(op, np.arange(dim, dtype=np.int32))
    vecs = vecs.astype(np.result_type(data, vecs), copy=False)
    out = np.zeros_like(vecs)
    shape = (-1,) + (1,) * (vecs.ndim - 1)
    for k in range(indices.shape[1]):
        gathered = np.take(vecs, indices[:, k], axis=0)
        # data first, as in the CSR product: a fused complex multiply is
        # not symmetric in its operands
        np.multiply(data[:, k].reshape(shape), gathered, out=gathered)
        out += gathered
    return out


def apply(op, psi: StateVector) -> StateVector:
    """Exact linear action of an operator on a state (result unnormalized),
    straight off the operator's rows (_act)."""
    return StateVector(psi.length, _act(_as_sum(op), psi.amps), copy=False)


def expectations(states, op) -> np.ndarray:
    """<psi_j|op|psi_j> for every state of `states` (StateVectors or the
    columns of a 2D array), from one product of op with all of them."""
    vecs = _as_columns(states)
    moved = _act(_as_sum(op), vecs)
    return np.array([np.vdot(vecs[:, j], moved[:, j])
                     for j in range(vecs.shape[1])])


def expectation(psi: StateVector, op) -> complex:
    """<psi|op|psi>; real to ~1e-10 for Hermitian operators."""
    return complex(expectations([psi], op)[0])


def dense_matrix(op) -> np.ndarray:
    """Dense matrix of an operator sum: float64 when has_real_matrix holds,
    complex128 otherwise."""
    op = _as_sum(op)
    if op.length > DENSE_SITE_CAP:
        raise ResourceLimitError(
            f"dense form capped at {DENSE_SITE_CAP} sites, got {op.length}")
    return operator_matrix(op).toarray()


def has_real_matrix(op, tol: float = 1e-12) -> bool:
    """True iff every matrix element is real in the computational basis.

    Each X^x Z^z block is a real signed permutation, so the matrix is real
    exactly when every stored coefficient is real.  This is the operator-level
    witness of time-reversal invariance.
    """
    op = _as_sum(op)
    return all(abs(c.imag) <= tol for _, c in op.items())


def cz_diagonal(circuit: CzCircuit) -> np.ndarray:
    """Diagonal (+-1) of the CZ circuit's unitary."""
    dim = 1 << circuit.length
    idx = np.arange(dim, dtype=np.uint64)
    diag = np.ones(dim)
    for (i, j) in circuit.edges:
        bi = np.uint64(1 << (circuit.length - i))
        bj = np.uint64(1 << (circuit.length - j))
        both = ((idx & bi) != 0) & ((idx & bj) != 0)
        diag[both] *= -1.0
    return diag


def build_cluster_state(lattice, k: int = 0, l: int = 0) -> StateVector:
    """Entangle the all-plus state along the bond circuit, then flip the edge
    labels: (Z_1)^k (Z_L)^l CZ_bonds |+...+>.

    The four (k, l) states on an open chain are joint +1 eigenstates of every
    stabilizer and are distinguished by the edge operators; a periodic ring
    has no free ends, so only k = l = 0 is defined there.
    """
    if k not in (0, 1) or l not in (0, 1):
        raise DomainError("edge labels k, l must be 0 or 1")
    if lattice.is_periodic and (k or l):
        raise DomainError("periodic rings admit only k = l = 0")
    L = lattice.length
    if L > APPLY_SITE_CAP:
        raise ResourceLimitError(f"state construction capped at {APPLY_SITE_CAP}")
    circuit = CzCircuit.chain(L, periodic=lattice.is_periodic)
    amps = cz_diagonal(circuit) * ((1 << L) ** -0.5)
    dim = 1 << L
    idx = np.arange(dim, dtype=np.uint64)
    if k:
        amps = amps * (1.0 - 2.0 * ((idx & np.uint64(1 << (L - 1))) != 0))
    if l:
        amps = amps * (1.0 - 2.0 * ((idx & np.uint64(1)) != 0))
    return StateVector(L, amps.astype(np.complex128), copy=False)


@dataclass(frozen=True)
class SpectrumResult:
    """Low-lying spectrum with its degeneracy structure.

    eigenvalues are ascending; the ground cluster is every eigenvalue within
    CLUSTER_RTOL * max(1, |E0|) of E0; gap is the first eigenvalue above the
    cluster minus E0 (nan when the requested count never left the cluster).
    """

    eigenvalues: np.ndarray
    states: tuple
    ground_degeneracy: int
    gap: float
    max_residual: float
    method: str

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_basis(self) -> tuple:
        return self.states[: self.ground_degeneracy]


def checked_residual(hv: np.ndarray, vecs: np.ndarray, vals: np.ndarray,
                     norm_h: float) -> float:
    """Largest residual ||Hv - Ev|| over the columns, given hv = H @ vecs.

    Raises ConvergenceError when it exceeds RESIDUAL_RTOL * max(1, norm_h),
    norm_h being sum|coeff| of H; every eigensolver path reports through here.
    """
    residuals = np.linalg.norm(hv - vecs * vals, axis=0)
    worst = float(residuals.max())
    bound = RESIDUAL_RTOL * max(1.0, norm_h)
    if worst > bound:
        raise ConvergenceError(
            f"residual {worst:.3e} exceeds {RESIDUAL_RTOL:.1e} * "
            f"max(1, ||H||) = {bound:.3e}", residuals=residuals)
    return worst


def eig_low(h, count: int = 6, method: str = "auto") -> SpectrumResult:
    """Lowest `count` eigenpairs of a Hermitian operator sum.

    The symmetry group is read off h's coefficients with the test
    project_sectors applies (_implied_leak): translation x spin flip when h
    is invariant under both T and P, the spin flip alone when only under P.
    dense: L <= 12, per symmetry sector when h is invariant.  Each sector
    block then gives its lowest min(count, d) levels to sector_low, whose
    merged window is exactly the lowest `count` levels.  iterative: L <= 24,
    one implicitly restarted Lanczos solve per spin-flip block when h is
    invariant under P (sector_lanczos, on rings too), whose CSR blocks come
    straight from the orbit table.  An h with neither symmetry is solved on
    the full space: one dense matrix, or Lanczos on its CSR operator matrix.
    A run whose memory estimate exceeds physical memory raises
    ResourceLimitError before allocating anything large (project_sectors
    charges the dense blocks, sector_lanczos the CSR blocks).  Every
    reported pair must satisfy ||Hv - Ev|| <= RESIDUAL_RTOL * max(1,
    sum|coeff|) (see checked_residual).  The iterative path guarantees each
    returned pair is a true eigenpair but, like any Krylov method, may
    return fewer copies of a level degenerate inside one spin-flip sector
    (or, for an h without P, on the full space) than exist; ask for enough
    eigenvalues (count comfortably above the expected multiplicity) or use
    the dense path when exact multiplicities matter.
    """
    h = _as_sum(h)
    if not h.is_hermitian:
        raise DomainError("eig_low needs a Hermitian operator")
    L = h.length
    dim = 1 << L
    count = int(count)
    if count < 1:
        raise DomainError("count must be positive")
    count = min(count, dim)

    if method == "auto":
        method = "dense" if L <= DENSE_SITE_CAP else "iterative"
    if method == "dense" and L > DENSE_SITE_CAP:
        raise ResourceLimitError(
            f"dense diagonalization capped at {DENSE_SITE_CAP} sites, got {L}")
    if method == "iterative" and L > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"iterative diagonalization capped at {APPLY_SITE_CAP} sites, got {L}")
    if method not in ("dense", "iterative"):
        raise DomainError(f"unknown method {method!r}")

    if method == "iterative" and count > dim - 2:
        method = "dense"  # ARPACK needs k < dim-1; these are tiny anyway
        if L > DENSE_SITE_CAP:
            raise ResourceLimitError("count too close to the full dimension")

    # True: ring sectors, False: spin-flip sectors, None: the full space
    periodic = _symmetry_group(h)
    if periodic is not None and method == "dense":
        vals, _, states, max_residual = sector_low(
            project_sectors([h], periodic), [1.0], count, h.norm_bound())
    elif periodic is not None:
        vals, _, states, max_residual = sector_lanczos(h, count)
    else:
        # a wide Krylov subspace improves capture of degenerate multiplets
        ncv = int(min(dim, max(4 * count + 1, 40)))
        item = 8 if has_real_matrix(h) else 16
        x_masks = len({x for x, _ in h.items()})
        vectors = dim if method == "dense" else ncv
        _check_memory(dim * (x_masks * (item + 4) + vectors * item), method,
                      L, f"CSR matrix plus {vectors} vectors")
        m = operator_matrix(h)
        if method == "dense":
            vals, vecs = scipy.linalg.eigh(m.toarray(),
                                           subset_by_index=[0, count - 1])
        else:
            vals, vecs = _lanczos(m, count, ncv)
        vals = np.asarray(vals, dtype=float)
        # before the complex cast: a real matrix times complex vectors copies
        max_residual = checked_residual(m @ vecs, vecs, vals, h.norm_bound())
        states = tuple(StateVector(L, vecs[:, i]) for i in range(vals.size))
        del m, vecs

    width = CLUSTER_RTOL * max(1.0, abs(vals[0]))
    degeneracy = int(np.sum(vals <= vals[0] + width))
    if degeneracy < vals.size:
        gap = float(vals[degeneracy] - vals[0])
    else:
        gap = float("nan")

    # re-orthonormalize the ground cluster; degenerate eigenvectors from the
    # solver are orthogonal only to solver precision
    q, _ = np.linalg.qr(_as_columns(states[:degeneracy]))
    states = tuple(StateVector(L, q[:, i]) for i in range(degeneracy)) \
        + states[degeneracy:]
    return SpectrumResult(
        eigenvalues=vals, states=states, ground_degeneracy=degeneracy,
        gap=gap, max_residual=max_residual, method=method)


def _lanczos(m, count: int, ncv: int) -> tuple:
    """Lowest `count` eigenpairs (vals, vecs) of the Hermitian sparse matrix
    m, ascending, by implicitly restarted Lanczos (ARPACK) with ncv Krylov
    vectors, tol=0 and a fixed start vector, which keeps the output
    deterministic."""
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            m, k=count, which="SA", maxiter=_LANCZOS_MAXITER, tol=0, ncv=ncv,
            v0=np.random.default_rng(0).standard_normal(m.shape[0]))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge in {_LANCZOS_MAXITER} iterations",
            residuals=getattr(exc, "eigenvalues", None)) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def splitting_matrices(states, ops) -> np.ndarray:
    """(n, d, d) array of V^H O_m V for the n operators of `ops`, V the
    columns of `states` (StateVectors or a 2D array), stacked once: every
    probe's first-order splitting matrix over a ground space, each from one
    product off the operator's rows (_act, which raises
    LengthMismatchError when an operator's length is not the states')."""
    basis = _as_columns(states)
    bra = basis.conj().T
    d = basis.shape[1]
    return np.array([bra @ _act(_as_sum(op), basis) for op in ops],
                    dtype=np.complex128).reshape(len(ops), d, d)


def ground_projector(spectrum: SpectrumResult, op) -> np.ndarray:
    """d x d matrix <v_a|O|v_b> over the ground cluster: the first-order
    splitting matrix of degenerate perturbation theory, the one-operator
    case of splitting_matrices."""
    return splitting_matrices(spectrum.ground_basis, [op])[0]


def splitting_class(m: np.ndarray, tol: float = 1e-10) -> str:
    """Classify a splitting matrix as 'zero', 'scalar', or 'non-scalar'."""
    d = m.shape[0]
    if np.linalg.norm(m) <= tol:
        return "zero"
    trace_part = (np.trace(m) / d) * np.eye(d)
    if np.linalg.norm(m - trace_part) <= tol:
        return "scalar"
    return "non-scalar"


def resolve_sectors(spectrum: SpectrumResult, sym,
                    atol: float = 1e-8) -> tuple:
    """Resolve a conserved +-1 symmetry inside each degenerate cluster.

    Eigensolvers return arbitrary mixtures within exactly degenerate clusters,
    so the symmetry is re-diagonalized block by block.  Returns (labels,
    states): labels[i] is the symmetry eigenvalue of the i-th level, states
    are rotated to be simultaneous eigenvectors.  Labels are only meaningful
    for clusters the window contains completely: if the last computed level
    sits inside a larger multiplet, the symmetry does not preserve the
    truncated slice and those labels land away from +-1.
    """
    vals = spectrum.eigenvalues
    n = vals.size
    if n == 0:
        return np.array([]), ()
    L = spectrum.states[0].length
    vec = np.column_stack([s.amps for s in spectrum.states])
    sym = _as_sum(sym)
    labels = np.zeros(n)
    for c in _clusters(vals, atol):
        block = vec[:, c]
        sym_block = block.conj().T @ _act(sym, block)
        labels[c], rot = np.linalg.eigh(sym_block)
        vec[:, c] = block @ rot
    states = tuple(StateVector(L, vec[:, c], copy=True) for c in range(n))
    return labels, states


def _clusters(vals: np.ndarray, atol: float):
    """Slices of ascending `vals` grouped into clusters: each cluster runs
    from its first level up to the last within atol of it."""
    n = vals.size
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] - vals[i] <= atol:
            j += 1
        yield slice(i, j + 1)
        i = j + 1


def _rotate(b, length: int):
    """The translation T (site i to site i+1) on basis indices or Pauli masks
    b (site 1 the most significant bit): a rotation of the L bits one place
    toward the least significant end."""
    return (b >> 1) | ((b & 1) << (length - 1))


@dataclass(frozen=True)
class _SectorTable:
    """The orbits of one lattice's basis indices under the translations T^j
    and the spin flip P (P alone on an open chain), and its sectors.

    T^j P^s is coded g = 2j + s; P b = b ^ (2^L - 1), T b = _rotate(b, L).
    reps holds each orbit's smallest index r, ascending; size[n] counts the
    states of orbit n; orbit[b] (int32) is the position of b's orbit in
    reps; elem[b] (int8) is the g_b with g_b b = r.  Sector i, (k, p) =
    keys[i] in ascending k then p = +1, -1 (k = 0 on an open chain), has
    the character chars[i, 2j + s] = e^{2 pi i k j / L} p^s, and cols[i, n]
    is the column of reps[n]'s orbit sum in it, -1 where the sum vanishes.
    """

    length: int
    reps: np.ndarray
    size: np.ndarray
    orbit: np.ndarray
    elem: np.ndarray
    keys: tuple
    chars: np.ndarray
    cols: np.ndarray


def _sector_table(length: int, periodic: bool) -> _SectorTable:
    """The orbit table (_SectorTable) of `length` sites, ring or chain."""
    if length > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"symmetry sectors capped at {APPLY_SITE_CAP} sites, got {length}")
    dim = 1 << length
    shifts = length if periodic else 1

    def images(b):
        """Yield T^j P^s b for every group element g = 2j + s."""
        for _ in range(shifts):
            yield b
            yield b ^ (dim - 1)
            b = _rotate(b, length)

    rep = np.arange(dim, dtype=np.int32)
    elem = np.zeros(dim, dtype=np.int8)
    for g, img in enumerate(images(rep.copy())):
        smaller = img < rep
        rep[smaller] = img[smaller]
        elem[smaller] = g
    is_rep = rep == np.arange(dim)
    reps = np.flatnonzero(is_rep)
    orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[rep]
    keys, chars = [], []
    for k in range(shifts):
        # the phase reduced mod 2 pi keeps the characters multiplicative to
        # rounding; k = 0 and k = L/2 (every open-chain sector) have a real
        # character, so their blocks and solves stay real
        phase = 2 * np.pi * (k * np.arange(shifts) % length) / length
        twist = np.cos(phase) if 2 * k % length == 0 else np.exp(1j * phase)
        for p in (1, -1):
            keys.append((k, p))
            chars.append(np.outer(twist, (1, p)).ravel())
    chars = np.array(chars)
    # an orbit sum survives iff the character is trivial on the
    # representative's stabilizer, where the sum is |stabilizer| > 0
    alive = (chars @ (np.array(list(images(reps))) == reps)).real > 0.5
    some = alive.any(axis=1)
    alive = alive[some]
    cols = np.where(alive, np.cumsum(alive, axis=1) - 1, -1).astype(np.int32)
    return _SectorTable(length, reps, np.bincount(orbit), orbit, elem,
                        tuple(key for key, s in zip(keys, some) if s),
                        chars[some], cols)


def _row_form(table: _SectorTable, i: int) -> tuple:
    """(col, val) of sector i over the basis indices: b sits in column
    col[b] (-1 outside the sector) with entry val[b] = chi(g_b) / sqrt(N_r),
    0 outside, so the sector's basis is V[b, col[b]] = val[b]."""
    col = table.cols[i][table.orbit]
    val = np.where(col >= 0, table.chars[i][table.elem]
                   / np.sqrt(table.size[table.orbit]), 0)
    return col, val


def _implied_leak(op: OperatorSum, periodic: bool) -> float:
    """sqrt(2^L) (||dc||_2 / (2 sin(pi/L)) + ||c_odd||_2): the bound on
    ||M V - V B||_F that op's coefficients imply in every sector (see
    project_sectors); dc is the coefficient change under T, on a ring only,
    and c_odd holds the coefficients of odd z weight."""
    L = op.length
    terms = dict(op.items())
    leak = np.sqrt(sum(abs(c) ** 2 for (_, z), c in terms.items()
                       if z.bit_count() & 1))
    if periodic:
        moved = {(_rotate(x, L), _rotate(z, L)): c
                 for (x, z), c in terms.items()}
        dc = np.sqrt(sum(abs(moved.get(key, 0) - terms.get(key, 0)) ** 2
                         for key in moved.keys() | terms.keys()))
        if dc:
            leak += dc / (2 * np.sin(np.pi / L))
    return float(np.sqrt(1 << L) * leak)


def _symmetry_group(op: OperatorSum):
    """True when op is invariant under the translation T and the spin flip P
    (ring sectors), False when under P alone (chain sectors), None
    otherwise: the coefficient test of project_sectors, _implied_leak <=
    1e-12 * max(1, sum|coeff|)."""
    bound = 1e-12 * max(1.0, op.norm_bound())
    for periodic in (True, False):
        if _implied_leak(op, periodic) <= bound:
            return periodic
    return None


def _check_memory(need: int, method: str, length: int, what: str) -> None:
    """Raise ResourceLimitError when `need` bytes exceed physical memory."""
    if need > _physical_memory():
        raise ResourceLimitError(
            f"{method} diagonalization of {length} sites needs about "
            f"{need / 1e9:.1f} GB ({what}), more than the "
            f"{_physical_memory() / 1e9:.1f} GB of physical memory")


def _check_table(table: _SectorTable, periodic: bool) -> None:
    """Raise ConvergenceError unless the orbit table passes checks (i) and
    (iii) (a)-(d) of project_sectors, each to BASIS_ATOL."""
    L, chars, orbit, cols = table.length, table.chars, table.orbit, table.cols
    b, g = np.arange(orbit.size, dtype=orbit.dtype), np.arange(chars.shape[1])
    k, p = np.array(table.keys).T
    elem, alive = table.elem, cols >= 0
    ok = {"span": alive.sum() == orbit.size, "orbit": True, "stabilizer": True,
          "character": np.abs(chars[:, 0] - 1).max() <= BASIS_ATOL,
          "size": np.array_equal(table.size, np.bincount(orbit))
          and np.array_equal(cols, np.where(alive, alive.cumsum(1) - 1, -1))}
    # each generator s: its code, g s for every g, s b for every b, chi(s)
    gens = [(1, g ^ 1, b ^ (orbit.size - 1), p)]
    if periodic:
        gens.append((2, (g + 2) % g.size, _rotate(b, L),
                     np.exp(2j * np.pi * k / L)))
    for code, times, image, chi in gens:
        # h = g_{sb} s g_b^-1: translations add mod L and flips xor
        h = (2 * ((elem[image] // 2 + code // 2 - elem // 2) % (g.size // 2))
             + ((elem[image] ^ code ^ elem) & 1))
        moved = h != 0
        ok["character"] &= bool(np.abs(chars[:, times] - chars * chi[:, None])
                                .max() <= BASIS_ATOL)
        ok["orbit"] &= np.array_equal(orbit[image], orbit)
        ok["stabilizer"] &= bool(np.abs(chars[:, h[moved]] - 1)[
            alive[:, orbit[moved]]].max(initial=0) <= BASIS_ATOL)
    failed = [name for name, good in ok.items() if not good]
    if failed:
        raise ConvergenceError(
            f"{L}-site orbit table fails its {', '.join(failed)} check: its "
            "sector bases are not an orthonormal eigenbasis of the symmetries")


def _check_invariant(op: OperatorSum, periodic: bool, name: str) -> None:
    """Raise ConvergenceError unless op's coefficients bound its sector leak
    (_implied_leak) within 1e-12 * max(1, sum|coeff|): check (ii) of
    project_sectors."""
    leak = _implied_leak(op, periodic)
    bound = 1e-12 * max(1.0, op.norm_bound())
    if leak > bound:
        raise ConvergenceError(
            f"{name} is not invariant under the symmetries: its "
            f"coefficients allow ||MV - VB|| = {leak:.3e}, above "
            f"{bound:.3e}")


def _sector_entries(table: _SectorTable, op: OperatorSum, sec, rep) -> tuple:
    """(target, values), each (rows, #x masks): op's entries in the sector
    rows a, row a being the orbit sum of reps[rep[a]] in sector sec[a, 0],
    from one kernel call (_mask_rows) on the orbit representatives.

    M|c> has amplitude B[c', c] / sqrt(N_r) at the representative r of
    column c', so row r's entry from r ^ x, times chi(g_{r^x})
    sqrt(N_r / N_{orbit(r^x)}), lands in column target = cols[i,
    orbit(r ^ x)] of sector i, -1 where that orbit's sum vanishes in i.
    project_sectors scatters these entries into dense blocks, _sector_blocks
    takes each sector's rows as a CSR block.
    """
    indices, data = _mask_rows(op, table.reps)
    orbit, elem = table.orbit[indices], table.elem[indices]
    del indices
    data *= np.sqrt(table.size[:, None] / table.size[orbit])
    target = table.cols[sec, orbit[rep]]
    del orbit
    return target, table.chars[sec, elem[rep]] * data[rep]


def project_sectors(ops, periodic: bool) -> tuple:
    """Every operator of `ops` (one lattice) in every symmetry sector:
    (table, [(k, p, blocks)]), the lattice's orbit table (_sector_table) and
    per sector blocks[m] = V^H M_m V, V the sector's orbit-sum basis
    (_row_form).  Each operator's entries in every sector come from one
    kernel call on the orbit representatives (_sector_entries), all sectors
    in one scatter.  A block is float64 exactly when its operator is real
    (has_real_matrix) and its sector's character is real (2k = 0 mod L).
    Between the guard below and the first kernel call, the blocks, the
    scattered rows and sector_low's largest solve are charged against
    physical memory (_check_memory).

    The result is guarded once per lattice, without forming any M: a leaky
    basis would silently drop levels from the spectrum.  For every operator
    and sector, leak = ||M V - V B||_F = ||(1 - V V^H) M V||_F must stay
    within 1e-12 * max(1, sum|coeff|).  Three checks imply it, and each
    raises ConvergenceError when it fails:

    (i) the sector dimensions sum to 2^L (_check_table);
    (ii) every operator is invariant under P and, on a ring, under T, read
         off its masks (_implied_leak): conjugating by a site permutation g
         only moves coefficients between mask pairs, and Pauli strings are
         orthogonal with squared Frobenius norm 2^L, so
         ||g M g^-1 - M||_F = sqrt(2^L) ||dc||_2; P flips the sign of the
         terms of odd z weight, so ||P M P - M||_F = 2 sqrt(2^L) ||c_odd||_2;
    (iii) each V is an orthonormal eigenbasis with T V = e^{2 pi i k/L} V and
         P V = p V, read off the orbit table (_check_table) per orbit, for
         each generator s (P, and T on a ring) and every g and b:
         (a) chars[i] is the character of keys[i]: chars[i, 0] = 1 and
             chars[i, g s] = chars[i, g] chi(s);
         (b) size = bincount(orbit), and each sector numbers its surviving
             orbits 0, 1, ... in order;
         (c) orbit[s b] = orbit[b];
         (d) h = g_{sb} s g_b^-1, which fixes b's representative, has
             character 1 in every sector where b's orbit survives.
         Then V[s b] = conj(chi(s)) V[b] and each column has unit norm, with
         one entry per row by construction; no check walks 2^L per sector.

    By (iii) the columns of all sectors are orthonormal, sectors with
    distinct (k, p) being orthogonal eigenspaces, and by (i) there are 2^L
    of them, so each V spans its whole (k, p) eigenspace.  Y = (1 - V V^H)
    M V then lies in the other eigenspaces, where T differs from
    e^{2 pi i k/L} by at least 2 sin(pi/L) or, at the same momentum, P
    differs from p by 2.  Since e^{2 pi i k/L} Y - T Y = (1 - V V^H)[M, T] V
    and p Y - P Y = (1 - V V^H)[M, P] V,

        leak <= ||[M, T]||_F / (2 sin(pi/L)) + ||[M, P]||_F / 2
              = sqrt(2^L) (||dc||_2 / (2 sin(pi/L)) + ||c_odd||_2),

    and (ii) requires this bound, not the leak itself, to stay within
    1e-12 * max(1, sum|coeff|), or reports the operator not invariant.
    """
    ops = [_as_sum(op) for op in ops]
    L = ops[0].length
    for m, op in enumerate(ops):
        _check_invariant(op, periodic, f"operator {m}")
    dim = 1 << L
    table = _sector_table(L, periodic)
    _check_table(table, periodic)
    dims = np.count_nonzero(table.cols >= 0, axis=1)
    real = [has_real_matrix(op) for op in ops]
    # the blocks, float64 when the operator and every character are real;
    # sector_low's largest sum and eigh's copy of it, or on a ring the sum
    # of k, its twin's sum and their difference; the orbit table and
    # scattered rows, at most 48 bytes per state and x mask (9-12 sites)
    x_masks = sum(len({x for x, _ in op.items()}) for op in ops)
    items = [8 if r and np.isrealobj(table.chars) else 16 for r in real]
    solve = 3 if np.iscomplexobj(table.chars) else 2
    _check_memory(int(dims @ dims) * sum(items) + solve * max(items)
                  * int(dims.max()) ** 2 + dim * (64 + 48 * x_masks),
                  "dense", L, f"{len(ops) * dims.size} sector blocks plus "
                  "row tables")
    # the rows of all sectors, sector-major: row a of the scatter is
    # reps[rep[a]] in sector sec[a]
    sec, rep = np.nonzero(table.cols >= 0)
    sec = sec[:, None]
    # block i fills flat[ends[i] - d_i^2:ends[i]] row by row
    ends = np.cumsum(dims ** 2)
    start = ((ends - dims ** 2)[sec]
             + dims[sec] * table.cols[sec, rep[:, None]])
    flats = []
    for op in ops:
        target, values = _sector_entries(table, op, sec, rep)
        # an entry into an orbit whose sum vanishes in the sector (column
        # -1) goes to a spare slot past the blocks
        target = np.where(target >= 0, start + target, ends[-1])
        # one bincount adds the entries in order, as np.add.at would; a
        # complex entry's real and imaginary parts go to slots 2t and 2t + 1
        # of one float array, read back as complex without a copy (the
        # int64 zeros an empty operator's bincount gives read as zeros too)
        width = values.itemsize // 8
        slots = (width * target.reshape(-1, 1) + np.arange(width)).ravel()
        flats.append(np.bincount(slots, values.reshape(-1).view(np.float64),
                                 width * (ends[-1] + 1)).view(values.dtype))
    out = []
    for (k, p), d, end in zip(table.keys, dims, ends):
        blocks = [f[end - d * d:end].reshape(d, d) for f in flats]
        out.append((k, p, [b.real if r and 2 * k % L == 0 else b
                           for b, r in zip(blocks, real)]))
    return table, out


def sector_low(projected, coeffs, count: int, norm_h: float,
               atol: float = 1e-8) -> tuple:
    """Lowest `count` levels of H = sum_m coeffs[m] * op_m from the blocks of
    project_sectors, one dense eigh per sector.

    Returns (vals, labels, states, max_residual) like eig_low's eigenvalues
    followed by resolve_sectors: ascending energies, each level's spin-flip
    parity, the states V w, and the worst residual of any block.  The
    merge, shared with sector_lanczos (_merge_levels), expands only the kept
    levels to 2^L amplitudes and orders the labels and states inside each
    cluster of levels within `atol` by ascending parity, as resolve_sectors
    orders them.  A real H has conjugate blocks at momenta k and -k; when
    the block of -k matches the conjugate of the solved block of k, its
    solution is reused conjugated, which halves the complex solves; the sum
    of k is formed again for the test, so no summed block outlives its
    solve.  Every pair passes checked_residual against norm_h on its own
    block.
    """
    table, sectors = projected
    L = table.length

    def summed(blocks):
        h = np.zeros_like(blocks[0], np.result_type(*coeffs, *blocks))
        for c, b in zip(coeffs, blocks):
            h += c * b
        return h

    solved, found, worst = {}, [], 0.0
    for i, (k, p, blocks) in enumerate(sectors):
        h = summed(blocks)
        n = min(count, h.shape[0])
        twin = solved.pop((-k % L, p), None)
        if twin is not None and (
                np.abs(h - summed(sectors[twin[0]][2]).conj()).max()
                <= 1e-13 * max(1.0, norm_h)):
            e, w = twin[1], twin[2].conj()
        else:
            e, w = scipy.linalg.eigh(h, subset_by_index=[0, n - 1])
            if -k % L != k:   # a complex block, whose twin may come later
                solved[(k, p)] = (i, e, w)
        worst = max(worst, checked_residual(h @ w, w, e, norm_h))
        del h   # before the next sum allocates its block
        found += [(e[c], p, i, w[:, c]) for c in range(n)]
    return (*_merge_levels(table, found, count, atol), worst)


def _merge_levels(table: _SectorTable, found: list, count: int,
                  atol: float) -> tuple:
    """(vals, labels, states) of the lowest `count` levels of `found`, each
    level (energy, parity, sector, sector vector w): ascending energies,
    inside each cluster within `atol` in ascending parity (the order
    resolve_sectors gives), each state V w expanded from its sector's row
    form (_row_form)."""
    found = sorted(found, key=lambda level: level[0])[:count]
    vals = np.array([level[0] for level in found])
    for c in _clusters(vals, atol):
        found[c] = sorted(found[c], key=lambda level: level[1])
    labels = np.array([float(level[1]) for level in found])
    states = []
    for _, _, i, w in found:
        col, val = _row_form(table, i)
        states.append(StateVector(table.length, val * w[col]))
    return vals, labels, tuple(states)


def _sector_blocks(table: _SectorTable, op: OperatorSum) -> list:
    """op's block in every sector of `table` as a CSR matrix, from one
    _sector_entries call over the rows of all sectors (sector-major, as
    project_sectors takes them): sector i's rows are one slice of the
    entries, kept as its block's own memory.  An entry into an orbit whose
    sum vanishes in the sector (a ring's) is stored as a zero in column 0."""
    alive = table.cols >= 0
    sec, rep = np.nonzero(alive)
    target, values = _sector_entries(table, op, sec[:, None], rep)
    values[target < 0] = 0
    np.maximum(target, 0, out=target)
    dims = alive.sum(axis=1)
    return [_csr(target[end - d:end], values[end - d:end])
            for d, end in zip(dims, np.cumsum(dims))]


def sector_lanczos(h, count: int, atol: float = 1e-8) -> tuple:
    """Lowest `count` levels of a Hermitian h invariant under the spin flip
    P, one Lanczos solve per parity block.

    Returns (vals, labels, states, max_residual) as sector_low does.  The
    two blocks of 2^(L-1) states come as CSR matrices from one kernel call
    on the open chain's orbit table (_sector_blocks), on rings too, since
    only P is used.  Each block gives its lowest min(count, d) levels, by
    ARPACK (_lanczos) or, for a block too small for it, a dense eigh; every
    pair passes checked_residual on its own block, and sector_low's merge
    (_merge_levels) keeps the lowest `count`.  Before the orbit table or
    any kernel is built, the larger of the build (the table and the
    entries) and the solve (the blocks, the Lanczos and sector vectors, the
    expanded states and eig_low's re-orthonormalized copies) is charged
    against physical memory (_check_memory).
    """
    h = _as_sum(h)
    _check_invariant(h, False, "the operator")
    L = h.length
    dim = 1 << L
    d = dim // 2
    n = min(count, d)
    # Krylov vectors per block: fewer than the full space's 40 run faster,
    # and 28 kept every window of the benchmark's spectra exact at 12-14
    # sites, where 20-24 dropped a copy of a multiplet now and then
    ncv = int(min(d, max(2 * n + 1, 28)))
    item = 8 if has_real_matrix(h) else 16
    x_masks = len({x for x, _ in h.items()})
    # the larger of two phases.  Building: the orbit table with its check,
    # and _sector_entries' half-size kernel rows, gathered rows and values
    # (tracemalloc: 25.5 bytes per state and x mask, real h, 14-18 sites).
    # Solving: the table and blocks, one solve's ARPACK vectors, the kept
    # and residual sector vectors, and the states with eig_low's
    # re-orthonormalized copies of a ground cluster as wide as the window.
    build = dim * (64 + x_masks * (3 * item + 8))
    solve = (dim * (64 + x_masks * (item + 4)) + (ncv + 5 * n + 4) * d * item
             + 4 * min(count, dim) * dim * 16)
    _check_memory(max(build, solve), "iterative", L,
                  f"2 sector blocks, {ncv} Lanczos vectors and the states")
    table = _sector_table(L, periodic=False)
    _check_table(table, False)
    norm_h = h.norm_bound()
    found, worst = [], 0.0
    for i, ((_, p), block) in enumerate(zip(table.keys,
                                            _sector_blocks(table, h))):
        if n > d - 2:   # ARPACK needs k < d - 1
            e, w = scipy.linalg.eigh(block.toarray(),
                                     subset_by_index=[0, n - 1])
        else:
            e, w = _lanczos(block, n, ncv)
        worst = max(worst, checked_residual(block @ w, w, e, norm_h))
        found += [(e[c], p, i, w[:, c]) for c in range(n)]
    del block   # it holds both blocks' entries
    return (*_merge_levels(table, found, count, atol), worst)


def _as_columns(states) -> np.ndarray:
    """Column matrix from a list of StateVectors or a 2D array."""
    if isinstance(states, np.ndarray):
        return states if states.ndim == 2 else states[:, None]
    return np.column_stack([s.amps if isinstance(s, StateVector) else s
                            for s in states])


def gram_matrix(states) -> np.ndarray:
    m = _as_columns(states)
    return m.conj().T @ m


def subspace_distance(states_a, states_b) -> float:
    """Operator-norm distance between the projectors onto two spans.

    For spans of equal dimension this is sin of the largest principal angle.
    It is computed as the norm of the component of one orthonormal basis
    outside the other span, which stays accurate for tiny angles where the
    cosine formulation loses half the digits.  Unequal dimensions give
    distance 1.
    """
    a = _as_columns(states_a)
    b = _as_columns(states_b)
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    resid = qb - qa @ (qa.conj().T @ qb)
    sines = np.linalg.svd(resid, compute_uv=False)
    return float(min(1.0, sines.max(initial=0.0)))

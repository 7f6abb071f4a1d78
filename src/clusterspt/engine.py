"""Numerical backend: states, the operator matrix, low spectra, degeneracy
clusters, and ground-space projections.

Basis convention: computational basis |b_1 b_2 ... b_L> with site 1 as
the most significant bit of the index.  A term X^x Z^z acts on a basis
index b as a sign (-1)^popcount(z & b) followed by the bit flip b ^ x, so
every operator sum is a sum of signed permutations.  One kernel,
`_mask_rows`, reads every matrix element off the masks, per x mask and
row.  Every product of an operator with states runs straight off its rows
(`_act`: `apply`, `expectations`, `resolve_sectors`), formed a range of
rows at a time (`_CHUNK_BYTES`), x masks in ascending order, with no matrix
built; `expectations` takes the states as contiguous columns, so that
each value is, bit for bit, the vdot with the CSR product.
`splitting_matrices` gathers the rows of all its operators at once, in
the same order, off their terms packed as one `pauli.TermTable`.
`operator_matrix` wraps the rows of every basis index into a CSR matrix,
which only the full-space solves of `eig_low` (an operator without the
spin flip) build.  Sector blocks come from the kernel
run once on the orbit representatives of a symmetry group, the spin flip P
times the translation T on a ring ("TP"), times the reflection R ("RP"),
or alone ("P"), from one orbit table per lattice and group
(`_sector_table`: each index's orbit and group element, and each sector's
character, columns and momentum -k twin), and one helper gives each row's
entries in its sector (`_sector_entries`).  On an open chain ("RP") the
group takes a third generator, a Pauli integral of motion Q of the
family itself, and the sectors pair up by another, Q_a, when there is
one, both read off the family's Pauli commutant (`_integrals`,
`pauli.commutant`, on pauli's GF(2) layer of symplectic vectors, as
`_decoupled` and `clifford.path_frame` are): the orbit table then keeps
a sign per index, and each sector's twin is the one Q_a maps it
onto.  One frame builder
(`_sector_frame`) gives both sector solvers their sectors, once per
family of operators: it checks that the group conserves every operator,
builds and checks the orbit table (`_check_table`), which holds the sector
dimensions and offsets and the sectors with a complex character
(`takes`), builds, on a ring whose operators are all real and
reflection-invariant (`_mirrored`), the real bases of the complex sectors
(`_real_bases`), and gives the twin each sector reuses
(`_SectorTable.reused`: the twin j < i of a real family, or of any
family Q_a pairs).  `family_low`
is the one entry for the low levels of a family H_r = sum_m coeffs[r, m]
ops[m] (a phase scan's couplings; the sector solves of `eig_low` are its
one-row call): it picks the solver (`_solver`, shared with `eig_low`),
reads the group off the operators once, and calls one of the two sector
solvers.  Each dense projection it builds is kept for later calls with
the same operators, keyed by their terms in order, in one memo (`_KEPT`)
of at most `_KEEP_BYTES`, least recently used out first: a later call
reads no group, builds no table, check, basis or block, and is charged
for memory as the first was.  `project_sectors` scatters the rows into
small dense blocks of every sector of its frame at once, real in those
bases.  `sector_low` solves them for every dense family, a chunk of
coupling rows per call: sector-major, per sector one stack of the
couplings' summed blocks, one LAPACK call per coupling (`_subset_eigh`,
scipy's subset eigh without its per-call workspace query) and one batched
residual check.  Past a scan's first coupling, a row first solves the
seeds, the sectors that held a level of the window before its chunk
(`_window_sectors`), and every other sector only where one LAPACK
Cholesky factorization (`_certify`) fails to put all its levels above
the row's window; a certified sector and its twin take no level.
`sector_lanczos` solves each row of an iterative family on the family's
one frame, building one sector's rows at a time as a CSR
block (`_sector_block`, on a ring the real U^H B U), solving it
(`_checked_low`: densely up to DENSE_BLOCK_STATES states, by Lanczos
above, retrying a Lanczos solve once with more Krylov vectors when a pair
misses its residual bound, `_checked_lanczos`), and dropping it.  Both
take their per-sector level counts from `_sector_counts`, sector_lanczos
with a smaller first pass (LANCZOS_LEVEL_FLOOR), which schedules own
sectors only: the call that solves an own sector also gives the twin
that reuses it, a real family's -k sector or a chain's Q_a image, the
solution mapped (`_SectorTable.twin_solution`), which sector_low checks
on the twin's own blocks.  Both merge in `_merge_levels`, which
keeps each level in sector form (`_SectorState`), expanded to 2^L
amplitudes straight from its orbit table.
An iterative `eig_low` of an h that some group conserves first reads
whether h's terms decouple (`_decoupled`): their anticommutation graph
(`pauli.TermTable.components`) a union of paths and even cycles, each
cycle opened into a path and its closing term, the opened terms
independent over GF(2), as for every open chain's H_C + lambda H_I, a
ring's H_C alone and a ring's H_C + lambda H_I (one cycle, or three when
3 divides L).  Such an h is solved in its Clifford frame (`_frame_low`,
`clifford.path_frame` and `PathFrame.closing_images`, proven on the masks
before they are used): each path is a small chain on its own qubits of
the frame, solved densely, and so is each opened cycle in every sector
of the cycles' central signs, on its qubits but the central one; the
levels are the lowest sums of one level per chain over the sectors,
kept in frame form (`_FrameState`).  Scans (`family_low`) and every h
that does not decouple keep the sector paths.  Both lazy levels form
their 2^L amplitudes on the first read of `amps`, by one rule
(`StateVector.amps`:
the subclass's `_form`, which drops what built them, then read-only and
kept); printing a level forms none.
All golden values depend on this ordering.
"""

from __future__ import annotations

import inspect
import os
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .clifford import CzCircuit, chain_images, path_frame
from .errors import ConvergenceError, DomainError, LengthMismatchError, ResourceLimitError
from .pauli import (OperatorSum, PauliString, TermTable, commutant,
                    kernel_within, reduced, row_echelon, symplectic_form)

DENSE_SITE_CAP = 12
APPLY_SITE_CAP = 24

# Relative tolerance for grouping eigenvalues into degenerate clusters.  The
# desk-scale spectra keep clusters at least gap/100 apart.
CLUSTER_RTOL = 1e-8

RESIDUAL_RTOL = 1e-9

_LANCZOS_MAXITER = 20000   # implicit restarts allowed to ARPACK

# The one working-memory budget of every chunked pass (1 MiB), one item
# (a coupling row, a range of basis indices, an operator) at least:
# - the coupling rows one sector_low call takes, their summed blocks of the
#   largest sector and their solutions of every sector (_Projection.rows).
#   At 12 levels an 8-site ring scan takes 37 couplings at once, a 10-site
#   one 8, a 12-site ring or chain one;
# - the rows _act forms at a time, per basis index an int32 column and a
#   value per x mask, and the gathered states.  Every product of the CLI's
#   operators up to 12 sites takes one range (under 256 B a row; a 12-site
#   YY read of one ground state takes 160 B); one YY expectation of an
#   18-site ring state peaked at 75.5 MB under tracemalloc with all 2^18
#   rows at once;
# - the amplitudes splitting_matrices gathers at a time (2^16 complex128):
#   all 96 probes of the 9-site audit at once would take 3 MiB, more than
#   the audit's own eigensolve.
_CHUNK_BYTES = 1 << 20

# Bytes of the projections family_low keeps between calls (4 MiB, each
# counted by _Projection.nbytes), least recently used out first: an 8-site
# ring's H_C and H_I take 0.08 MiB, a 10-site ring's 0.85 MiB, a 9-site
# chain's Hamiltonian 0.51 MiB; a 12-site ring's (10.9 MiB) or chain's
# (64.1 MiB) is not kept.  A byte bound, not a count: the projections span
# 800-fold.
_KEEP_BYTES = 4 << 20
_KEPT = OrderedDict()

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

    __slots__ = ("length", "_amps")

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
        self._amps = amps
        amps.setflags(write=False)

    @property
    def amps(self) -> np.ndarray:
        """The 2^L amplitudes, read-only.  A lazy level (_amps None: a
        _SectorState or _FrameState) forms them on the first read, by its
        _form, and keeps them."""
        if self._amps is None:
            amps = self._form()
            amps.setflags(write=False)
            self._amps = amps
        return self._amps

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
        if self._amps is None:
            return f"{type(self).__name__}(L={self.length}, not formed)"
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
    order a CSR product with operator_matrix(op) adds them.  The rows are
    formed a range at a time, each range's kernel rows and gathered states
    within _CHUNK_BYTES; the product is formed in the gathered copy, so
    besides the result one range's temporaries are open at a time."""
    dim = vecs.shape[0]
    _check_length(op, dim)
    dtype = np.float64 if has_real_matrix(op) else np.complex128
    vecs = vecs.astype(np.result_type(dtype, vecs), copy=False)
    out = np.zeros_like(vecs)
    x_masks = len({x for x, _ in op.items()})
    per_row = x_masks * (4 + np.dtype(dtype).itemsize) + vecs[0].nbytes
    step = max(1, _CHUNK_BYTES // max(1, per_row))
    shape = (-1,) + (1,) * (vecs.ndim - 1)
    for lo in range(0, dim, step):
        indices, data = _mask_rows(
            op, np.arange(lo, min(lo + step, dim), dtype=np.int32))
        part = out[lo:lo + step]
        for k in range(indices.shape[1]):
            gathered = np.take(vecs, indices[:, k], axis=0)
            # data first, as in the CSR product: a fused complex multiply
            # is not symmetric in its operands
            np.multiply(data[:, k].reshape(shape), gathered, out=gathered)
            part += gathered
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
    # the vdots on contiguous columns, which np.vdot adds as it adds one
    # state's (a strided column rounds otherwise); the gathers of _act run
    # faster on rows
    vecs, moved = np.asfortranarray(vecs), np.asfortranarray(moved)
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


def has_real_matrix(op) -> bool:
    """True iff every matrix element is real in the computational basis, each
    stored coefficient's imaginary part at most 1e-12.

    Each X^x Z^z block is a real signed permutation, so the matrix is real
    exactly when every stored coefficient is real.  This is the operator-level
    witness of time-reversal invariance.
    """
    op = _as_sum(op)
    return all(abs(c.imag) <= 1e-12 for _, c in op.items())


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


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Low-lying spectrum with its degeneracy structure.

    eigenvalues are ascending; the ground cluster is every eigenvalue within
    CLUSTER_RTOL * max(1, |E0|) of E0, and each next one within RESIDUAL_RTOL
    * max(1, sum|coeff|) of the last counted, so that rounding never splits
    a pair at the cluster's edge; gap is the first eigenvalue above the
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
                     norm_h) -> float | np.ndarray:
    """Largest residual ||Hv - Ev|| over the columns, given hv = H @ vecs.
    For stacks of pairs, one per coupling row r (vecs (rows, d, n), vals
    (rows, n), norm_h (rows,)), each row's largest, as an array.

    Raises ConvergenceError when one exceeds RESIDUAL_RTOL * max(1,
    norm_h), norm_h being sum|coeff| of that row's H; every eigensolver
    path reports through here.
    """
    residuals = np.linalg.norm(hv - vecs * np.asarray(vals)[..., None, :],
                               axis=-2)
    worst = residuals.max(axis=-1)
    bound = RESIDUAL_RTOL * np.maximum(1.0, norm_h)
    over = np.flatnonzero(worst > bound)
    if over.size:
        raise ConvergenceError(
            f"residual {np.ravel(worst)[over[0]]:.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * max(1, ||H||) = "
            f"{np.ravel(bound)[over[0]]:.3e}", residuals=residuals)
    return worst if worst.ndim else float(worst)


# LAPACK's ?syevr or ?heevr and the workspace sizes it asks for, per
# (dtype, d), filled by _subset_eigh
_EVR = {}


def _subset_eigh(h: np.ndarray, n: int) -> tuple:
    """(e, w): the lowest n eigenpairs of the real symmetric or complex
    Hermitian d x d array h (its lower triangle), ascending, bit for bit
    what scipy.linalg.eigh(h, subset_by_index=[0, n - 1]) gives: one call
    of the LAPACK driver eigh picks, ?syevr or ?heevr, with the workspace
    sizes eigh queries on every call, here queried once per (dtype, d).
    The vectors are in Fortran order, as LAPACK gives them.  Raises
    ConvergenceError when LAPACK reports a failure."""
    d = h.shape[0]
    key = (h.dtype.char, d)
    if key not in _EVR:
        real = h.dtype.kind != "c"
        driver, query = scipy.linalg.get_lapack_funcs(
            ("syevr", "syevr_lwork") if real else ("heevr", "heevr_lwork"),
            (h,))
        *sizes, info = query(n=d, lower=True)
        if info:
            raise ConvergenceError(f"LAPACK workspace query failed: {info}")
        _EVR[key] = driver, dict(zip(
            ("lwork", "liwork") if real else ("lwork", "lrwork", "liwork"),
            (int(x.real) for x in sizes)))
    driver, work = _EVR[key]
    e, w, m, _, info = driver(h, compute_v=1, range="I", il=1, iu=n,
                              lower=True, **work)
    if info:
        raise ConvergenceError(
            f"LAPACK {driver.__name__} failed on a "
            f"{d} x {d} block: info {info}")
    return e[:m], w[:, :m]


def eig_low(h, count: int = 6, method: str = "auto") -> SpectrumResult:
    """Lowest `count` eigenpairs of a Hermitian operator sum.

    The method is checked and resolved by _solver, which family_low shares:
    auto is dense up to DENSE_SITE_CAP sites, iterative above.  An h that
    some symmetry group conserves is family_low's one-row call (unless it
    is solved iterative in its Clifford frame, below), which reads
    the group off h's coefficients with the test project_sectors applies
    (_implied_leak), in this order: translation x spin flip when h is
    invariant under both T and P, reflection x spin flip when under R and
    P, the spin flip alone when only under P.
    dense: L <= 12, per symmetry sector when h is invariant: a ring's (k,
    p) blocks, all real when h is real and R conserves it, an open chain's
    eight (r, p, q) blocks of about 2^(L-3) states, q the eigenvalue of
    h's own Pauli integral Q (_integrals), of which four are the Q_a
    twins of the other four when L != 0 mod 3.
    Each dense sector block gives sector_low as many of its lowest levels
    as the merged window can use (_sector_counts).  The merged window is
    exactly the lowest `count`.
    iterative: L <= 24.  An h that some group conserves and whose terms
    decouple (_decoupled: their anticommutation graph is a union of
    paths and even cycles, each cycle opened into a path, the opened
    terms independent over GF(2), each closing term's image allowed, as
    for every open chain's H_C + lambda H_I, a ring's H_C alone and a
    ring's H_C + lambda H_I at 4-9 sites and at 3k sites) is solved in its
    Clifford frame (_frame_low): one dense solve of each path's chain,
    and of each cycle's chain per value of the central signs it reads,
    of at most DENSE_BLOCK_STATES states, the lowest `count` sums of their
    levels over the 2^m sectors of the m cycles' signs, with every copy of
    a degenerate level.  Otherwise, whenever h is
    invariant under P, one solve per
    sector of the same group, one sector at a time (sector_lanczos): a
    ring's (k, p) blocks of about 2^L / 2L states, real when h is real and
    R conserves it, with each -k sector reusing the solution of k, an
    open chain's four own (r, p, q) blocks, each Q_a twin reusing the
    solution of its source, or, where Q has no partner Q_a (L = 0 mod 3),
    its four (r, p) blocks, or the spin-flip blocks; a CSR block of
    more than DENSE_BLOCK_STATES states is solved by implicitly restarted
    Lanczos, a smaller one densely, each sector asked for the levels of
    _sector_counts with LANCZOS_LEVEL_FLOOR.  An h without P is solved on
    the full space: one dense matrix, or Lanczos on its CSR operator
    matrix (_checked_low, as a sector block is).
    A run whose memory estimate exceeds physical memory raises
    ResourceLimitError before allocating anything large (project_sectors
    charges the dense blocks, family_low the largest CSR block and the
    states, _frame_low the states).  Every
    reported pair must satisfy ||Hv - Ev|| <= RESIDUAL_RTOL * max(1,
    sum|coeff|) (see checked_residual).  The iterative path guarantees each
    returned pair is a true eigenpair but, like any Krylov method, may
    return fewer copies of a level degenerate inside one block (or, for an
    h without P, on the full space) than exist; ask for enough eigenvalues
    (count comfortably above the expected multiplicity) or use the dense
    path when exact multiplicities matter.
    The levels are returned as the solver gives them, orthonormal to
    rounding: a sector solve's in sector form (_SectorState), a frame
    solve's in frame form (_FrameState), their amplitudes formed only
    when read, a full-space solve's as StateVectors.
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
    method = _solver(method, L, count)

    # an h that no symmetry group conserves is solved on the full space;
    # an iterative one that decouples, in its Clifford frame
    group = _symmetry_group(h)
    parts = (_decoupled(h) if group is not None and method == "iterative"
             else None)
    if parts is not None:
        vals, states, max_residual = _frame_low(h, count, *parts)
    elif group is not None:
        [[(vals, _, states, max_residual)]] = family_low([h], [[1.0]], count,
                                                         method)
    else:
        # a wide Krylov subspace improves capture of degenerate multiplets
        ncv = (None if method == "dense"
               else int(min(dim, max(4 * count + 1, 40))))
        item = 8 if has_real_matrix(h) else 16
        x_masks = len({x for x, _ in h.items()})
        vectors = dim if ncv is None else ncv
        need = dim * (x_masks * (item + 4) + vectors * item)
        _check_memory(need, method, L, f"CSR matrix plus {vectors} vectors")
        m = operator_matrix(h)
        # the residuals come before the complex cast: a real matrix times
        # complex vectors copies
        vals, vecs, max_residual = _checked_low(m, count, ncv, h.norm_bound(),
                                                need, L)
        vals = np.asarray(vals, dtype=float)
        states = tuple(StateVector(L, vecs[:, i]) for i in range(vals.size))
        del m, vecs

    width = CLUSTER_RTOL * max(1.0, abs(vals[0]))
    degeneracy = int(np.sum(vals <= vals[0] + width))
    # a level within rounding of the last counted one joins it, so that a
    # cluster that ends at the width is counted whole, not split by rounding
    step = RESIDUAL_RTOL * max(1.0, h.norm_bound())
    while (degeneracy < vals.size
           and vals[degeneracy] - vals[degeneracy - 1] <= step):
        degeneracy += 1
    if degeneracy < vals.size:
        gap = float(vals[degeneracy] - vals[0])
    else:
        gap = float("nan")
    return SpectrumResult(
        eigenvalues=vals, states=states, ground_degeneracy=degeneracy,
        gap=gap, max_residual=max_residual, method=method)


def _solver(method: str, length: int, count: int) -> str:
    """The solver, "dense" or "iterative", of `count` levels on `length`
    sites: "auto" takes dense up to DENSE_SITE_CAP sites; raises
    ResourceLimitError above the dense cap (dense) or APPLY_SITE_CAP
    (iterative) and DomainError for an unknown method.  An iterative
    solve of more than 2^L - 2 levels is dense, since ARPACK needs k <
    dim - 1.  Iterative is the sector Lanczos path (sector_lanczos) for
    family_low, and for eig_low too unless h's terms decouple, which
    eig_low then solves in their Clifford frame (_frame_low)."""
    if method == "auto":
        method = "dense" if length <= DENSE_SITE_CAP else "iterative"
    if method == "dense" and length > DENSE_SITE_CAP:
        raise ResourceLimitError(
            f"dense diagonalization capped at {DENSE_SITE_CAP} sites, "
            f"got {length}")
    if method == "iterative" and length > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"iterative diagonalization capped at {APPLY_SITE_CAP} sites, "
            f"got {length}")
    if method not in ("dense", "iterative"):
        raise DomainError(f"unknown method {method!r}")
    if method == "iterative" and count > (1 << length) - 2:
        if length > DENSE_SITE_CAP:
            raise ResourceLimitError("count too close to the full dimension")
        method = "dense"
    return method


def family_low(ops, coeffs, count: int, method: str = "auto",
               atol: float = 1e-8):
    """Lowest `count` levels of H_r = sum_m coeffs[r, m] * ops[m] for every
    coupling row r of `coeffs`, yielded a chunk of rows at a time, in row
    order: per row (vals, labels, states, max_residual) as sector_low
    gives it.

    The solver is eig_low's (_solver).  Coefficients of complex dtype whose
    imaginary parts all vanish are taken as real; any other imaginary part
    raises DomainError.  Both solvers take the sectors of one group, read
    once off the operators: the first that conserves them all, by
    _symmetry_group's test (translation x spin flip, then reflection x
    spin flip, else the spin flip alone, which _sector_frame checks),
    split on an open chain by the family's Pauli integral Q and paired by
    Q_a (_integrals).
    Dense: the operators are projected once per process into those sectors
    (project_sectors), split by Q whether or not Q_a pairs them.  The
    projection is kept in _KEPT, keyed by the operators' terms in order,
    while the projections kept stay within _KEEP_BYTES (_keep); a later
    call with the same terms takes it, group and checks included, without
    reading the group again, and only its memory charge runs again
    (_Projection.charge), so a call under less memory still raises.
    Each chunk of as many rows as the projection's budget holds
    (_Projection.rows) is one sector_low call, each row's residuals
    checked against sum_m |coeffs[r, m]| ||ops[m]||, with ||op|| =
    sum|coeff| (norm_bound), which bounds sum|coeff| of H_r.  Each chunk
    after the first is seeded with the own sectors of the previous
    chunk's last window (_window_sectors, its states' sectors through
    projected.twins), so that a row's max_residual covers the blocks
    solved or reused for it, not those certified above its window; the
    levels, labels and states are those of one-row calls.  Iterative:
    the integrals are read once, and Q kept only where Q_a pairs its
    sectors; each row's sum is charged (_lanczos_charge, _check_memory),
    the first row before any orbit table is built, then the family's
    sectors are built once (_sector_frame) and each row is one
    sector_lanczos call on them, a chunk of its own.  eig_low's sector
    solves are the one-row call, unseeded, which solves every own sector
    and certifies none.  The solves start, and raise, on the first chunk's
    read."""
    ops = [_as_sum(op) for op in ops]
    coeffs = np.asarray(coeffs)
    if np.any(np.imag(coeffs)):
        raise DomainError("coupling rows must be real")
    coeffs = coeffs.real
    L = ops[0].length
    iterative = _solver(method, L, count) == "iterative"
    # _mask_rows adds each row's terms in this order, so that a kept
    # projection is, bit for bit, the one a rebuild would give
    key = tuple((op.length, tuple(op.items())) for op in ops)
    projected = None if iterative else _KEPT.get(key)
    if projected is None:
        group = next((g for g in ("TP", "RP")
                      if all(_symmetry_group(op, (g,)) for op in ops)), "P")
    if iterative:
        mirrored = _mirrored(ops, group)
        # Q alone splits no Lanczos block: a solve costs about as much at
        # half the states, so eight unpaired blocks cost more than four
        # (12-site open chain, five couplings: 0.37 s against 0.28 s)
        integrals = _integrals(ops, group)
        if integrals[1] is None:
            integrals = (None, None)
        frame = None
        for row in coeffs:
            h = sum((op * c for op, c in zip(ops[1:], row[1:])),
                    ops[0] * row[0])
            need = _lanczos_charge(h, group, count, mirrored, integrals[0])
            _check_memory(need, "iterative", L,
                          f"the largest sector block, {_krylov(count, 1 << L)}"
                          " Lanczos vectors and the states")
            frame = frame or _sector_frame(ops, group, mirrored, integrals)
            yield [sector_lanczos(h, count, frame, need, atol=atol)]
        return
    if projected is None:
        projected = project_sectors(ops, group)
        _keep(key, projected)
    else:
        _KEPT.move_to_end(key)
        _check_memory(*projected.charge)
    norms = np.abs(coeffs) @ [op.norm_bound() for op in ops]
    chunk = projected.rows(count)
    seeds = None
    for start in range(0, len(coeffs), chunk):
        part = slice(start, start + chunk)
        levels = sector_low(projected, coeffs[part], count, norms[part],
                            atol=atol, seeds=seeds)
        seeds = _window_sectors(projected.twins, levels[-1][2])
        yield levels


def _keep(key: tuple, projected: "_Projection") -> None:
    """Keep `projected` in _KEPT under `key`, evicting the least recently
    used projections until the kept ones' nbytes sum to at most
    _KEEP_BYTES; one larger than that alone is not kept."""
    if projected.nbytes > _KEEP_BYTES:
        return
    _KEPT[key] = projected
    while sum(p.nbytes for p in _KEPT.values()) > _KEEP_BYTES:
        _KEPT.popitem(last=False)


# whether scipy's eigsh takes an `rng` (scipy 1.15 on), read once
_EIGSH_TAKES_RNG = "rng" in inspect.signature(
    scipy.sparse.linalg.eigsh).parameters


def _lanczos(m, count: int, ncv: int) -> tuple:
    """Lowest `count` eigenpairs (vals, vecs) of the Hermitian sparse matrix
    m, ascending, by implicitly restarted Lanczos (ARPACK) on the product
    m @ x, with ncv Krylov vectors, tol=0 and a fixed start vector, which
    keeps the output deterministic.  Where scipy's eigsh takes an `rng`, the
    vector it draws to go on past an invariant subspace, which a level
    degenerate inside the block can give, comes from a fixed seed too."""
    seeded = {"rng": np.random.default_rng(1)} if _EIGSH_TAKES_RNG else {}
    # ARPACK multiplies by m itself: scipy would wrap m so that each
    # product goes through its one-column matmat, which rounds the same
    product = scipy.sparse.linalg.LinearOperator(
        m.shape, matvec=lambda x: m @ x, dtype=m.dtype)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            product, k=count, which="SA", maxiter=_LANCZOS_MAXITER, tol=0,
            ncv=ncv, v0=np.random.default_rng(0).standard_normal(m.shape[0]),
            **seeded)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge in {_LANCZOS_MAXITER} iterations",
            residuals=getattr(exc, "eigenvalues", None)) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _checked_lanczos(m, count: int, ncv: int, norm_h: float, need: int,
                     length: int) -> tuple:
    """(vals, vecs, max_residual): _lanczos(m, count, ncv) whose pairs pass
    checked_residual against norm_h.  ARPACK can call a Ritz pair converged
    above that bound; such a solve is retried once, deterministically, with
    twice the Krylov vectors capped at the dimension, before the
    ConvergenceError stands.  `need` is the memory charge of the first
    solve on `length` sites; the retry's extra vectors are charged on top
    of it (_check_memory) before it runs."""
    vals, vecs = _lanczos(m, count, ncv)
    try:
        return vals, vecs, checked_residual(m @ vecs, vecs, vals, norm_h)
    except ConvergenceError:
        wider = min(2 * ncv, m.shape[0])
        if wider == ncv:
            raise
    del vecs
    _check_memory(need + (wider - ncv) * m.shape[0] * m.dtype.itemsize,
                  "iterative", length, f"a Lanczos retry with {wider} vectors")
    vals, vecs = _lanczos(m, count, wider)
    return vals, vecs, checked_residual(m @ vecs, vecs, vals, norm_h)


def _checked_low(m, count: int, ncv: int | None, norm_h: float, need: int,
                 length: int) -> tuple:
    """(vals, vecs, max_residual) of the lowest `count` pairs of the sparse
    Hermitian m, every pair through checked_residual against norm_h: one
    dense subset eigh (_subset_eigh) when ncv is None, else
    _checked_lanczos with ncv Krylov vectors, `need` and `length`.  The
    full-space solves of eig_low and each block of sector_lanczos take it,
    each with its own choice of ncv."""
    if ncv is not None:
        return _checked_lanczos(m, count, ncv, norm_h, need, length)
    vals, vecs = _subset_eigh(m.toarray(), count)
    return vals, vecs, checked_residual(m @ vecs, vecs, vals, norm_h)


def splitting_matrices(states, ops) -> np.ndarray:
    """(n, d, d) array of V^H O_m V for the n operators of `ops`, V the
    columns of `states` (StateVectors or a 2D array): every probe's
    first-order splitting matrix over a ground space, gathered for many
    operators at once (LengthMismatchError when an operator's length is not
    the states').  `ops` is a pauli.TermTable or a sequence of strings and
    sums, which is packed into one.

    The operators go in batches whose gathered rows hold at most
    _CHUNK_BYTES of complex amplitudes, one operator at least; per batch
    (_gathered_splittings) the terms are grouped per operator by x mask in
    ascending order as _mask_rows groups them, each group's row data,
    sum_z c (-1)^popcount(z & (r ^ x)), multiplies the gathered V[r ^ x]
    of all groups at once, an operator's groups are added in order, as
    _act adds them, and one batched V^H @ moved gives every matrix."""
    basis = _as_columns(states)
    dim, d = basis.shape
    if not isinstance(ops, TermTable):
        ops = list(ops)
        if not ops:
            return np.zeros((0, d, d), dtype=np.complex128)
        ops = TermTable(ops)
    _check_length(ops, dim)
    n = ops.bounds.size - 1
    # every operator's terms by x mask, ascending, in term order within one:
    # an operator's terms keep its own columns bounds[m]:bounds[m + 1]
    owner = np.repeat(np.arange(n), np.diff(ops.bounds))
    x, z = ops.masks.astype(np.int32)
    order = np.lexsort((np.arange(owner.size), x, owner))
    x, z, coeff = x[order], z[order], ops.coeff[order]
    real = np.bincount(owner, np.abs(coeff.imag) > 1e-12, minlength=n) == 0
    new_group = np.ones(owner.size, dtype=bool)
    new_group[1:] = (owner[1:] != owner[:-1]) | (x[1:] != x[:-1])
    grouped = (owner, x, z, coeff, real[owner], new_group)
    step = max(1, _CHUNK_BYTES // (16 * dim * d))
    out = np.zeros((n, d, d), dtype=np.complex128)
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo, hi = ops.bounds[start], ops.bounds[stop]
        if lo < hi:
            _gathered_splittings(basis, [t[lo:hi] for t in grouped],
                                 out[start:stop], start)
    return out


def _gathered_splittings(basis: np.ndarray, grouped: list, out: np.ndarray,
                         first: int) -> None:
    """Write V^H O_m V into out[m - first] for the operators m that own the
    terms `grouped` = (owner, x, z, coeff, real, new_group), arrays of one
    entry per term, grouped as splitting_matrices groups them (new_group
    marks each x-mask group's first term), from one gather of the rows of
    all their groups; an operator without terms leaves its zeros.  The
    coefficients of an operator whose matrix is real (`real`,
    has_real_matrix) enter as their real parts, real numbers when every
    operator of the batch is real."""
    owner, x, z, coeff, real, new_group = grouped
    data = coeff.real if real.all() else np.where(real, coeff.real, coeff)
    term_group = np.cumsum(new_group) - 1
    rows = np.arange(basis.shape[0], dtype=np.int32)
    cols = rows ^ x[new_group][:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(cols[term_group] & z[:, None]) & 1)
    terms = data[:, None] * signs
    del signs
    # each group's terms summed as _mask_rows sums them
    last = _run_sums(terms, term_group)
    data = terms if last.size == z.size else terms[last]
    moved = np.take(basis, cols, axis=0).astype(
        np.result_type(data, basis), copy=False)
    # data first, as in _act
    np.multiply(data[:, :, None], moved, out=moved)
    # each operator's groups summed as _act sums them
    owner = owner[new_group] - first
    last = _run_sums(moved, owner)
    out[owner[last]] = basis.conj().T @ (moved if last.size == owner.size
                                         else moved[last])


def _run_sums(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Sum each run of rows with equal `owner` into the run's last row, in
    order, and return those rows' indices: ((a + b) + c), bit for bit what
    adding the rows one by one to zeros gives (addition commutes; np.add
    reductions may pair them otherwise)."""
    for g in np.flatnonzero(owner[1:] == owner[:-1]) + 1:
        rows[g] += rows[g - 1]
    return np.flatnonzero(np.diff(owner, append=-1))


def ground_projector(spectrum: SpectrumResult, op) -> np.ndarray:
    """d x d matrix <v_a|O|v_b> over the ground cluster: the first-order
    splitting matrix of degenerate perturbation theory, the one-operator
    case of splitting_matrices."""
    return splitting_matrices(spectrum.ground_basis, [op])[0]


def splitting_classes(ms: np.ndarray) -> tuple:
    """(classes, norms) of a stack of n splitting matrices (n, d, d), in
    one array pass: each matrix's Frobenius norm and its class, 'zero'
    when the norm is at most 1e-10, else 'scalar' when its traceless part's
    norm is, else 'non-scalar'."""
    def norm(a):
        """Each matrix's Frobenius norm, summed as np.linalg.norm sums it."""
        flat = a.reshape(len(a), d * d)
        return np.sqrt(np.vecdot(flat.real, flat.real)
                       + np.vecdot(flat.imag, flat.imag))

    ms = np.asarray(ms)
    d = ms.shape[-1]
    norms = norm(ms)
    scalar = norm(ms - (np.trace(ms, axis1=1, axis2=2) / d)[:, None, None]
                  * np.eye(d)) <= 1e-10
    classes = np.where(norms <= 1e-10, "zero",
                       np.where(scalar, "scalar", "non-scalar"))
    return classes, norms


def splitting_class(m: np.ndarray) -> str:
    """Classify a splitting matrix as 'zero', 'scalar', or 'non-scalar':
    the one-matrix case of splitting_classes."""
    return str(splitting_classes(np.asarray(m)[None])[0][0])


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


def _reflect(b, length: int):
    """The reflection R (site i to site L+1-i) on basis indices or Pauli
    masks b: the L bits in reverse order."""
    out = b & 0
    for i in range(length):
        out |= ((b >> i) & 1) << (length - 1 - i)
    return out


def _generator(group: str, length: int) -> tuple:
    """(move, order) of the second generator of an orbit table's group, the
    spin flip P times that generator's cyclic group: the translation T
    (order L) for "TP", the reflection R (order 2) for "RP", and none
    (order 1) for "P", the spin flip alone."""
    if group == "TP":
        return _rotate, length
    if group == "RP":
        return _reflect, 2
    if group == "P":
        return None, 1
    raise ValueError(f"unknown symmetry group {group!r}")


@dataclass(frozen=True)
class _SectorTable:
    """The orbits of one lattice's basis indices under a group G^j P^s Q^t,
    and its sectors: P the spin flip, G the second generator of `group`
    (_generator), of order n: the translation T (n = L) on a ring, the
    reflection R (n = 2), or none (n = 1); and Q, on an open chain only,
    the Pauli integral of motion of _integrals (t = 0 alone without one).

    G^j P^s Q^t is coded g = 2j + s + 2n t; P b = b ^ (2^L - 1), T b =
    _rotate(b, L), R b = _reflect(b, L), and Q|b> = c (-1)^popcount(z & b)
    |b ^ x> for Q = c X^x Z^z (_pauli_action), applied first.  reps holds
    each orbit's smallest index r, ascending; size[n] counts the states of
    orbit n; orbit[b] (int32) is the position of b's orbit in reps;
    elem[b] (int8) is the g_b with g_b |b> = sign[b] |r>, sign (int8, +-1)
    None where no Q takes part (every sign +1).  Sector i, keys[i] = (k,
    p) in ascending k then p = +1, -1, or (k, p, q) with q = +1, -1 last,
    has the character chars[i, 2j + s + 2n t] = e^{2 pi i k j / n} p^s q^t
    (so r = (-1)^k under R), cols[i, n] is the column of reps[n]'s orbit
    sum in it, -1 where the sum vanishes, and twin[i] is the index of its
    twin sector, i itself for none.  integrals = (Q, Q_a), None where
    absent.  Without Q_a the twin is (-k mod n, p), i itself where 2k = 0
    mod n, which _check_table proves has the conjugate character and the
    same columns; swap is None.  With Q_a (_integrals) the twin is the
    sector Q_a maps sector i onto, and swap = (mate, phase), over the
    columns of every sector, sector-major (first): Q_a |c> = phase[c]
    |mate[c]> in the twin, which _check_table proves as well.
    """

    length: int
    group: str
    reps: np.ndarray
    size: np.ndarray
    orbit: np.ndarray
    elem: np.ndarray
    keys: tuple
    chars: np.ndarray
    cols: np.ndarray
    twin: np.ndarray
    sign: np.ndarray | None = None
    integrals: tuple = (None, None)
    swap: tuple | None = None

    @property
    def order(self) -> int:
        """The order n of the second generator."""
        return _generator(self.group, self.length)[1]

    @cached_property
    def dims(self) -> np.ndarray:
        """Each sector's dimension, the orbits whose sum survives in it."""
        return np.count_nonzero(self.cols >= 0, axis=1)

    @cached_property
    def first(self) -> np.ndarray:
        """Each sector's offset in the columns of every sector, sector-major
        as project_sectors scatters them and _real_bases builds them."""
        return np.cumsum(self.dims) - self.dims

    @cached_property
    def takes(self) -> np.ndarray:
        """Per sector, whether its character is complex (2k != 0 mod n, only
        on a ring): in real bases, the sectors whose blocks change basis by
        the unitary U of _real_bases, which is 1 in every other one."""
        return np.array([2 * key[0] % self.order != 0 for key in self.keys])

    def reused(self, real: bool) -> tuple:
        """Per sector i, the sector j whose solution it reuses, -1 for none:
        its twin j when j < i, and, for a (-k) twin, `real`, every operator
        having a real matrix (has_real_matrix), so that the blocks of i are
        the conjugates of those of j; a Q_a twin's blocks are those of j in
        the columns of swap for every operator Q_a commutes with, real or
        not.  Both sector solvers reuse by this rule, through
        _sector_frame."""
        real = real or self.swap is not None
        return tuple(int(j) if real and j < i else -1
                     for i, j in enumerate(self.twin))

    def twin_solution(self, i: int, w: np.ndarray) -> np.ndarray:
        """Sector i's vectors, (d, n), from those w of the twin it reuses
        (reused): a signed column permutation of w, conjugated for a -k
        twin, phase[c] w[mate[c]] over sector i's columns c of swap for a
        Q_a twin (Q_a |mate[c]> = phase[c] |c>, as Q_a^2 = 1)."""
        if self.swap is None:
            return w.conj()
        mate, phase = self.swap
        part = slice(self.first[i], self.first[i] + self.dims[i])
        return phase[part, None] * w[mate[part]]


def _pauli_action(p: PauliString) -> tuple:
    """(x, z, c) with p|b> = c (-1)^popcount(z & b) |b ^ x>, c the
    coefficient of X^x Z^z in p (the convention of _mask_rows)."""
    return p.x_mask, p.z_mask, p.phase


def _pauli_signs(b: np.ndarray, z: int, c) -> np.ndarray:
    """c (-1)^popcount(z & b) as int8 for every index of b, c = +-1: the
    sign a real Pauli string (_pauli_action) gives each basis index."""
    odd = (np.bitwise_count(b & z) & 1).astype(np.int8)
    return (1 - 2 * odd) * np.int8(round(c.real))


def _twin_relations(q: PauliString, qa: PauliString):
    """Per generator s of R x P x Q, coded 2, 1 and 4 (_SectorTable), the
    triple (s, s', mu) with Q_a s Q_a = mu s', s' a group element and mu =
    +-1, from the strings alone: Q_a P Q_a = +-P and Q_a Q Q_a = +-Q by
    (anti)commutation, Q_a R Q_a = R W with W = (R Q_a R) Q_a.  None when
    W is not +- one of 1, P, Q, PQ: then Q_a does not map sectors onto
    sectors.  A state of character chi in (r, p, q) goes to one of
    character mu chi(s') at s."""
    L = q.length
    p = PauliString.from_letters("X" * L)
    # R Q_a R: the letters in reverse order, the phase kept
    w = PauliString(L, qa.phase_exp, _reflect(qa.x_mask, L),
                    _reflect(qa.z_mask, L)) * qa
    for code in range(4):
        s, t = code & 1, code >> 1
        g = PauliString.identity(L)
        g = g * p if s else g
        g = g * q if t else g
        if (g.x_mask, g.z_mask) == (w.x_mask, w.z_mask) \
                and (w.phase_exp - g.phase_exp) % 2 == 0:
            mu = 1 if w.phase_exp == g.phase_exp else -1
            return ((2, 2 + s + 4 * t, mu),
                    (1, 1, 1 if qa.commutes_with(p) else -1),
                    (4, 4, 1 if qa.commutes_with(q) else -1))
    return None


def _sector_table(length: int, group: str, integrals=(None, None)
                  ) -> _SectorTable:
    """The orbit table (_SectorTable) of `length` sites under `group`, with
    the Pauli integral Q of integrals = (Q, Q_a) as a third generator and
    Q_a's twins when they are given (_integrals; "RP" only)."""
    if length > APPLY_SITE_CAP:
        raise ResourceLimitError(
            f"symmetry sectors capped at {APPLY_SITE_CAP} sites, got {length}")
    q, qa = integrals
    dim = 1 << length
    move, order = _generator(group, length)
    flips = [None] if q is None else [None, _pauli_action(q)]

    def images(b):
        """Yield (index, sign) of G^j P^s Q^t |b> for every g = 2j + s +
        2n t, the sign None for +1."""
        for flip in flips:
            img, sign = b, None
            if flip is not None:
                x, z, c = flip
                img, sign = b ^ x, _pauli_signs(b, z, c)
            for j in range(order):
                if j:
                    img = move(img, length)
                yield img, sign
                yield img ^ (dim - 1), sign

    rep = np.arange(dim, dtype=np.int32)
    elem = np.zeros(dim, dtype=np.int8)
    sign = None if q is None else np.ones(dim, dtype=np.int8)
    for g, (img, s) in enumerate(images(rep.copy())):
        smaller = img < rep
        rep[smaller] = img[smaller]
        elem[smaller] = g
        if s is not None:
            sign[smaller] = s[smaller]
    is_rep = rep == np.arange(dim)
    reps = np.flatnonzero(is_rep)
    orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[rep]
    keys, chars = [], []
    for k in range(order):
        # the phase reduced mod 2 pi keeps the characters multiplicative to
        # rounding; 2k = 0 mod n (every sector of R or P alone, and k = 0
        # and L/2 on a ring) gives a real character, so the blocks and
        # solves stay real
        phase = 2 * np.pi * (k * np.arange(order) % order) / order
        twist = np.cos(phase) if 2 * k % order == 0 else np.exp(1j * phase)
        for p in (1, -1):
            base = np.outer(twist, (1, p)).ravel()
            for qv in (None,) if q is None else (1, -1):
                keys.append((k, p) if qv is None else (k, p, qv))
                chars.append(base if qv is None
                             else np.concatenate([base, qv * base]))
    chars = np.array(chars)
    # an orbit sum survives iff chi(h) times the sign h gives the
    # representative is 1 on its stabilizer, where the sum is
    # |stabilizer| > 0
    fixed = np.array([(img == reps) if s is None else (img == reps) * s
                      for img, s in images(reps)])
    alive = (chars @ fixed).real > 0.5
    some = alive.any(axis=1)
    alive = alive[some]
    cols = np.where(alive, np.cumsum(alive, axis=1) - 1, -1).astype(np.int32)
    keys = [key for key, s in zip(keys, some) if s]
    chars = chars[some]
    index = {key: i for i, key in enumerate(keys)}
    relations = None if qa is None else _twin_relations(q, qa)
    if relations is None:
        twin = np.array([index.get((-key[0] % order, *key[1:]), -1)
                         for key in keys])
        return _SectorTable(length, group, reps, np.bincount(orbit), orbit,
                            elem, tuple(keys), chars, cols, twin, sign,
                            integrals)
    # the twin of sector i has character mu chi_i(s') at each generator s
    # (_twin_relations)
    have = chars[:, [s for s, _, _ in relations]]
    want = np.stack([mu * chars[:, s2] for _, s2, mu in relations], axis=1)
    twin = np.array([next((j for j in range(len(keys))
                           if np.abs(have[j] - w).max() < 0.5), -1)
                     for w in want])
    # Q_a takes the representative r of column c, where |c> is 1 / sqrt(N),
    # to c_a (-1)^popcount(z_a & r) |r ^ x_a>, where the twin's column
    # mate[c], the orbit of r ^ x_a, is chi_twin(g) sign / sqrt(N) (g and
    # sign those of r ^ x_a): every factor of the phase is +-1
    x, z, c = _pauli_action(qa)
    moved = reps ^ x
    signs = _pauli_signs(reps, z, c) * sign[moved]
    mate, phase = [], []
    for i, j in enumerate(twin):
        live = np.flatnonzero(cols[i] >= 0)
        mate.append(cols[j, orbit[moved[live]]])
        phase.append(signs[live] * np.rint(chars[j, elem[moved[live]]].real)
                     .astype(np.int8))
    return _SectorTable(length, group, reps, np.bincount(orbit), orbit, elem,
                        tuple(keys), chars, cols, twin, sign, integrals,
                        (np.concatenate(mate), np.concatenate(phase)))


def _implied_leak(op: OperatorSum, group: str) -> float:
    """sqrt(2^L) (||dc||_2 / (2 sin(pi/n)) + ||c_odd||_2): the bound on
    ||M V - V B||_F that op's coefficients imply in every sector of `group`
    (see project_sectors); dc is the coefficient change under its second
    generator G of order n (T on a ring, R; none for the spin flip alone),
    and c_odd holds the coefficients of odd z weight."""
    L = op.length
    terms = dict(op.items())
    leak = np.sqrt(sum(abs(c) ** 2 for (_, z), c in terms.items()
                       if z.bit_count() & 1))
    move, order = _generator(group, L)
    if move is not None:
        moved = {(move(x, L), move(z, L)): c for (x, z), c in terms.items()}
        dc = np.sqrt(sum(abs(moved.get(key, 0) - terms.get(key, 0)) ** 2
                         for key in moved.keys() | terms.keys()))
        if dc:
            leak += dc / (2 * np.sin(np.pi / order))
    return float(np.sqrt(1 << L) * leak)


def _symmetry_group(op: OperatorSum, groups=("TP", "RP", "P")):
    """The first of `groups` (_generator) whose symmetries conserve op, None
    when none does: the coefficient test of project_sectors, _implied_leak
    <= 1e-12 * max(1, sum|coeff|).  By default the translation x spin flip
    (ring sectors), then the reflection x spin flip, then the spin flip
    alone."""
    bound = 1e-12 * max(1.0, op.norm_bound())
    for group in groups:
        if _implied_leak(op, group) <= bound:
            return group
    return None


def _mirrored(ops, group: str) -> bool:
    """Whether the sectors of `group` take the real bases of _real_bases
    for a family of operators `ops` (_sector_frame): on a ring ("TP")
    whose operators are all real (has_real_matrix) and conserved by the
    reflection R too (_symmetry_group's test)."""
    return group == "TP" and all(
        has_real_matrix(op) and _symmetry_group(op, ("RP",)) == "RP"
        for op in ops)


def _check_memory(need: int, method: str, length: int, what: str) -> None:
    """Raise ResourceLimitError when `need` bytes exceed physical memory."""
    if need > _physical_memory():
        raise ResourceLimitError(
            f"{method} diagonalization of {length} sites needs about "
            f"{need / 1e9:.1f} GB ({what}), more than the "
            f"{_physical_memory() / 1e9:.1f} GB of physical memory")


def _check_table(table: _SectorTable) -> None:
    """Raise ConvergenceError unless the orbit table passes checks (i) and
    (iii) (a)-(d) of project_sectors, each to BASIS_ATOL, and the twin
    check.  Without Q_a, every sector has a twin with the conjugate
    character and the same columns, so that a real operator has conjugate
    blocks in the two (both sector solvers reuse the solution of k for -k
    on that alone, _SectorTable.reused).  With Q_a, swap's map holds
    entry by entry at every basis index: Q_a V_i[:, c] = phase[c]
    V_twin[:, mate[c]] for every column c of every sector i, V the orbit
    sums of _SectorTable, so that (Q_a^2 = 1) a twin's blocks are a signed
    column permutation of its source's for every operator Q_a commutes
    with.  _sector_frame runs it on every table it builds."""
    L, chars, orbit, cols = table.length, table.chars, table.orbit, table.cols
    b, g = np.arange(orbit.size, dtype=orbit.dtype), np.arange(chars.shape[1])
    keys = np.array(table.keys).T
    elem, alive, sign = table.elem, cols >= 0, table.sign
    move, order = _generator(table.group, L)
    n2 = 2 * order
    ok = {"span": alive.sum() == orbit.size, "orbit": True, "stabilizer": True,
          "character": np.abs(chars[:, 0] - 1).max() <= BASIS_ATOL,
          "size": np.array_equal(table.size, np.bincount(orbit))
          and np.array_equal(cols, np.where(alive, alive.cumsum(1) - 1, -1))}

    def code(j, s, t):
        """The code 2j + s + 2n t, j taken mod n."""
        return 2 * (j % order) + s + n2 * t

    def parts(c):
        """(j, s, t) of the codes c."""
        return c % n2 // 2, c & 1, c // n2

    # each generator s: its code, the sign it gives every b (None for +1),
    # s b for every b, chi(s)
    gens = [(1, None, b ^ (orbit.size - 1), keys[1])]
    if move is not None:
        gens.append((2, None, move(b, L),
                     np.exp(2j * np.pi * keys[0] / order)))
    q, qa = table.integrals
    if q is not None:
        x, z, c = _pauli_action(q)
        gens.append((n2, _pauli_signs(b, z, c), b ^ x, keys[2]))
    for s, tau, image, chi in gens:
        # h = g_{sb} s g_b^-1: powers of G add mod n, flips and Q xor; it
        # gives b's representative the sign eps = sign[b] tau[b] sign[sb]
        (ji, si, ti), (js, ss, ts), (jb, sb, tb) = (
            parts(elem[image]), parts(s), parts(elem))
        h = code(ji + js - jb, si ^ ss ^ sb, ti ^ ts ^ tb)
        times = code(g % n2 // 2 + js, g & 1 ^ ss, g // n2 ^ ts)
        ok["character"] &= bool(np.abs(chars[:, times] - chars * chi[:, None])
                                .max() <= BASIS_ATOL)
        ok["orbit"] &= np.array_equal(orbit[image], orbit)
        moved = h != 0
        if sign is None:
            ok["stabilizer"] &= bool(np.abs(chars[:, h[moved]] - 1)[
                alive[:, orbit[moved]]].max(initial=0) <= BASIS_ATOL)
            continue
        eps = sign * sign[image] * (1 if tau is None else tau)
        ok["stabilizer"] &= bool((eps[~moved] == 1).all())
        # per code and sign of h, the orbits that take it, one pass each
        taken = 2 * h[moved].astype(np.int16) + (eps[moved] < 0)
        orbits = orbit[moved]
        for key in np.flatnonzero(np.bincount(taken)).tolist():
            on = np.zeros(len(table.reps), dtype=bool)
            on[orbits[taken == key]] = True
            value = chars[:, key // 2] * (1 - 2 * (key & 1))
            ok["stabilizer"] &= bool(np.abs(value - 1)[
                alive[:, on].any(axis=1)].max(initial=0) <= BASIS_ATOL)
    twin = table.twin
    if table.swap is None:
        # the twin of (k, p) has the conjugate character and the same
        # columns, so a real operator's blocks there are conjugate
        ok["twin"] = bool((twin >= 0).all()) and bool(
            np.abs(chars[twin] - chars.conj()).max() <= BASIS_ATOL) \
            and np.array_equal(cols[twin], cols)
    else:
        # Q_a |c> = phase[c] |mate[c]> in the twin, entry by entry: at every
        # b of column c's orbit, c_a (-1)^popcount(z_a & b) V_i[b] is phase
        # times V_twin[b ^ x_a], both orbits of one size.  The characters
        # are +-1 here, as check (iii) (a) has it, and so is every phase:
        # both sides are read as int8, a range of indices at a time (per
        # index a few int8 per sector and a few int32, about _CHUNK_BYTES
        # in all)
        mate, phase = table.swap
        x, z, c = _pauli_action(qa)
        f = orbit[table.reps ^ x]
        ok["twin"] = bool((twin >= 0).all()) \
            and np.array_equal(table.size[f], table.size) \
            and np.array_equal(np.abs(phase), np.ones_like(phase))
        # per sector and orbit, the phase of its column (0 where dead)
        phase_of = np.zeros(cols.shape, dtype=np.int8)
        for i, j in enumerate(twin.tolist() if ok["twin"] else ()):
            live = np.flatnonzero(alive[i])
            own = table.first[i] + cols[i, live]
            ok["twin"] &= np.array_equal(cols[j, f[live]], mate[own])
            phase_of[i, live] = phase[own]
        sign_of = np.rint(chars.real).astype(np.int8)
        twin_of = sign_of[twin]
        step = max(1, _CHUNK_BYTES // (8 * len(twin) + 32))
        for lo in range(0, orbit.size if ok["twin"] else 0, step):
            part = b[lo:lo + step]
            moved = part ^ x
            n = orbit[part]
            ok["twin"] &= np.array_equal(orbit[moved], f[n])
            eps = _pauli_signs(part, z, c) * sign[part] * sign[moved]
            lhs = sign_of[:, elem[part]] * eps
            lhs -= phase_of[:, n] * twin_of[:, elem[moved]]
            ok["twin"] &= not lhs[alive[:, n]].any()
    failed = [name for name, good in ok.items() if not good]
    if failed:
        raise ConvergenceError(
            f"{L}-site orbit table fails its {', '.join(failed)} check: its "
            "sector bases are not an orthonormal eigenbasis of the symmetries")


def _integrals(ops: list, group: str) -> tuple:
    """(Q, Q_a): the Pauli integrals of motion an "RP" family's sectors
    split by and pair up by, read off the commutant of its terms
    (pauli.commutant), each a Hermitian real string or None; (None, None)
    for any other group.

    The commutant is a GF(2) space of symplectic vectors (2L-bit ints, x above
    z, PauliString.vector).  Q is the first row, leading bits descending, of
    the reduced row-echelon basis (pauli.kernel_within) of its elements that R
    conserves (mirror-symmetric masks) and that commute with P (even z
    weight), leaving out the one row that leads at site 1's X bit (P's own),
    whose Y count is even (a real string): Q commutes with R and P, and lies
    outside <P>.  Q_a is the first row of that basis of the elements whose
    image under R is themselves times an element of <P, Q> (masks only, R v +
    v reduced modulo <P, Q> by pauli.reduced) that has odd z weight
    (anticommutes with P, so it maps a sector of parity p onto one of -p) and
    an even Y count, and whose relations with R, P and Q put it in the group's
    normalizer (_twin_relations), None when no row qualifies; where R Q_a R =
    +-Q_a P Q, the letters of P Q then take Q's place.  For H_C + lambda H_I,
    lambda != 0, on an open chain of 6-24 sites the commutant has dimension 3:
    Q is a period-3 string (where L != 0 mod 3 a product of disjoint YY bonds,
    IYYIYYIYYIYYI at 13 sites), and Q_a, when L != 0 mod 3, a product of ZXZ
    stabilizers of period 3 (ZXZZXZZXZZXZZ at 13 sites) with R Q_a R = Q_a Q,
    which takes (r, p, q) to (r q, -p, q)."""
    if group != "RP":
        return None, None
    L = ops[0].length
    p = PauliString.from_letters("X" * L)

    def mirror(v):
        # _reflect reads the low L bits, the z mask
        return (_reflect(v >> L, L) << L) | _reflect(v, L)

    def odd_z(v):
        """Whether v anticommutes with P: its z weight is odd."""
        return symplectic_form(v, [p.vector], L)

    def real(vectors):
        """The Hermitian strings of `vectors` with an even Y count."""
        return (s for s in (PauliString.from_vector(L, v) for v in vectors)
                if s.phase_exp % 2 == 0)

    basis = commutant(ops)
    even = kernel_within(basis, lambda v: (mirror(v) ^ v) << 1 | odd_z(v))
    q = next(real(v for v in even if v.bit_length() < 2 * L), None)
    if q is None:
        return None, None
    group_rows = row_echelon([p.vector, q.vector])
    qa = next((s for s in real(filter(odd_z, kernel_within(
        basis, lambda v: reduced(mirror(v) ^ v, group_rows))))
        if _twin_relations(q, s)), None)
    if qa is not None and _twin_relations(q, qa)[0][1] == 7:
        # R Q_a R = +-Q_a P Q: P Q (its letters) takes Q's place, which
        # leaves the group as it is and gives R Q_a R = +-Q_a Q
        pq = p * q
        q = PauliString.hermitian(L, pq.x_mask, pq.z_mask)
    return q, qa


def _sector_frame(ops: list, group: str, mirrored: bool,
                  integrals: tuple) -> tuple:
    """(table, bases, twins): the sectors of `group` ("TP", "RP" or "P",
    _generator) that both sector solvers solve a family of operators `ops`
    in, built once per family, split by the family's Pauli integral Q and
    paired by Q_a where integrals = (Q, Q_a) holds them (_integrals, "RP"
    only).  Raises ConvergenceError unless every operator's coefficients
    bound its sector leak (_implied_leak) within 1e-12 * max(1,
    sum|coeff|), check (ii) of project_sectors (Q leaks nothing: it
    commutes with every term, which pauli.commutant confirms); then builds
    the orbit table (_sector_table) and checks it (_check_table), builds
    the real bases of its complex sectors (_real_bases) when `mirrored`
    (_mirrored, empty otherwise), and gives the twins every sector
    solve reuses, -1 for none (_SectorTable.reused, real when every
    operator has a real matrix).  project_sectors projects every operator
    into it, and sector_lanczos solves each row of an iterative family on
    it."""
    for m, op in enumerate(ops):
        leak = _implied_leak(op, group)
        bound = 1e-12 * max(1.0, op.norm_bound())
        if leak > bound:
            raise ConvergenceError(
                f"operator {m} is not invariant under the symmetries: its "
                f"coefficients allow ||MV - VB|| = {leak:.3e}, above "
                f"{bound:.3e}")
    table = _sector_table(ops[0].length, group, integrals)
    _check_table(table)
    bases = _real_bases(table) if mirrored else {}
    return table, bases, table.reused(all(map(has_real_matrix, ops)))


def _sector_entries(table: _SectorTable, op: OperatorSum, sec, rep,
                    orbits=slice(None)) -> tuple:
    """(target, values), each (rows, #x masks): op's entries in the sector
    rows a, row a being the orbit sum of the representative rep[a] of
    `orbits` (all by default) in sector sec[a, 0], from one kernel call
    (_mask_rows) on the representatives of `orbits`.

    M|c> has amplitude B[c', c] / sqrt(N_r) at the representative r of
    column c', so row r's entry from r ^ x, times chi(g_{r^x}) sign[r ^ x]
    sqrt(N_r / N_{orbit(r^x)}) (sign 1 without Q), lands in column target
    = cols[i, orbit(r ^ x)] of sector i, -1 where that orbit's sum
    vanishes in i.
    project_sectors scatters the rows of every sector into dense blocks,
    _sector_block takes the rows of one sector's orbits as its CSR block.
    """
    indices, data = _mask_rows(op, table.reps[orbits])
    orbit, elem = table.orbit[indices], table.elem[indices]
    if table.sign is not None:
        data *= table.sign[indices]
    del indices
    data *= np.sqrt(table.size[orbits, None] / table.size[orbit])
    target = table.cols[sec, orbit[rep]]
    del orbit
    return target, table.chars[sec, elem[rep]] * data[rep]


def _conjugation_pairs(table: _SectorTable) -> tuple:
    """(sigma, phi) over the columns of every sector, sector-major as
    project_sectors scatters them: R K |c> = phi_c |sigma_c> in c's own
    sector, R the reflection and K the complex conjugation, sigma_c a
    column of that sector.  R K conserves every (k, p) sector of a ring, as
    R turns k into -k and K turns it back; R takes c's representative r
    to the orbit of sigma_c, where its group element g_{R r} gives phi_c =
    conj(chi(g_{R r})), the amplitude of |sigma_c> at R r being chi(g_{R
    r}) / sqrt(N_r) where R K |c> has 1 / sqrt(N_r)."""
    sec, rep = np.nonzero(table.cols >= 0)
    mirror = _reflect(table.reps, table.length)[rep]
    return (table.cols[sec, table.orbit[mirror]],
            table.chars[sec, table.elem[mirror]].conj())


def _real_bases(table: _SectorTable) -> dict:
    """{i: (sigma, a, b)} for every sector i of `table` with a complex
    character (table.takes: 2k != 0 mod L, only on a ring), the rows of a
    unitary U, U[c, c] = a_c and U[c, sigma_c] = b_c, whose columns R K
    conserves (_conjugation_pairs), so that U^H B U is real for every block
    B of a real operator that R conserves.  An orbit R K maps to itself
    (sigma_c = c) takes the half angle of phi_c, column e^{i arg(phi_c) /
    2} |c>, and a pair c < c' = sigma_c takes columns (|c> + phi_c |c'>) /
    sqrt 2 and i (|c> - phi_c |c'>) / sqrt 2.  A sector whose twin j
    (_SectorTable.twin) comes first takes U = conj U(j), so that its real
    blocks are those of j; a sector with a real character takes U = 1 and
    has no entry.  Both sector solvers take their bases from here, through
    _sector_frame.  Raises
    ConvergenceError unless sigma is an involution with phi_{sigma_c} =
    phi_c to BASIS_ATOL, which (R K)^2 = 1 requires."""
    sigma, phi = _conjugation_pairs(table)
    dims, first = table.dims, table.first
    sec = np.repeat(np.arange(dims.size), dims)
    col = np.arange(sigma.size) - first[sec]
    back = first[sec] + sigma
    if not ((sigma >= 0).all() and np.array_equal(sigma[back], col)
            and np.abs(phi[back] - phi).max() <= BASIS_ATOL):
        raise ConvergenceError(
            f"{table.length}-site reflection map is not an involution on "
            "the sector columns: no real basis")
    half = np.sqrt(0.5)
    alone, lower = sigma == col, col < sigma
    a = np.where(alone, np.exp(0.5j * np.angle(phi)),
                 np.where(lower, half, -1j * half * phi))
    b = np.where(alone, 0, np.where(lower, 1j * half, half * phi))
    bases = {}
    for i in np.flatnonzero(table.takes).tolist():
        part, j = slice(first[i], first[i] + dims[i]), table.twin[i]
        if j < i:
            a[part], b[part] = bases[j][1].conj(), bases[j][2].conj()
        bases[i] = sigma[part], a[part], b[part]
    return bases


def _in_real_basis(basis: tuple, first: np.ndarray, own: np.ndarray,
                   target: np.ndarray, values: np.ndarray) -> tuple:
    """(rows, cols, values) of U^H B U, broadcast to (2, 2, rows, #x
    masks), from the entries B[own, target] = values of _sector_entries,
    U's rows (sigma, a, b) over a run of consecutive sectors of _real_bases
    and first[a] the offset of row a's sector in them: with two entries in
    each row of U, entry (c, t, v) gives conj(U[c, j]) v U[t, l] at (j, l)
    for j in (c, sigma_c) and l in (t, sigma_t).  A target -1 (an orbit
    sum that vanishes) reads U's first row of the sector; the caller drops
    its entries."""
    sigma, a, b = basis
    at_row, at_col = first + own, first + np.maximum(target, 0)
    left = np.array([a[at_row], b[at_row]]).conj()[:, None]
    right = np.array([a[at_col], b[at_col]])[None]
    return (np.array([own, sigma[at_row]])[:, None],
            np.array([target, sigma[at_col]])[None], left * values * right)


@dataclass(frozen=True)
class _Projection:
    """What project_sectors gives sector_low, for one lattice and a fixed
    list of operators: the orbit table, per sector (k, p, blocks) with
    blocks[m] = U^H V^H M_m V U (U = 1 outside `bases`), twins[i] the index
    j < i of the sector whose blocks, conjugated (a -k twin) or in the
    columns Q_a maps them to (a chain's Q_a twin), are sector i's for
    every operator (-1 when none): the table's twin when every operator is
    real or Q_a pairs them (_SectorTable.reused), bases, the unitaries U
    of _real_bases by
    sector (empty when they do not apply), and charge, the arguments of
    the projection's _check_memory call.  It holds every piece of state
    that outlives one chunk of couplings, and nothing writes to it once
    project_sectors returns it; family_low keeps it for later calls with
    the same operators (_KEPT), so every array in it is read-only."""

    table: _SectorTable
    sectors: list
    twins: tuple
    bases: dict
    charge: tuple

    def rows(self, count: int) -> int:
        """The real coupling rows one sector_low call takes for windows of
        `count` levels: as many as fit _CHUNK_BYTES with, per row, the
        summed blocks of the largest sector and the solutions of every
        sector at min(count, d) levels, both of the blocks' dtype; one row
        at least."""
        dims = self.table.dims
        item = np.result_type(*(b.dtype for _, _, blocks in self.sectors
                                for b in blocks)).itemsize
        row = item * int(dims.max() ** 2 + dims @ np.minimum(count, dims))
        return max(1, _CHUNK_BYTES // row)

    def arrays(self) -> list:
        """Every array of the blocks, the orbit table and the real bases."""
        t = self.table
        return [t.reps, t.size, t.orbit, t.elem, t.chars, t.cols, t.twin,
                t.dims, t.first, t.takes,
                *(x for x in (t.sign, *(t.swap or ())) if x is not None),
                *(b for _, _, blocks in self.sectors for b in blocks),
                *(x for basis in self.bases.values() for x in basis)]

    @cached_property
    def nbytes(self) -> int:
        """Bytes the projection holds, as _keep counts them: its arrays,
        each buffer under them once."""
        owners = {}
        for a in self.arrays():
            while isinstance(a.base, np.ndarray):
                a = a.base
            owners[id(a)] = a.nbytes
        return sum(owners.values())


def _projection_charge(ops: list, table: _SectorTable,
                       mirrored: bool) -> tuple:
    """The arguments of the _check_memory call that charges projecting
    `ops` into the sectors of `table`, in real bases when `mirrored`: the
    blocks, float64 when the operator and every character are real and
    in real bases, where one more real scatter (the guard's imaginary
    parts, then the real ones) is open at a time; one chunk of
    sector_low's coupling rows (_CHUNK_BYTES of summed blocks and
    solutions, _Projection.rows) and as much again for the first pass's
    solutions a second pass leaves alive and one sector's products and
    residuals; one row's largest sum with LAPACK's copy of it; per
    sector a 2^L column of an int32 and a character, margin for the
    ground states a chunk expands (_SectorState.amps); the orbit table
    and scattered rows, at most 48 bytes per state and x mask (9-12
    sites), and in real bases the bases and their build, 160 bytes per
    state, and an operator's entries four times over.  project_sectors
    charges it before its first kernel call, and family_low again on every
    call that takes a kept projection."""
    L = table.length
    dim = 1 << L
    dims = table.dims
    x_masks = [len({x for x, _ in op.items()}) for op in ops]
    items = [8 if mirrored or has_real_matrix(op)
             and np.isrealobj(table.chars) else 16 for op in ops]
    held = int(dims @ dims) * (8 * (len(ops) + 1) if mirrored else sum(items))
    return (held + 2 * _CHUNK_BYTES
            + 2 * max(items) * int(dims.max()) ** 2 + dims.size
            * dim * (4 + table.chars.itemsize)
            + dim * (64 + 48 * sum(x_masks))
            + (dim * (160 + 144 * max(x_masks)) if mirrored else 0),
            "dense", L, f"{len(ops) * dims.size} sector blocks plus "
            "row tables")


def project_sectors(ops, group: str) -> _Projection:
    """Every operator of `ops` (one lattice) in every sector of `group`
    ("TP", "RP" or "P", _generator): a _Projection of the family's frame
    (_sector_frame: the checked orbit table, the real bases when _mirrored
    holds, the twins) and per sector blocks[m] = V^H M_m V, V the
    sector's orbit-sum basis (_SectorTable).  Each operator's entries in every
    sector come from one kernel call on the orbit representatives
    (_sector_entries), all sectors in one scatter.  A block is float64
    when its operator is real (has_real_matrix) and its sector's character
    is real (2k = 0 mod n: every sector of R x P or P alone).  On a ring
    whose operators are all real and conserved by the reflection R
    (_mirrored), every block is float64: a sector with a complex character
    (table.takes) takes blocks[m] = U^H V^H M_m V U in a basis U that R
    times complex conjugation conserves (_real_bases), each entry of V^H
    M_m V scattered as its four entries in U (_in_real_basis), and -k
    takes U(-k) = conj U(k), so that its blocks are those of k; the
    entries of a sector with a real character, where U = 1, are scattered
    as they are.  The twins sector_low reuses are the frame's, by the rule
    sector_lanczos follows too (_SectorTable.reused).  After the frame is
    built (its real bases included, which a dense solve builds at 12
    sites or fewer) and before the first kernel call, the blocks, the
    scattered rows, the real bases, one chunk of sector_low's coupling
    rows (_CHUNK_BYTES, _Projection.rows), one row's largest solve and a
    margin for the ground states a chunk expands are charged against
    physical memory (_projection_charge, _check_memory).  Every array of
    the result is read-only, and nothing writes to it later, since
    family_low shares it with later calls (_KEPT).

    The result is guarded once per lattice, without forming any M: a leaky
    basis would silently drop levels from the spectrum.  For every operator
    and sector, leak = ||M V - V B||_F = ||(1 - V V^H) M V||_F must stay
    within 1e-12 * max(1, sum|coeff|).  Three checks imply it, and each
    raises ConvergenceError when it fails:

    (i) the sector dimensions sum to 2^L (_check_table);
    (ii) every operator is invariant under P and the second generator G (T
         or R, if any), read off its masks (_implied_leak, in
         _sector_frame): conjugating by
         a site permutation g only moves coefficients between mask pairs,
         and Pauli strings are orthogonal with squared Frobenius norm 2^L,
         so ||g M g^-1 - M||_F = sqrt(2^L) ||dc||_2; P flips the sign of
         the terms of odd z weight, so ||P M P - M||_F = 2 sqrt(2^L)
         ||c_odd||_2;
    (iii) each V is an orthonormal eigenbasis with G V = e^{2 pi i k/n} V
         and P V = p V, read off the orbit table (_check_table) per orbit,
         for each generator s (P, and G if any) and every g and b:
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
    M V then lies in the other eigenspaces, where G differs from
    e^{2 pi i k/n} by at least 2 sin(pi/n) (2 for R) or, at the same k, P
    differs from p by 2.  Since e^{2 pi i k/n} Y - G Y = (1 - V V^H)[M, G] V
    and p Y - P Y = (1 - V V^H)[M, P] V,

        leak <= ||[M, G]||_F / (2 sin(pi/n)) + ||[M, P]||_F / 2
              = sqrt(2^L) (||dc||_2 / (2 sin(pi/n)) + ||c_odd||_2),

    and (ii) requires this bound, not the leak itself, to stay within
    1e-12 * max(1, sum|coeff|), or reports the operator not invariant.
    On an open chain split by a Pauli integral Q (_integrals) the same
    argument runs over the sectors (r, p, q), Q a third generator with
    [M, Q] = 0 exactly, since Q commutes with every term of every
    operator (pauli.commutant confirms it), so the bound gains no term;
    (iii) then checks each generator's sign on every index too
    (_check_table).

    In real bases U^H V^H M V U differs from V^H M V by a unitary change of
    basis inside the sector, so the leak is the same; two more checks,
    each raising ConvergenceError, guard U: R K maps the columns of each
    sector onto themselves as an involution (_real_bases), and no entry of
    any block has an imaginary part above 1e-13 * max(1, sum|coeff|)
    before the real parts are kept.
    """
    ops = [_as_sum(op) for op in ops]
    mirrored = _mirrored(ops, group)
    table, bases, twins = _sector_frame(ops, group, mirrored,
                                        _integrals(ops, group))
    dims, first, takes = table.dims, table.first, table.takes
    real = [has_real_matrix(op) for op in ops]
    scales = [max(1.0, op.norm_bound()) for op in ops]
    charge = _projection_charge(ops, table, mirrored)
    _check_memory(*charge)
    # the rows of all sectors, sector-major: row a of the scatter is
    # reps[rep[a]] in sector sec[a], column own[a] of its block
    sec, rep = np.nonzero(table.cols >= 0)
    sec = sec[:, None]
    own = table.cols[sec, rep[:, None]]
    # block i fills flat[ends[i] - d_i^2:ends[i]] row by row; sector i's
    # rows start at first[i]
    ends = np.cumsum(dims ** 2)

    def slots(s, rows, cols, target, spare):
        """Each entry's slot in the flat blocks, an entry into an orbit
        whose sum vanishes in the sector (target -1) at `spare`."""
        return np.where(target >= 0, ends[s] - dims[s] * (dims[s] - rows)
                        + cols, spare).ravel()

    flats = []
    for op, scale in zip(ops, scales):
        target, values = _sector_entries(table, op, sec, rep)
        # one bincount adds the entries in order, as np.add.at would
        if mirrored:
            # each run's rows alone into its own blocks, as they are where
            # U = 1 and as their four entries in U elsewhere; no slot is
            # two runs', so each adds its entries in the order of one
            # bincount of all.  The imaginary parts go to the guard alone,
            # freed before the real ones are summed.  A run [lo, hi) is a
            # maximal range of consecutive sectors that take U or do not,
            # and U's rows over a run that takes it are its sectors' rows
            # end to end
            edges = [0, *np.flatnonzero(np.diff(takes)) + 1, takes.size]
            flat = np.empty(ends[-1])
            for lo, hi in zip(edges[:-1], edges[1:]):
                part = slice(first[lo], first[hi - 1] + dims[hi - 1])
                s, t, v = sec[part], target[part], values[part]
                rows, cols = own[part], t
                if takes[lo]:
                    run = tuple(np.concatenate(x) for x in
                                zip(*(bases[i] for i in range(lo, hi))))
                    rows, cols, v = _in_real_basis(run, first[s] - first[lo],
                                                   rows, t, v)
                begin, stop = ends[lo] - dims[lo] ** 2, ends[hi - 1]
                slot = slots(s, rows, cols, t, stop) - begin
                del rows, cols
                worst = np.abs(np.bincount(slot, v.imag.ravel(), stop - begin
                                           + 1)[:-1]).max(initial=0.0)
                if worst > 1e-13 * scale:
                    raise ConvergenceError(
                        f"sector blocks are not real in the reflection "
                        f"basis: imaginary part {worst:.3e} above "
                        f"{1e-13 * scale:.3e}")
                flat[begin:stop] = np.bincount(slot, v.real.ravel(),
                                               stop - begin + 1)[:-1]
                del v, slot
        else:
            # a complex entry's real and imaginary parts go to slots 2t and
            # 2t + 1 of one float array, read back as complex without a
            # copy (the int64 zeros an empty operator's bincount gives read
            # as zeros too)
            slot = slots(sec, own, target, target, ends[-1])
            width = values.itemsize // 8
            flat = np.bincount((width * slot[:, None]
                                + np.arange(width)).ravel(),
                               values.reshape(-1).view(np.float64),
                               width * (ends[-1] + 1)).view(values.dtype)
            del slot
        del target, values
        flats.append(flat)
    sectors = []
    for (k, p, *_), d, end, u in zip(table.keys, dims, ends, takes):
        blocks = [f[end - d * d:end].reshape(d, d) for f in flats]
        sectors.append((k, p, [b.real if r and not u else b
                               for b, r in zip(blocks, real)]))
    projected = _Projection(table, sectors, twins, bases, charge)
    for a in projected.arrays():
        a.setflags(write=False)
    return projected


def sector_low(projected: _Projection, coeffs, count: int, norm_h,
               atol: float = 1e-8, seeds=None) -> list:
    """Lowest `count` levels of H_r = sum_m coeffs[r, m] * op_m for each
    coupling row r of `coeffs`, from the blocks of project_sectors,
    sector-major: each own sector is solved for every row that needs it
    before the next, one dense solve per row, and its twin mapped from it,
    and a second time for the few sectors a row's window needs more
    levels of.

    Returns per row (vals, labels, states, max_residual) like eig_low's
    eigenvalues followed by resolve_sectors: ascending energies, each
    level's spin-flip parity, the states V w in sector form, and the worst
    residual of the blocks solved or reused for the row (a block
    _sector_counts certifies above the window is neither).  The
    coefficients are real, as family_low checks them.  A call takes at
    most projected.rows(count) rows, the chunk project_sectors charges
    (_CHUNK_BYTES), and raises ValueError above it.  Per own sector (not
    a twin of projected.twins, _SectorTable.reused) and pass, one solve
    call sums the rows' blocks into one (rows, d, d) stack, and each row
    takes its lowest levels from one LAPACK call (_subset_eigh); when a
    twin reuses the sector, the same call sums the twin's own blocks and
    gives each row the twin's solution as a signed column permutation of
    the sector's (_SectorTable.twin_solution): the conjugate of the
    solution of k for a -k sector (in real bases the blocks and so the
    solution are real, and taken as they are), Q_a applied for a chain's
    Q_a twin, which halves the solves.  One checked_residual per stack
    checks every pair of every row on the row's own blocks against its
    own norm_h[r], the twin's included, so that a wrong map raises
    ConvergenceError.  Each row takes the two passes of _sector_counts
    over the own sectors, without its floor, so that its
    merged window is exactly the lowest `count` levels: a LAPACK subset
    solve costs about the same at any level count, so sector_lanczos's
    smaller first pass would only add second solves here.  `seeds`, a set
    of own sectors (those that held a level of the window of the coupling
    before this chunk, _window_sectors), has every row solve them first
    and every other own sector only where its Cholesky certificate
    (_certify) fails; without seeds the first row is solved in every
    sector, and the other rows take the sectors of its window as seeds.
    Either way each row's levels, labels and states are, bit for bit,
    those of a one-row call.  The merge, shared with sector_lanczos
    (_merge_levels), keeps each level in sector form, expanded to 2^L
    amplitudes from the orbit table on the first read of its amps, and
    orders the labels and states inside each
    cluster of levels within `atol` by ascending parity, as
    resolve_sectors orders them.
    """
    coeffs = np.asarray(coeffs)
    norm_h = np.asarray(norm_h, dtype=float)
    rows = coeffs.shape[0]
    most = projected.rows(count)
    if coeffs.ndim != 2 or norm_h.shape != (rows,) or rows > most:
        raise ValueError(
            f"sector_low takes a (rows, operators) stack of at most {most} "
            "coupling rows and one norm per row")

    def low(part, seeds):
        """The merged levels of the rows `part`, seeded by `seeds`."""
        rows_c, norms = coeffs[part], norm_h[part]
        worst = np.zeros(len(rows_c))

        def summed(s, at):
            """Sector s's parity and its (rows, d, d) stack of the summed
            blocks of the rows `at`."""
            _, p, blocks = projected.sectors[s]
            c = rows_c[at, :, None, None]
            h = np.multiply(c[:, 0], blocks[0],
                            dtype=np.result_type(c, *blocks))
            for m in range(1, len(blocks)):
                h += c[:, m] * blocks[m]
            return p, h

        def solve(i, t, n, at, tops=None):
            """Per row of `at`, sector i's (parity, energies, vectors), its
            lowest min(n, d) levels, followed, for a twin t >= 0, by the
            twin's, as twin_solution maps them, with the residual of every
            pair on the row's own blocks; with `tops`, per row the top of
            its window so far, a row whose block _certify puts above
            tops[r] + atol takes no level and no check, in i or t."""
            p, h = summed(i, at)
            d = h.shape[1]
            empty = (p, np.empty(0), np.empty((d, 0), dtype=h.dtype))
            out = [(empty, empty) if t >= 0 else (empty,)] * len(at)
            kept = range(len(at))
            if tops is not None:
                kept = np.flatnonzero(~_certify(h, tops[at], atol, norms[at]))
                if kept.size == 0:
                    return out
                if kept.size < len(at):
                    at, h = [at[r] for r in kept], h[kept]
            k = min(n, d)
            # each row's vectors in Fortran order, as LAPACK gives them, so
            # that the batched product rounds as one row's product does
            w = np.empty((len(at), k, d), dtype=h.dtype).transpose(0, 2, 1)
            e = np.empty((len(at), k))
            for r in range(len(at)):
                e[r], w[r] = _subset_eigh(h[r], k)
            sides = [(p, h, w)]
            if t >= 0:
                q, g = summed(t, at)
                v = np.empty((len(at), k, d), dtype=g.dtype).transpose(0, 2, 1)
                for r in range(len(at)):
                    v[r] = projected.table.twin_solution(t, w[r])
                sides.append((q, g, v))
            for _, g, v in sides:
                worst[at] = np.maximum(
                    worst[at], checked_residual(g @ v, v, e, norms[at]))
            for r, row in enumerate(kept):
                out[row] = tuple((q, e[r], v[r]) for q, _, v in sides)
            return out

        solved = _sector_counts(solve, projected.twins, count, atol,
                                len(rows_c), seeds=seeds)
        return [(*_merge_levels(projected.table, levels, count, atol,
                                projected.bases), float(top))
                for levels, top in zip(solved, worst)]

    if seeds is None and rows > 1:
        first = low(slice(0, 1), None)
        return first + low(slice(1, None),
                           _window_sectors(projected.twins, first[0][2]))
    return low(slice(None), seeds)


def _window_sectors(twins, states) -> frozenset:
    """The own sectors that hold a level of a window `states` (sector_low's
    _SectorStates): each state's sector, or the twin it reuses."""
    return frozenset(twins[s.sector] if twins[s.sector] >= 0 else s.sector
                     for s in states)


def _certify(h: np.ndarray, tops: np.ndarray, atol: float,
             norm_h: np.ndarray) -> np.ndarray:
    """Per block h[r] of the (rows, d, d) stack (its lower triangle, as
    _subset_eigh reads it), whether every eigenvalue lies above tops[r] +
    atol, certified by one LAPACK ?potrf of h[r] - sigma_r I, sigma_r =
    tops[r] + atol + delta_r: a Cholesky factorization that runs to
    completion is that of A + E, ||E|| <= g ||A||, g = (d + 2)^2 eps
    (normwise, Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3, with the shift's rounding), and ||A|| <= norm_h[r] +
    |sigma_r|, norm_h[r] bounding ||h[r]||.  delta_r = max(atol, 2 g
    (norm_h[r] + |tops[r]| + atol)) is at least g ||A||, so success puts
    every eigenvalue above sigma_r - delta_r.  False where tops[r] is inf
    (no potrf) or the factorization fails."""
    d = h.shape[1]
    above = np.zeros(len(h), dtype=bool)
    potrf = scipy.linalg.get_lapack_funcs("potrf", (h,))
    g = (d + 2) ** 2 * np.finfo(float).eps
    diagonal = np.arange(d)
    for r in np.flatnonzero(np.isfinite(tops)):
        delta = max(atol, 2 * g * (norm_h[r] + abs(tops[r]) + atol))
        a = h[r].copy()
        a[diagonal, diagonal] -= tops[r] + atol + delta
        # a.T is in Fortran order, factored in place; its upper triangle is
        # the transpose of a's lower one, the conjugate of a's Hermitian
        # matrix, with the same eigenvalues and, rounded, the same verdict
        _, info = potrf(a.T, lower=0, overwrite_a=1, clean=0)
        above[r] = info == 0
    return above


def _window_top(levels: list, count: int) -> float:
    """The `count`-th lowest energy a row's solved sectors hold (None for a
    sector not solved yet), inf when they hold fewer."""
    found = [e for _, e, _ in filter(None, levels)]
    if sum(e.size for e in found) < count:
        return np.inf
    return np.sort(np.concatenate(found))[count - 1]


def _sector_counts(solve, twins, count: int, atol: float,
                   rows: int = 1, floor: int | None = None,
                   seeds=None) -> list:
    """Per coupling row r < `rows` and sector i, solved[r][i] = (parity,
    energies, vectors) of as many of its lowest levels as a merged window
    of `count` can use, from solve(i, t, n, at[, tops]), called for own
    sectors i only (twins[i] = -1), which returns per row of `at` a tuple
    of sector i's triple, its lowest min(n, d) levels, and, when a twin t
    reuses i's solution (twins[t] = i, t = -1 for none), the twin's, that
    solution mapped by _SectorTable.twin_solution.  Both sector solvers
    (sector_low, sector_lanczos) take their counts here, in two passes,
    each pass one call per own sector, with every row that needs it.  The
    first solves each own sector for min(start, d) levels, start =
    min(count, ceil(4 count / own sectors)), which is `count` with four
    own sectors or fewer (an open chain's with twins, or the spin flip's
    alone); with a `floor` (sector_lanczos's LANCZOS_LEVEL_FLOOR), start
    is at most max(floor, ceil(2 count / own sectors)) too, twice a
    sector's even share of the window, which leaves the spin flip's two
    sectors the whole count and gives an open chain's four own half of
    it, at least `floor`.  With `seeds` (sector_low's, a set of own
    sectors), the first pass takes the seeds first, then passes every
    other own sector tops, tops[r] the row's `count`-th lowest level found
    so far (_window_top), so that a row whose block _certify puts above
    tops[r] + atol takes an empty triple, in the sector and its twin.
    tops[r] only falls as sectors are solved, so every certified level
    lies above the first pass's top + atol, which is that of solving
    every sector, and no certified sector is solved again.  With `top`
    the row's count-th lowest level found (inf when fewer were), the
    second solves again, at min(count, d), each own sector that gave the
    row fewer levels than that and whose highest lies within `top` +
    atol, its twin with it.  Every level a sector leaves out then lies
    above `top` + atol, so each row's merged window is the one of solving
    every sector at min(count, d): exactly the lowest `count` levels (up
    to the copies a Krylov solve can miss)."""
    reuser = {j: i for i, j in enumerate(twins) if j >= 0}
    own = [i for i, j in enumerate(twins) if j < 0]
    start = min(count, -(-4 * count // len(own)))
    if floor is not None:
        start = min(start, max(floor, -(-2 * count // len(own))))
    solved = [[None] * len(twins) for _ in range(rows)]
    everyone = list(range(rows))

    def take(i, n, at, certify=False):
        t = reuser.get(i, -1)
        found = solve(i, t, n, at, tops) if certify else solve(i, t, n, at)
        for r, levels in zip(at, found):
            for s, triple in zip((i, t), levels):
                solved[r][s] = triple
            if certify and levels[0][1].size:
                tops[r] = _window_top(solved[r], count)

    for i in own:
        if seeds is None or i in seeds:
            take(i, start, everyone)
    if seeds is not None:
        tops = np.array([_window_top(levels, count) for levels in solved])
        for i in own:
            if i not in seeds:
                take(i, start, everyone, certify=True)
    tops = [_window_top(levels, count) for levels in solved]
    for i in own:
        # a certified sector's solution is empty, and it is not solved again
        at = [r for r, row in enumerate(solved)
              if 0 < row[i][1].size < min(count, row[i][2].shape[0])
              and row[i][1][-1] <= tops[r] + atol]
        if at:
            take(i, count, at)
    return solved


class _SectorState(StateVector):
    """A level a merge keeps, in sector form: `vector`, the solution w of
    column `column` of sector `sector` of its orbit table, in the sector's
    real basis when `basis` holds the rows (sigma, a, b) of its unitary U
    (_real_bases).  Its 2^L amplitudes V U w are formed on the first read
    of amps and kept: (U w)_c = a_c w_c + b_c w_{sigma_c}, in O(d), then
    V[b, col] = chi(g_b) sign[b] / sqrt(N_n) at the column col of b's
    orbit n,
    read off the orbit table, with one gather of U w per orbit (0 where
    the orbit's sum vanishes); nothing else is built or kept."""

    __slots__ = ("sector", "column", "vector", "_table", "_basis")

    def __init__(self, table: _SectorTable, sector: int, column: int,
                 vector: np.ndarray, basis=None):
        self.length = table.length
        self._amps = None
        self.sector, self.column, self.vector = sector, column, vector
        self._table, self._basis = table, basis

    def _form(self) -> np.ndarray:
        """V U w, dropping the table and basis."""
        t, i, w = self._table, self.sector, self.vector
        if self._basis is not None:
            sigma, a, b = self._basis
            w = a * w + b * w[sigma]
        at = np.where(t.cols[i] >= 0, w[t.cols[i]], 0)
        # val is named and the gathered column a temporary: numpy forms a
        # product with a temporary of 256 KiB or more in place, the
        # temporary first, and complex products round by operand order, so
        # this order fixes the amplitudes' last bits
        val = t.chars[i][t.elem] / np.sqrt(t.size)[t.orbit]
        if t.sign is not None:
            val *= t.sign
        amps = np.asarray(val * at[t.orbit], dtype=np.complex128)
        self._table = self._basis = None
        return amps


def _merge_levels(table: _SectorTable, solved: list, count: int,
                  atol: float, bases=None) -> tuple:
    """(vals, labels, states) of the lowest `count` levels of `solved`, per
    sector i of `table` its (parity, energies e, vectors w): ascending
    energies, ties in sector then column order, inside each cluster within
    `atol` in ascending parity (the order resolve_sectors gives), each
    kept level in sector form (_SectorState), expanded to V U w from the
    orbit table on the first read of its amps, U the unitary of that
    sector in `bases`, if any (_real_bases)."""
    sizes = [e.size for _, e, _ in solved]
    energies = np.concatenate([e for _, e, _ in solved])
    sector = np.repeat(np.arange(len(solved)), sizes)
    parity = np.repeat([p for p, _, _ in solved], sizes)
    column = np.concatenate([np.arange(n) for n in sizes])
    order = np.argsort(energies, kind="stable")[:count]
    vals = energies[order]
    for c in _clusters(vals, atol):
        order[c] = order[c][np.argsort(parity[order[c]], kind="stable")]
    states = tuple(
        _SectorState(table, i, c, solved[i][2][:, c],
                     bases.get(i) if bases else None)
        for i, c in zip(sector[order].tolist(), column[order].tolist()))
    return vals, parity[order].astype(float), states


def _sector_block(table: _SectorTable, op: OperatorSum, i: int,
                  basis=None) -> scipy.sparse.csr_array:
    """op's block in sector i of `table` as a CSR matrix, from one
    _sector_entries call on the sector's orbit representatives, its rows'
    entries kept as the block's own memory: float64 when op is real
    (has_real_matrix) and the character is (table.takes).  An entry into
    an orbit whose sum vanishes in the sector is stored as a zero in
    column 0.  With `basis`, the rows (sigma, a, b) of the sector's unitary
    U (_real_bases, two entries per row), the block is the real U^H B U,
    formed as a sparse product, and raises ConvergenceError, as
    project_sectors does, when an entry keeps an imaginary part above
    1e-13 * max(1, sum|coeff|)."""
    orbits = np.flatnonzero(table.cols[i] >= 0)
    target, values = _sector_entries(table, op, i, slice(None), orbits)
    values[target < 0] = 0
    np.maximum(target, 0, out=target)
    if has_real_matrix(op) and not table.takes[i]:
        values = values.real
    block = _csr(target, values)
    del target, values
    if basis is None:
        return block
    # row c of U holds a_c at c and b_c at sigma_c, row j of U^H conj a_j
    # at j and conj b_{sigma_j} at sigma_j (sigma is an involution); where
    # sigma_c = c, b_c = 0 adds nothing
    sigma, a, b = basis
    pairs = np.column_stack([np.arange(sigma.size, dtype=sigma.dtype), sigma])
    block = _csr(pairs, np.column_stack([a, b[sigma]]).conj()) @ (
        block @ _csr(pairs, np.column_stack([a, b])))
    scale = 1e-13 * max(1.0, op.norm_bound())
    worst = np.abs(block.data.imag).max(initial=0.0)
    if worst > scale:
        raise ConvergenceError(
            f"sector blocks are not real in the reflection basis: "
            f"imaginary part {worst:.3e} above {scale:.3e}")
    # the real parts as the block's own contiguous data (a strided view
    # would be copied at every product), without the entries that cancel
    block = scipy.sparse.csr_array(
        (block.data.real.copy(), block.indices, block.indptr),
        shape=block.shape)
    block.eliminate_zeros()
    return block


def _krylov(k: int, size: int) -> int:
    """Krylov vectors for k levels of a block of `size` states: fewer than
    the full space's 40 run faster, 28 kept every window of the
    benchmark's spectra exact at 12-14 sites, where 20-24 dropped a copy
    of a multiplet now and then, and 3 per level kept the 14-site ring's
    window of 12 at lambda = 0 exact, where 28 dropped copies of a level
    sevenfold in one (r, p) block."""
    return int(min(size, max(3 * k, 28)))


def _largest_sector(length: int, group: str, q=None) -> int:
    """A bound on the states of any sector of `group` on `length` sites,
    split by the Pauli integral q too when there is one (_integrals), read
    without the orbit table: a sector's dimension is the mean over the
    group G of conj(chi(g)) tr(g), at most 2^L / |G| plus the largest
    |tr(g)| of an element other than 1, which is at most the states g
    fixes up to sign, 2^ceil(L/2) (a Pauli string other than +-1 has trace
    0).  |G| = 2n, twice that with q."""
    order = 2 * _generator(group, length)[1] * (1 if q is None else 2)
    return (1 << length) // order + 2 ** ((length + 1) // 2)


def _lanczos_charge(h: OperatorSum, group: str, count: int,
                    mirrored: bool, q=None) -> int:
    """Bytes family_low charges for a row h of an iterative family on the
    sectors of `group`, split by the Pauli integral q when there is one
    (_integrals), in real bases when `mirrored`, read without the orbit
    table, so that the first row is charged before any table is built
    (a block is built only for an own sector, none larger than
    _largest_sector): what lives through the solves (the orbit table, the
    real bases and every sector's kept vectors) plus the largest of four
    passes, each measured with tracemalloc at 14-18 sites: building the
    table and checking it (at most 64 bytes per state, but for the (r, p,
    q) table of 14 sites, 74, its checks' fixed ranges weighing more
    there), the real bases (100 per state), the largest
    block's build or solve, and the merge (an expansion's transients and
    four complex copies of every returned level's amplitudes, which bound
    a caller that reads them all)."""
    L = h.length
    dim = 1 << L
    d = _largest_sector(L, group, q)
    item = 8 if has_real_matrix(h) and (mirrored or group != "TP") else 16
    x_masks = len({x for x, _ in h.items()})
    n = min(count, d)
    ncv = _krylov(n, d)
    # the block's build, 96 bytes per row and x mask for the product in
    # real bases (30 without), and its solve: the block (1.5 entries per x
    # mask in real bases), ARPACK's vectors (about two per Krylov vector),
    # the residual's, and a dense block with eigh's copy
    build = d * x_masks * (100 if mirrored else 32)
    solve = (d * x_masks * (24 if mirrored else item + 4)
             + (2 * ncv + 3 * n + 8) * d * item
             + 3 * min(d, DENSE_BLOCK_STATES) ** 2 * item)
    kept = dim * (16 + (q is not None) + (36 if mirrored else 0)
                  + min(count, dim) * item)
    return kept + max(dim * 64, dim * 100 if mirrored else 0, build, solve,
                      dim * (100 + 64 * min(count, dim)))


# Blocks of at most this many states take a dense subset eigh in
# sector_lanczos, larger ones ARPACK.  Measured at a block's lowest 2 / 8
# levels (one BLAS thread, 2-core host): 165 states (a 12-site ring's real
# (k, p) block) 0.9 / 1.1 ms dense against 1.5 / 2.2 ms ARPACK, 315 (a
# 13-site ring's) 3.9 / 4.5 ms against 3.5 / 5.7 ms, 528 (an 11-site
# chain's (r, p) block) 12.9 / 15.4 ms against 4.3 / 6.3 ms.  A dense
# solve also keeps every copy of a level degenerate inside its block.  The
# chains of a decoupled frame are solved densely too (_frame_low), so an h
# with a path or cycle of more states keeps the sector path (_decoupled):
# a ring with lambda != 0 decouples at 4-9 sites (one cycle of 2L terms,
# a chain of 2^(L-1) states, 256 at 9 sites) and at 3k sites up to 24
# (three cycles, chains of 2^(k-1) states, 128 at 24 sites).
DENSE_BLOCK_STATES = 400

# Fewest levels sector_lanczos's first pass asks of an own sector, which
# otherwise asks for twice its even share of the window.  ARPACK's cost
# grows with the levels it converges: the 52 open-chain (r, p) block
# solves of one lanczos-spectrum block (12-14 sites, ncv 28, one BLAS
# thread, 2-core host, best of 7) took 0.72 s at 3 levels, 0.83 s at 4,
# 0.87 s at 6 and 0.97 s at 8.  Fewer than 4 saves little and makes a
# second pass more likely.
LANCZOS_LEVEL_FLOOR = 4


def sector_lanczos(h: OperatorSum, count: int, frame: tuple, need: int,
                   atol: float = 1e-8) -> tuple:
    """Lowest `count` levels of one row h of an iterative family, on the
    family's sectors `frame` (_sector_frame: the orbit table, its real
    bases and its twins), one solve per sector, one sector at a time.

    Returns (vals, labels, states, max_residual) as sector_low does for a
    row.  family_low reads the group, builds the frame once per family and
    charges each row before its call, `need` being that row's charge
    (_lanczos_charge): a ring's 2L (k, p) sectors of about 2^L / 2L
    states, an open chain's eight (r, p, q) blocks of about 2^(L-3),
    four of them the Q_a twins of the other four (L != 0 mod 3; family_low
    frames a chain whose Q has no partner, L = 0 mod 3, on its four (r,
    p) blocks of about 2^(L-2), as eight unpaired Lanczos solves cost more
    than four), or, for a family that R does not conserve either, the two
    parity blocks of 2^(L-1).  Each own sector's block is built alone as
    a CSR matrix (_sector_block), solved, and dropped before the next one
    is built; a sector the frame gives real bases takes the real block
    U^H B U, as in project_sectors.  A twin in the frame is no sector to
    solve: the solve of the own sector it reuses builds no block for it
    and gives it that solution as a signed column permutation
    (_SectorTable.twin_solution): conjugated for a -k twin (in real bases,
    where U(-k) = conj U(k), that solution as it is), Q_a applied for a
    chain's, as sector_low does.  A
    block of at most DENSE_BLOCK_STATES states takes a dense subset eigh,
    a larger one ARPACK with _krylov's vectors (_checked_low), whose retry
    is charged on top of `need`; every pair passes checked_residual on its
    own block against sum|coeff| of h.  The own sectors' counts are
    _sector_counts' two passes with LANCZOS_LEVEL_FLOOR; then sector_low's
    merge (_merge_levels) keeps the lowest `count`, labelled by parity,
    in sector form, each expanded from the orbit table on the first read
    of its amps.
    """
    table, bases, twins = frame
    norm_h = h.norm_bound()
    worst = 0.0

    def solve(i, t, n, at):
        """[(Sector i's (parity, energies, vectors), its lowest min(n, d)
        levels, followed, for a twin t >= 0, by the twin's, mapped by
        twin_solution)] for the one row."""
        nonlocal worst
        block = _sector_block(table, h, i, bases.get(i))
        size = block.shape[0]
        k = min(n, size)
        # ARPACK needs k < d - 1
        ncv = (None if size <= DENSE_BLOCK_STATES or k > size - 2
               else _krylov(k, size))
        e, w, residual = _checked_low(block, k, ncv, norm_h, need, h.length)
        worst = max(worst, residual)
        levels = [(table.keys[i][1], e, w)]
        if t >= 0:
            levels.append((table.keys[t][1], e, table.twin_solution(t, w)))
        return [tuple(levels)]

    solved, = _sector_counts(solve, twins, count, atol,
                             floor=LANCZOS_LEVEL_FLOOR)
    return (*_merge_levels(table, solved, count, atol, bases), worst)


def _decoupled(h: OperatorSum) -> tuple | None:
    """(paths, closing) when h's terms decouple: h's terms, as Hermitian
    strings (PauliString.hermitian), along the components of their
    anticommutation graph (pauli.TermTable.components), each a path or an
    even cycle, a cycle opened into the path T_1 ... T_{2n-1} of its walk
    and its last term T_{2n}, the closing term, set apart (closing[c],
    None for a path).  h decouples when the opened terms' symplectic
    vectors are independent over GF(2) (pauli.row_echelon), each closing
    term lies in the span of its own opened terms and the cycles' central
    X~s, T_1 T_3 ... T_{2n-1}, so that its image in the frame is allowed
    (clifford.PathFrame.closing_images), and each chain holds at most
    DENSE_BLOCK_STATES states, 2^ceil(n / 2) for a path of n terms and
    2^(n - 1) for a cycle of 2n.  None otherwise, as for a 10-site ring
    with lambda != 0 (one cycle of 20 terms, a chain of 2^9 states), a
    term that anticommutes with three others, an odd cycle, a dependent
    term or an h without terms.  Terms whose anticommutation graph is a
    union of paths make a free-fermion model (Chapman and Flammia,
    Quantum 4, 278 (2020)): every open chain's H_C + lambda H_I of 3-24
    sites takes three paths, and a ring's H_C alone one path per term.
    A ring's H_C + lambda H_I (lambda != 0) takes one cycle of 2L terms
    when 3 does not divide L, three cycles of 2L / 3 when it does, and
    decouples at 4-9 sites and at 12, 15, ..., 24.  Each walk, and so each
    closing term, follows the order of h's terms: the rings of
    models.perturbed_hamiltonian close every cycle at a YY term, while an
    order that closes a one-cycle ring, or an odd number of the three
    cycles, at a cluster term leaves the opened terms dependent, and h
    does not decouple."""
    strings = [PauliString.hermitian(h.length, x, z)
               for (x, z), _ in h.items()]
    if not strings:
        return None
    parts = TermTable(strings).components()
    if parts is None or any(closed and len(walk) % 2
                            for walk, closed in parts):
        return None
    paths = [[strings[t] for t in walk[:len(walk) - closed]]
             for walk, closed in parts]
    closing = [strings[walk[-1]] if closed else None
               for walk, closed in parts]
    opened = [s.vector for path in paths for s in path]
    centrals = [reduce(xor, (s.vector for s in path[::2]))
                for path, t in zip(paths, closing) if t is not None]
    if (any(1 << ((len(path) + 1) // 2 - (t is not None))
            > DENSE_BLOCK_STATES for path, t in zip(paths, closing))
            or len(row_echelon(opened)) < len(opened)):
        return None
    for path, t in zip(paths, closing):
        if t is not None and reduced(t.vector, row_echelon(
                [s.vector for s in path] + centrals)):
            return None
    return paths, closing


def _frame_low(h: OperatorSum, count: int, paths: list,
               closing: list) -> tuple:
    """(vals, states, max_residual) of the lowest `count` levels of an h
    whose terms decouple along `paths` closed by `closing` (_decoupled),
    solved in their Clifford frame (clifford.path_frame and
    PathFrame.closing_images, proven on the masks before they are used).
    Path c's canonical chain (clifford.chain_images, T_1 onto X_1, T_{2j}
    onto Z_j, T_{2j+1} onto X_j X_{j+1}, each with its coefficient in h)
    lies on its own ceil(n / 2) qubits.  A cycle's opened path leaves its last
    qubit's X~ = T_1 T_3 ... T_{2n-1} central, a sign that every term
    conserves: in each of the 2^m sectors of the m cycles' signs, every
    central X~ in its chain's and closing term's images is replaced by its
    sign, which leaves a chain on its other n - 1 qubits, T_{2n-1} onto
    its sign times X_{n-1}.  Each chain takes one dense subset eigh of its
    lowest min(count, d) levels (_subset_eigh), every pair through
    checked_residual against the chain's sum|coeff|, shared by the
    sectors that give it the same signs.  A level is a sum of one level
    per chain, each sum taken 2^free times for the frame's free qubits:
    each sector's lowest `count` are merged a chain at a time, ties in the
    order of the chains' levels, and then the sectors', ties in sector
    order (sector s, 0 <= s < 2^m, gives cycle i the sign -1 where bit
    m - 1 - i of s is set).  max_residual is the largest, over the returned levels, of the
    sum of their chains' residuals, which bounds ||Hv - Ev|| in the full
    space, since the chains commute and act on their own qubits of the
    frame.  With no cycle there is one sector.  The states stay in frame
    form (_FrameState), a cycle's chain vector psi lifted to its n qubits
    as psi (x) (|0> + c|1>) / sqrt(2), the eigenvector of its central X~
    of sign c, formed when read; the memory they may take once read is
    charged first (_check_memory)."""
    L = h.length
    dim = 1 << L
    n = min(count, dim)
    _check_memory(dim * 16 * (n + 4), "iterative", L,
                  f"{n} states and one expansion in the decoupled frame")
    frame = path_frame(L, paths)
    closes = frame.closing_images(closing)
    cycles = [first + q - 1 for (first, q), t in zip(frame.blocks, closing)
              if t is not None]
    chains = []
    for path, t, image, (first, _) in zip(paths, closing, closes,
                                          frame.blocks):
        images = chain_images(len(path), first, L)
        if t is not None:
            path, images = path + [t], images + [image]
        chains.append(([h.coefficient(s).real for s in path], images))
    vectors = [[] for _ in paths]
    solved = {}

    def solve(c, negative):
        """(e, residual, offset) of chain c with the cycles' central X~s of
        `negative` (a mask) at -1, the others at +1: its levels, their
        residuals, and the column of its first vector in vectors[c]."""
        coeffs, images = chains[c]
        first, q = frame.blocks[c]
        central = closing[c] is not None
        key = (c,) + tuple((p.x_mask & negative).bit_count() & 1
                           for p in images)
        if key not in solved:
            k = q - central
            shift, keep = L - first - k, (1 << k) - 1
            chain = OperatorSum.from_terms(k, zip(coeffs, (
                PauliString(k, p.phase_exp + 2 * sign,
                            p.x_mask >> shift & keep, p.z_mask >> shift & keep)
                for p, sign in zip(images, key[1:]))))
            m = dense_matrix(chain)
            e, w = _subset_eigh(m, min(count, m.shape[0]))
            # one residual per pair: each pair a stack of its own
            residual = checked_residual((m @ w).T[:, :, None],
                                        w.T[:, :, None], e[:, None],
                                        chain.norm_bound())
            if central:
                # the central qubit, the last of the block, in the
                # eigenstate of its X~ of the sector's sign
                sign = -1.0 if negative >> (L - first - q) & 1 else 1.0
                w = np.repeat(w, 2, axis=0) / np.sqrt(2.0)
                w[1::2] *= sign
            solved[key] = e, residual, sum(v.shape[1] for v in vectors[c])
            vectors[c].append(w)
        return solved[key]

    sectors = []
    for signs in range(1 << len(cycles)):
        negative = sum(1 << (L - 1 - j) for i, j in enumerate(cycles)
                       if signs >> (len(cycles) - 1 - i) & 1)
        vals, worst = np.zeros(1), np.zeros(1)
        picks = np.zeros((1, 0), dtype=np.intp)
        for c in range(len(paths)):
            e, residual, offset = solve(c, negative)
            vals, worst, picks = _merged_sums(vals, worst, picks, e,
                                              residual, count)
            picks[:, -1] += offset
        free = np.zeros(min(count, 1 << frame.free))
        sectors.append(_merged_sums(vals, worst, picks, free, free, count))
    vals, worst, picks = (np.concatenate(a) for a in zip(*sectors))
    keep = np.argsort(vals, kind="stable")[:count]
    vals, worst, picks = vals[keep], worst[keep], picks[keep]
    solution = _FrameSolution(frame, [np.column_stack(v) for v in vectors])
    states = tuple(_FrameState(solution, p) for p in picks.tolist())
    return vals, states, float(worst.max())


def _merged_sums(vals, worst, picks, e, residual, count: int) -> tuple:
    """The lowest `count` sums of the merged levels `vals` and a chain's
    levels e, ascending, ties in (merged, chain) order: (sums, their
    residuals summed likewise, picks with each sum's chain level added as a
    column)."""
    total = (vals[:, None] + e).ravel()
    keep = np.argsort(total, kind="stable")[:count]
    prev, new = np.divmod(keep, e.size)
    return (total[keep], worst[prev] + residual[new],
            np.column_stack([picks[prev], new]))


class _FrameSolution:
    """What the levels of one _frame_low call share: the frame, each
    chain's vectors, and the reference state |s>, the joint +1
    eigenvector of every Z~ of the frame, formed on the first read of a
    level's amplitudes and kept for the next."""

    def __init__(self, frame, vectors: list):
        self.frame, self.vectors = frame, vectors

    def amps(self, picks: list) -> np.ndarray:
        """Prod_c A_c X~_free^f |s>: picks[c] the column of chain c's
        vectors psi_c, A_c = sum_b psi_c[b] X~^b over its qubits, applied as
        one OperatorSum (_act), and f, the last pick, the free qubits'
        bits."""
        frame = self.frame
        L = frame.length

        def flip(first, q, b):
            """X~^b on the q qubits from `first`, qubit `first` the top bit
            of b, as in a chain's basis."""
            p = PauliString.identity(L)
            for j in range(q):
                if b >> (q - 1 - j) & 1:
                    p = p * frame.xs[first + j]
            return p

        vec = _act(OperatorSum.from_pauli(
            flip(L - frame.free, frame.free, picks[-1])), self.reference)
        for (first, q), w, pick in zip(frame.blocks, self.vectors, picks):
            vec = _act(OperatorSum.from_terms(L, (
                (w[b, pick], flip(first, q, b)) for b in range(1 << q))), vec)
        return vec

    @cached_property
    def reference(self) -> np.ndarray:
        """|s>, from L projections (1 + Z~_j) of a fixed-seed vector,
        normalized."""
        vec = np.random.default_rng(0).standard_normal(
            1 << self.frame.length).astype(np.complex128)
        for z in self.frame.zs:
            vec += _act(OperatorSum.from_pauli(z), vec)
        vec /= np.linalg.norm(vec)
        return vec


class _FrameState(StateVector):
    """A level _frame_low keeps in frame form: its picks, one chain level
    per chain and the free qubits' bits, and the solution it shares with
    the other levels (_FrameSolution); its 2^L amplitudes are formed on
    the first read of amps and kept, and the solution dropped."""

    __slots__ = ("picks", "_solution")

    def __init__(self, solution: _FrameSolution, picks: list):
        self.length = solution.frame.length
        self._amps = None
        self.picks, self._solution = picks, solution

    def _form(self) -> np.ndarray:
        """The frame's amplitudes of the picks, dropping the solution."""
        amps = self._solution.amps(self.picks)
        self._solution = None
        return amps


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

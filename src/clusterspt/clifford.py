"""Conjugation of Pauli strings by controlled-phase (CZ) circuits.

CZ gates are diagonal, Hermitian and involutive, and they map Pauli strings to
Pauli strings: conjugation by CZ on edge (i, j) decorates an X or Y at one end
with a Z at the other end and fixes Z.  A full chain circuit (one CZ per bond)
implements the basis change that turns each three-site cluster term into a
single X letter.  Circuits are stored as edge lists only; the dense form never
appears outside test oracles.

The bond circuit of a lattice has a closed form on the masks, which
`conjugate_ucp` takes in one step: every X bit drops a Z on both neighbours,
z ^= (x << 1) ^ (x >> 1) (bit rotations on a ring), and each bond with an X
at both ends adds a sign, phase_exp += 2 popcount(x & (x >> 1)).  A general
CzCircuit goes gate by gate through `conjugate_circuit`.

`path_frame` builds the Clifford frame of anticommutation paths by
symplectic Gram-Schmidt on pauli's GF(2) layer: the strings' symplectic
vectors (PauliString.vector, read back by PauliString.from_vector), their
form (pauli.symplectic_form) and row_echelon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError
from .pauli import (OperatorSum, PauliString, TermTable, row_echelon,
                    symplectic_form)


@dataclass(frozen=True)
class CzCircuit:
    """An ordered list of CZ edges on a chain of `length` sites.

    CZ gates commute pairwise, so edge order never affects conjugation.
    """

    length: int
    edges: tuple

    def __post_init__(self):
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"degenerate edge ({i},{j})")
            if not (1 <= i <= self.length and 1 <= j <= self.length):
                raise IndexError(f"edge ({i},{j}) outside 1..{self.length}")

    @classmethod
    def chain(cls, length: int, periodic: bool = False) -> "CzCircuit":
        """Nearest-neighbour bond circuit: (1,2) ... (L-1,L), plus (L,1) when
        periodic."""
        edges = [(i, i + 1) for i in range(1, length)]
        if periodic:
            edges.append((length, 1))
        return cls(length, tuple(edges))


def conjugate_cz(p: PauliString, i: int, j: int) -> PauliString:
    """Conjugate one Pauli string by CZ on sites (i, j).

    X_i -> X_i Z_j, Y_i -> Y_i Z_j, Z_i -> Z_i, symmetrically in i and j.
    When both sites carry an X bit the two picked-up Z's cross the X's and
    contribute an overall -1.
    """
    if i == j:
        raise ValueError("CZ needs two distinct sites")
    length = p.length
    if not (1 <= i <= length and 1 <= j <= length):
        raise IndexError(f"CZ edge ({i},{j}) outside 1..{length}")
    bit_i = 1 << (length - i)
    bit_j = 1 << (length - j)
    xi = bool(p.x_mask & bit_i)
    xj = bool(p.x_mask & bit_j)
    z = p.z_mask
    if xi:
        z ^= bit_j
    if xj:
        z ^= bit_i
    e = p.phase_exp + (2 if (xi and xj) else 0)
    return PauliString(length, e, p.x_mask, z)


def _conjugate(obj, length: int, image):
    """image(p) of a PauliString p, or of each term of an OperatorSum in
    order, once the object is checked to live on the circuit's `length`
    sites."""
    if isinstance(obj, PauliString):
        kind = "string"
    elif isinstance(obj, OperatorSum):
        kind = "sum"
    else:
        raise TypeError(f"cannot conjugate {type(obj).__name__}")
    if obj.length != length:
        raise LengthMismatchError(
            f"{kind} on {obj.length} sites, circuit on {length}")
    if kind == "string":
        return image(obj)
    return OperatorSum.from_terms(
        length, ((coeff, image(p)) for coeff, p in obj.iter_terms()))


def conjugate_circuit(obj, circuit: CzCircuit):
    """Conjugate a PauliString or OperatorSum by every edge of the circuit.

    Linear over terms; coefficients keep their magnitude (signs may flip).
    """
    def image(p):
        for (i, j) in circuit.edges:
            p = conjugate_cz(p, i, j)
        return p

    return _conjugate(obj, circuit.length, image)


def conjugate_ucp(obj, lattice):
    """Conjugate by the full bond circuit of the given lattice.

    The circuit is an involution (CZ squared is the identity), so applying
    this twice returns the input.  On open chains the basis change sends each
    bulk cluster term Z X Z to a single X letter.  Equal to
    conjugate_circuit(obj, CzCircuit.chain(...)), phases and term order
    included, but in closed form on the masks: one step per string, and a
    sum term by term as conjugate_circuit takes it.
    """
    periodic = lattice.is_periodic
    return _conjugate(obj, lattice.length,
                      lambda p: _bond_image(p, periodic))


def _bond_image(p: PauliString, periodic: bool) -> PauliString:
    """p conjugated by the bond circuit of its chain (a ring if periodic)."""
    length, x = p.length, p.x_mask
    # site j + 1 is the bit below site j's; a ring wraps the end bits
    if periodic:
        right = x >> 1 | (x & 1) << (length - 1)
        left = (x << 1 | x >> (length - 1)) & ((1 << length) - 1)
    else:
        right = x >> 1
        left = (x << 1) & ((1 << length) - 1)
    sign = 2 * ((x & right).bit_count() & 1)
    return PauliString(length, p.phase_exp + sign, x, p.z_mask ^ left ^ right)


@dataclass(frozen=True)
class PathFrame:
    """A Clifford frame on `length` qubits read off anticommutation paths
    (path_frame): Hermitian strings xs[j] and zs[j] that a Clifford U
    maps onto X and Z of qubit j + 1 (0-based j, qubit 1 the most
    significant bit of a mask), U xs[j] U^dagger = X_{j+1} and U zs[j]
    U^dagger = Z_{j+1}.  Path c owns the qubits blocks[c] = (first,
    count), first 0-based, in path order; the qubits after the last block
    are free.  U itself is never formed: every image is read off the
    masks (images).
    """

    length: int
    xs: tuple
    zs: tuple
    blocks: tuple

    @property
    def free(self) -> int:
        """The qubits no path owns."""
        return self.length - sum(n for _, n in self.blocks)

    def images(self, strings) -> list:
        """U p U^dagger of each Pauli string p, read off one symplectic
        pass (TermTable.anticommuting) of p against the frame: X bit j is
        <p, zs[j]>, Z bit j is <p, xs[j]>, and the phase is p's over that
        of the product of the xs, then the zs, with those bits.  Raises
        ValueError when that product's masks are not p's, which only a
        set of strings that is no frame gives."""
        L = self.length
        strings = list(strings)
        links = TermTable(self.xs + self.zs + tuple(strings)).anticommuting()
        out = []
        for p, row in zip(strings, links[2 * L:]):
            a = np.flatnonzero(row[L:2 * L]).tolist()
            b = np.flatnonzero(row[:L]).tolist()
            q = self._product(a, b)
            if (q.x_mask, q.z_mask) != (p.x_mask, p.z_mask):
                raise ValueError(f"{p.label()} is not a product of the "
                                 "frame's strings")
            out.append(PauliString(L, p.phase_exp - q.phase_exp,
                                   _qubit_mask(L, a), _qubit_mask(L, b)))
        return out

    def _product(self, a, b) -> PauliString:
        """The product of xs[j] for j in a, then of zs[j] for j in b."""
        q = PauliString.identity(self.length)
        for s in [self.xs[j] for j in a] + [self.zs[j] for j in b]:
            q = q * s
        return q

    def closing_images(self, closing) -> list:
        """The images of the terms that close paths into cycles, closing[c]
        the term T_{2n} that closes path c, T_1 ... T_{2n-1}, into a cycle
        (None for a path that stays open), each proven on the masks before
        it is returned: the image (images) multiplied back through the
        frame, the xs, then the zs, of its bits, with its phase, must be
        its term, and it must act on its own block's qubits but the last
        and, on the last qubit of a cycle's block, which holds that
        cycle's central X~ = T_1 T_3 ... T_{2n-1}, by X~ only: no Z~ there,
        nothing on another block's other qubits or on a free qubit.
        Raises ValueError otherwise."""
        L = self.length
        central = _qubit_mask(L, [first + n - 1 for (first, n), t
                                  in zip(self.blocks, closing)
                                  if t is not None])
        images = iter(self.images(t for t in closing if t is not None))
        out = []
        for (first, n), term in zip(self.blocks, closing):
            if term is None:
                out.append(None)
                continue
            p = next(images)
            own = _qubit_mask(L, range(first, first + n - 1))
            if p.x_mask & ~(own | central) or p.z_mask & ~own:
                raise ValueError(f"{term.label()} maps onto {p.label()}, "
                                 "off its block and the central X~s")
            q = self._product(_qubits(L, p.x_mask), _qubits(L, p.z_mask))
            if PauliString(L, q.phase_exp + p.phase_exp, q.x_mask,
                           q.z_mask) != term:
                raise ValueError(f"{term.label()} does not map onto "
                                 f"{p.label()}")
            out.append(p)
        return out

    def check(self, paths) -> None:
        """Raise ValueError unless the frame is one and maps every path onto
        its chain: `length` Hermitian xs and zs in the canonical relations
        (xs[i] and zs[j] anticommute iff i = j, all other pairs commute),
        decided on the masks in one symplectic pass, and each term of path
        c, phase included, onto its image in chain_images on the qubits of
        blocks[c]."""
        L = self.length
        strings = self.xs + self.zs
        if (len(self.xs) != L or len(self.zs) != L
                or len(self.blocks) != len(paths)
                or not all(p.is_hermitian for p in strings)):
            raise ValueError("the frame has no Hermitian pair per qubit "
                             "or no block per path")
        canonical = np.zeros((2 * L, 2 * L), dtype=bool)
        canonical[:L, L:] = canonical[L:, :L] = np.eye(L, dtype=bool)
        if not (TermTable(strings).anticommuting() == canonical).all():
            raise ValueError("the frame's strings fail a canonical relation")
        terms = [t for path in paths for t in path]
        chains = [p for path, (first, _) in zip(paths, self.blocks)
                  for p in chain_images(len(path), first, L)]
        for term, got, want in zip(terms, self.images(terms), chains):
            if got != want:
                raise ValueError(f"{term.label()} maps onto {got.label()}, "
                                 f"not onto its chain image {want.label()}")


def _qubit_mask(length: int, qubits) -> int:
    """The mask of 0-based qubits on `length` (qubit 0 the top bit)."""
    return sum(1 << (length - 1 - j) for j in qubits)


def _qubits(length: int, mask: int) -> list:
    """The 0-based qubits of a mask on `length`, ascending (_qubit_mask's
    inverse)."""
    return [j for j in range(length) if mask >> (length - 1 - j) & 1]


def chain_images(n: int, first: int, length: int) -> list:
    """The images of a path's n terms T_1 ... T_n on the qubits from
    `first` (0-based) of `length`: T_1 onto X_1, T_{2j} onto Z_j and
    T_{2j+1} onto X_j X_{j+1}, qubit j being first + j - 1, each with a
    +1 prefix.  A path of n terms takes ceil(n / 2) qubits."""
    out = []
    for k in range(n):
        j = first + (k - 1) // 2
        if k == 0:
            out.append(PauliString(length, 0, _qubit_mask(length, [first]),
                                   0))
        elif k % 2:
            out.append(PauliString(length, 0, 0, _qubit_mask(length, [j])))
        else:
            out.append(PauliString(length, 0,
                                   _qubit_mask(length, [j, j + 1]), 0))
    return out


def path_frame(length: int, paths) -> PathFrame:
    """The frame (PathFrame) of anticommutation paths on `length` sites,
    each path a sequence T_1 ... T_n of Hermitian strings in walk order
    (pauli.TermTable.components) whose consecutive terms anticommute and
    whose other pairs, within and across paths, commute, all terms
    independent over GF(2).

    Path c takes the next ceil(n / 2) qubits, with xs = X~_1 = T_1, X~_{j+1}
    = X~_j T_{2j+1} and zs = Z~_j = T_{2j}, so that U maps its terms onto
    chain_images.  An odd path's last X~ commutes with every term and
    takes a partner Z~; free pairs complete the basis.  Both come from
    symplectic Gram-Schmidt on the strings' symplectic vectors
    (PauliString.vector, pauli.symplectic_form): the partners are the rows
    of the reduced row echelon basis (pauli.row_echelon) of the complement
    of the paths' pairs whose products with the central X~s are unit
    vectors, each then made to commute with those before it; the free
    pairs take the complement of every pair so far, two vectors of it at
    a time.  The frame is checked (PathFrame.check) before it is returned:
    ValueError on a failure."""
    L = length

    def project(v, pairs):
        """v less its components along the symplectic pairs, flattened as
        x, z, x, z, ...: x_i when <v, z_i> = 1 and z_i when <v, x_i> = 1.
        The pairs are orthogonal to each other, so every product is read
        off v itself, all in one pass."""
        products = symplectic_form(v, pairs, L)
        while products:
            low = products & -products
            v ^= pairs[(low.bit_length() - 1) ^ 1]
            products ^= low
        return v

    xs, zs, blocks, central = [], [], [], []
    for path in paths:
        first = len(xs)
        xs.append(path[0])
        for k in range(1, len(path), 2):
            zs.append(path[k])
            if k + 1 < len(path):
                xs.append(xs[-1] * path[k + 1])
        if len(path) % 2:
            central.append(len(xs) - 1)
            zs.append(None)
        blocks.append((first, len(xs) - first))
    pairs = [p.vector for x, z in zip(xs, zs) if z is not None
             for p in (x, z)]
    tops = [xs[j].vector for j in central]
    k, units = len(tops), [project(1 << f, pairs) for f in range(2 * L)]
    # each row's bits above 2L are its products with the central X~s, the
    # first X~'s highest: reduced, the first k rows have one such bit each
    rows = row_echelon(symplectic_form(w, tops[::-1], L) << (2 * L) | w
                       for w in units)
    mates = [row & ((1 << 2 * L) - 1) for row in rows[:k]]
    for j in range(len(mates)):
        for i in range(j):
            if symplectic_form(mates[i], [mates[j]], L):
                mates[j] ^= tops[i]
    for j, a, b in zip(central, tops, mates):
        zs[j] = PauliString.from_vector(L, b)
        pairs += [a, b]
    rest = [project(1 << f, pairs) for f in range(2 * L)]
    while any(rest):
        u = next(v for v in rest if v)
        products = symplectic_form(u, rest, L)
        if not products:
            raise ValueError("the paths' pairs leave no symplectic "
                             "complement")
        w = rest[(products & -products).bit_length() - 1]
        xs.append(PauliString.from_vector(L, u))
        zs.append(PauliString.from_vector(L, w))
        rest = [project(v, [u, w]) for v in rest]
    if None in zs:
        raise ValueError("a central X~ found no partner")
    frame = PathFrame(L, tuple(xs), tuple(zs), tuple(blocks))
    frame.check(paths)
    return frame

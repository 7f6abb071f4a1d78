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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatchError
from .pauli import OperatorSum, PauliString


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

"""Constructors for every named operator of the cluster-chain model family.

Covers the three-site stabilizers and their Hamiltonian, the four edge
generators and their 15 nontrivial products, the Ising-type perturbation, the
parity and edge-string symmetries, and the two-term global symmetries that
protect the fourfold ground space on open chains whose length is an odd
multiple of three.

Conventions.  The cluster term used throughout is Z X Z (Z on the neighbours,
X in the middle).  Some of the companion symmetry strings in circulation are
written for the dual convention with the roles of X and Z exchanged; those
literal forms are exposed unmodified (`parity_and_timereversal`) next to their
translations into this convention (`spin_flip_symmetries`), and a cross-check
reports where the literal forms fail instead of silently correcting them.

`build_model` returns a registry that knows every operator name up front and
builds each entry on its first read, memoized on that model only: an audit
that reads H_C, the symmetry halves and the forbidden products never builds
the S_i entries, the parity pairs or the local symmetries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .clifford import conjugate_ucp
from .errors import DomainError
from .pauli import OperatorSum, PauliString

_SQRT2 = math.sqrt(2.0)

# The largest |lambda| a model takes: the solvers' float checks square
# coefficient sums (_implied_leak, the residual norms), which overflow
# above about 1e154.
COUPLING_CAP = 1e150


@dataclass(frozen=True)
class LatticeSpec:
    """Chain length and boundary condition."""

    length: int
    boundary: str = "open"

    def __post_init__(self):
        if self.boundary not in ("open", "periodic"):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        if self.length < 3:
            raise DomainError("chain needs at least 3 sites")

    @property
    def is_open(self) -> bool:
        return self.boundary == "open"

    @property
    def is_periodic(self) -> bool:
        return self.boundary == "periodic"

    def site_mod(self, i: int) -> int:
        """Wrap a site index onto 1..L (periodic arithmetic)."""
        return (i - 1) % self.length + 1

    def stabilizer_sites(self):
        """Centre sites carrying a stabilizer: 2..L-1 open, all sites periodic."""
        if self.is_open:
            return range(2, self.length)
        return range(1, self.length + 1)

    def bonds(self):
        """Nearest-neighbour bonds (i, i+1), plus the wrap bond when periodic."""
        out = [(i, i + 1) for i in range(1, self.length)]
        if self.is_periodic:
            out.append((self.length, 1))
        return out

    def supports_global_symmetry(self) -> bool:
        """Global two-term symmetries need an open chain with L in {9,15,21,...}."""
        return self.is_open and self.length >= 9 and self.length % 6 == 3


def stabilizer(i: int, lattice: LatticeSpec) -> PauliString:
    """Three-site term Z_{i-1} X_i Z_{i+1} centred on site i.

    Open chains omit the boundary sites via the convention that sites 0 and
    L+1 carry no operator, which removes the i=1 and i=L stabilizers.
    """
    L = lattice.length
    if lattice.is_open:
        if not 2 <= i <= L - 1:
            raise DomainError(
                f"open chain has stabilizers only on 2..{L - 1}, got {i}")
        left, right = i - 1, i + 1
    else:
        if not 1 <= i <= L:
            raise DomainError(f"site {i} outside 1..{L}")
        left, right = lattice.site_mod(i - 1), lattice.site_mod(i + 1)
    return PauliString.from_sites(L, {left: "Z", i: "X", right: "Z"})


def cluster_hamiltonian(lattice: LatticeSpec) -> OperatorSum:
    """H = -sum_i Z_{i-1} X_i Z_{i+1}: L-2 terms open, L terms periodic."""
    return OperatorSum.from_terms(
        lattice.length,
        ((-1.0, stabilizer(i, lattice)) for i in lattice.stabilizer_sites()))


def edge_generators(lattice: LatticeSpec) -> list:
    """The four boundary operators commuting with the open Hamiltonian:
    Z_1, Z_L, X_1 Z_2, Z_{L-1} X_L.  They generate the algebra acting inside
    the fourfold ground space."""
    if not lattice.is_open:
        raise DomainError("edge generators exist only on open chains")
    L = lattice.length
    return [
        PauliString.single(L, 1, "Z"),
        PauliString.single(L, L, "Z"),
        PauliString.from_sites(L, {1: "X", 2: "Z"}),
        PauliString.from_sites(L, {L - 1: "Z", L: "X"}),
    ]


def forbidden_set(lattice: LatticeSpec) -> list:
    """All 15 nontrivial products of subsets of the edge generators.

    The generators square to the identity and commute pairwise up to sign, so
    subset products exhaust the generated group up to phase.  Each product is
    canonicalized to its Hermitian representative with a +1 prefix, so only
    its masks matter: they are the XOR of the generators' masks.  The list
    is deduplicated by masks and sorted by (weight, letters) for stable
    reports.  Any one of these operators, added to the Hamiltonian, splits the
    ground degeneracy, which is what the global symmetries must rule out.
    """
    L = lattice.length
    masks = [(0, 0)]
    for g in edge_generators(lattice):
        masks += [(x ^ g.x_mask, z ^ g.z_mask) for x, z in masks]

    def order(xz):
        """(weight, letters), the letters as the number whose base-4 digits
        are 2z + (x ^ z) per site, site 1 first: I, X, Y, Z ascending."""
        x, z = xz
        return (x | z).bit_count(), 2 * int(f"{z:b}", 4) + int(f"{x ^ z:b}", 4)

    return [OperatorSum.from_pauli(PauliString.hermitian(L, x, z))
            for x, z in sorted(set(masks[1:]), key=order)]


def local_symmetry_pair(s: int, lattice: LatticeSpec):
    """The two anticommuting edge strings whose sum is a local symmetry."""
    if not lattice.is_open:
        raise DomainError("local symmetries are defined on open chains")
    L = lattice.length
    if L < 4:
        raise DomainError("local symmetry needs at least 4 sites")
    if s == 1:
        a = PauliString.from_sites(L, {1: "X", 2: "Z", L - 1: "Z", L: "Y"})
        b = PauliString.from_sites(L, {1: "Z", L - 1: "Z", L: "Y"})
    elif s == 2:
        a = PauliString.from_sites(L, {L - 1: "Z", L: "Y"})
        b = PauliString.from_sites(L, {1: "Y", 2: "Z", L: "Z"})
    else:
        raise DomainError(f"symmetry index must be 1 or 2, got {s}")
    return a, b


def local_symmetry(s: int, lattice: LatticeSpec) -> OperatorSum:
    """T_s = (A_s + B_s)/sqrt(2) built from edge strings; squares to one."""
    a, b = local_symmetry_pair(s, lattice)
    return (OperatorSum.from_pauli(a) + OperatorSum.from_pauli(b)) / _SQRT2


# Conjugated-basis patterns of the global symmetry halves for L = 6m + 3.
# Blocks of four X followed by two identities sweep the bulk; small edge
# decorations close the strings.  These patterns commute with the conjugated
# Hamiltonian (a sum of single X letters on bulk sites) by construction.
def _tau_patterns(L: int) -> dict:
    m = (L - 3) // 6
    return {
        "A1": "XXXXII" * m + "XXY",
        "B1": "ZIXXXX" + "IIXXXX" * (m - 1) + "IIY",
        "A2": "IXXXXI" * m + "IXY",
        "B2": "YIIXXX" + "XIIXXX" * (m - 1) + "XIZ",
    }


# Literal printed products for the same four operators in the working basis,
# as six-site blocks plus a three-site tail.  A1 and B1 reproduce the
# canonical forms exactly; A2 matches up to sign; the printed B2 does not
# match (see cross_check_global), which is why the canonical patterns above
# are the source of truth.
_PRINTED_BLOCKS = {
    "A1": ("YXXYZZ", "YXX"),
    "B1": ("ZZYXXY", "ZZY"),
    "A2": ("ZYXXYZ", "ZYX"),
    "B2": ("YZXYXX", "YZZ"),
}


def _require_global(lattice: LatticeSpec):
    if not lattice.supports_global_symmetry():
        raise DomainError(
            "global symmetries need an open chain with length in {9,15,21,...} "
            f"(odd multiples of 3), got {lattice.boundary} L={lattice.length}")


def printed_global_string(name: str, lattice: LatticeSpec) -> PauliString:
    """The literal printed product for A1, B1, A2 or B2."""
    _require_global(lattice)
    block, tail = _PRINTED_BLOCKS[name]
    m = (lattice.length - 3) // 6
    return PauliString.from_letters(block * m + tail)


def global_symmetry_pair(s: int, lattice: LatticeSpec):
    """The halves (A_s, B_s) of a global symmetry, as PauliStrings: the
    canonical block patterns conjugated back into the working basis."""
    _require_global(lattice)
    if s not in (1, 2):
        raise DomainError(f"symmetry index must be 1 or 2, got {s}")
    pats = _tau_patterns(lattice.length)
    a = conjugate_ucp(PauliString.from_letters(pats[f"A{s}"]), lattice)
    b = conjugate_ucp(PauliString.from_letters(pats[f"B{s}"]), lattice)
    return a, b


def global_symmetry(s: int, lattice: LatticeSpec) -> OperatorSum:
    """T_s = (A_s + B_s)/sqrt(2).

    The 1/sqrt(2) makes T_s square to the identity given A^2 = B^2 = 1 and
    {A, B} = 0; both the normalized and raw forms appear in reports.
    """
    a, b = global_symmetry_pair(s, lattice)
    return (OperatorSum.from_pauli(a) + OperatorSum.from_pauli(b)) / _SQRT2


def cross_check_global(lattice: LatticeSpec) -> list:
    """Compare each printed product, conjugated by the bond circuit, against
    its canonical block pattern.

    Returns one entry per operator: whether the masks agree, the relative
    phase when they do, and both labels.  Mismatches are reported, never
    corrected.
    """
    _require_global(lattice)
    pats = _tau_patterns(lattice.length)
    entries = []
    for name in ("A1", "B1", "A2", "B2"):
        printed = printed_global_string(name, lattice)
        conjugated = conjugate_ucp(printed, lattice)
        canonical = PauliString.from_letters(pats[name])
        same_masks = (conjugated.x_mask == canonical.x_mask
                      and conjugated.z_mask == canonical.z_mask)
        phase_delta = ((conjugated.phase_exp - canonical.phase_exp) % 4
                       if same_masks else None)
        entries.append({
            "name": name,
            "matches": same_masks and phase_delta in (0, 2),
            "phase_exp_delta": phase_delta,
            "printed": printed.label(),
            "printed_conjugated": conjugated.label(),
            "canonical_pattern": canonical.label(),
        })
    return entries


def _check_coupling(lam) -> None:
    """Raise DomainError unless lam is real, finite and at most
    COUPLING_CAP in magnitude."""
    if not abs(lam) <= COUPLING_CAP or lam.imag:
        raise DomainError(f"coupling must be real, finite and at most "
                          f"{COUPLING_CAP:g} in magnitude, got {lam:g}")


def ising_perturbation(lattice: LatticeSpec, lam: float) -> OperatorSum:
    """lam * sum over bonds of Y_i Y_{i+1}; empty at lam = 0."""
    _check_coupling(lam)
    L = lattice.length
    return OperatorSum.from_terms(
        L,
        ((lam, PauliString.from_sites(L, {i: "Y", j: "Y"}))
         for (i, j) in lattice.bonds()))


def perturbed_hamiltonian(lattice: LatticeSpec, lam: float) -> OperatorSum:
    """Cluster Hamiltonian plus the Ising-type perturbation."""
    return cluster_hamiltonian(lattice) + ising_perturbation(lattice, lam)


def parity_and_timereversal(lattice: LatticeSpec):
    """The literal pair (product of Z over all sites, Y Z...Z Y edge string).

    These are the forms stated for the dual convention of the cluster term;
    against the Z X Z convention used here the Z-product anticommutes with
    every cluster term.  See spin_flip_symmetries for the translated pair
    that commutes with this module's Hamiltonian.  Time reversal itself is
    antiunitary and is exposed as the realness check on the Hamiltonian's
    computational-basis matrix, not as an operator.
    """
    return _parity_pair(lattice.length, "Z")


def spin_flip_symmetries(lattice: LatticeSpec):
    """The global spin flip (product of X) and the Y X...X Y edge string.

    These are the previous pair translated to the Z X Z convention.  The X
    product commutes with every cluster term and with every Y Y bond, for any
    coupling; the edge string commutes with the cluster terms.
    """
    return _parity_pair(lattice.length, "X")


def _parity_pair(length: int, bulk: str):
    """(the product of `bulk` over all sites, the edge string with Y on
    sites 1 and L and `bulk` between), as OperatorSums."""
    letters = {1: "Y", length: "Y"}
    letters.update({j: bulk for j in range(2, length)})
    return (OperatorSum.from_pauli(PauliString.from_letters(bulk * length)),
            OperatorSum.from_pauli(PauliString.from_sites(length, letters)))


class LazyRegistry(Mapping):
    """Read-only map from operator name to OperatorSum whose names are fixed
    up front and whose entries are built on first read.

    `groups` lists (names, build) pairs in key order; build() returns the
    operators for all of its names at once (the 15 forbidden products come
    from one forbidden_set call).  Built entries are kept by this registry
    only, so a second read returns the same object and two registries share
    nothing.  Assignment raises TypeError, as on a MappingProxyType.
    """

    __slots__ = ("_group", "_built")

    def __init__(self, groups):
        self._group = {}
        for names, build in groups:
            for name in names:
                self._group[name] = (names, build)
        self._built = {}

    def __getitem__(self, name):
        try:
            return self._built[name]
        except KeyError:
            names, build = self._group[name]   # KeyError for unknown names
        self._built.update(zip(names, build(), strict=True))
        return self._built[name]

    def __iter__(self):
        return iter(self._group)

    def __len__(self):
        return len(self._group)

    def __contains__(self, name):
        return name in self._group


@dataclass(frozen=True)
class ModelSpec:
    """A lattice and a registry of every named operator."""

    lattice: LatticeSpec
    registry: Mapping = field(default_factory=lambda: MappingProxyType({}))

    def __post_init__(self):
        for name, op in self.registry.items():
            if op.length != self.lattice.length:
                raise DomainError(f"registry entry {name} has wrong length")


def _registry_groups(lattice: LatticeSpec, lam: float) -> list:
    """(names, build) pairs of the registry, in key order."""
    def pauli(strings):
        return [OperatorSum.from_pauli(p) for p in strings]

    groups = [((f"S_{i}",),
               lambda i=i: (OperatorSum.from_pauli(stabilizer(i, lattice)),))
              for i in lattice.stabilizer_sites()]
    groups += [
        (("H_C",), lambda: (cluster_hamiltonian(lattice),)),
        (("H_I",), lambda: (ising_perturbation(lattice, lam),)),
        (("parity_z", "string_zy"), lambda: parity_and_timereversal(lattice)),
        (("parity_x", "string_yx"), lambda: spin_flip_symmetries(lattice)),
    ]
    if lattice.is_open:
        groups.append((("G_1", "G_2", "G_3", "G_4"),
                       lambda: pauli(edge_generators(lattice))))
        # the four generators are independent, so all 15 products differ
        groups.append((tuple(f"Sigma_{k:02d}" for k in range(1, 16)),
                       lambda: forbidden_set(lattice)))
        if lattice.length >= 4:
            groups += [((f"T{s}_loc",), lambda s=s: (local_symmetry(s, lattice),))
                       for s in (1, 2)]
    if lattice.supports_global_symmetry():
        for s in (1, 2):
            groups.append(((f"A{s}", f"B{s}"),
                           lambda s=s: pauli(global_symmetry_pair(s, lattice))))
            groups.append(((f"T{s}",),
                           lambda s=s: (global_symmetry(s, lattice),)))
    return groups


def build_model(lattice: LatticeSpec, lam: float = 0.0) -> ModelSpec:
    """The model of a lattice with a lazy registry of every named operator.

    The registry holds, in this key order, the stabilizers S_i, H_C, H_I,
    both parity pairs, and on open chains the edge generators G_k, the
    forbidden set Sigma_01..Sigma_15 and (from 4 sites) T1_loc/T2_loc, then
    the global halves and symmetries A1, B1, T1, A2, B2, T2 when the lattice
    supports them.  Each entry is built on its first read (LazyRegistry);
    the coupling is checked here, as ising_perturbation checks it.
    """
    _check_coupling(lam)
    reg = LazyRegistry(_registry_groups(lattice, lam))
    model = ModelSpec(lattice=lattice)
    # every entry is built from this lattice, so the registry is attached
    # past ModelSpec's per-entry length check, which would build them all
    object.__setattr__(model, "registry", reg)
    return model


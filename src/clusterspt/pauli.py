"""Exact arithmetic in the signed Pauli group over L sites and its linear span.

A group element is stored in symplectic form as i**phase_exp * X**x_mask * Z**z_mask,
with one X/Z bit per site.  Site indices are 1-based and site 1 occupies the most
significant bit of each mask, matching the basis ordering used by the numerical
backend.  Y on a site is the pair x=z=1 together with one factor of i in the phase,
so every letter string built from {I, X, Y, Z} with a +1 prefix is Hermitian.

All values are immutable and every operation is a pure function.
Brackets of sums are decided in batches on a TermTable, the terms of
several operators packed as arrays of 64-bit mask words.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain

import numpy as np

from .errors import LengthMismatchError

# letter -> (x_bit, z_bit)
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
# (x digit, z digit) of the binary-formatted masks -> letter
_DIGITS_LETTER = {(str(x), str(z)): k for (x, z), k in _BITS_LETTER.items()}
_PHASE_LABEL = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}
_LABEL_PHASE = {"+1": 0, "1": 0, "+": 0, "+i": 1, "i": 1, "-1": 2, "-": 2, "-i": 3}
_PHASE_VALUE = (1, 1j, -1, -1j)

# Coefficients at or below this magnitude are dropped during canonicalization.
# Pauli commutators cancel exactly in integer phases; the threshold only guards
# float dust introduced by scalar coefficients.
COEFF_TOL = 1e-12

_COMPACT_RE = re.compile(r"([IXYZ])(\d+)")


def _check_same_length(a, b):
    if a.length != b.length:
        raise LengthMismatchError(
            f"chain lengths differ: {a.length} vs {b.length}")


def _site_bit(length: int, site: int) -> int:
    if not 1 <= site <= length:
        raise IndexError(f"site {site} outside 1..{length}")
    return 1 << (length - site)


def _mask_sites(length: int, mask: int) -> frozenset:
    """Set of 1-based sites whose bit is set in mask (bit b is site L - b)."""
    return frozenset(length - b for b in range(length) if mask >> b & 1)


class PauliString:
    """One signed Pauli group element: i**phase_exp * X**x_mask * Z**z_mask."""

    __slots__ = ("length", "phase_exp", "x_mask", "z_mask")

    def __init__(self, length: int, phase_exp: int, x_mask: int, z_mask: int):
        if length < 1:
            raise ValueError("length must be positive")
        full = (1 << length) - 1
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "phase_exp", phase_exp % 4)
        object.__setattr__(self, "x_mask", x_mask & full)
        object.__setattr__(self, "z_mask", z_mask & full)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, length: int) -> "PauliString":
        return cls(length, 0, 0, 0)

    @classmethod
    def hermitian(cls, length: int, x_mask: int, z_mask: int) -> "PauliString":
        """X**x Z**z with one i per Y, phase_exp = popcount(x & z): the
        Hermitian string of the masks, printed with a +1 prefix."""
        return cls(length, (x_mask & z_mask).bit_count(), x_mask, z_mask)

    @classmethod
    def from_vector(cls, length: int, v: int) -> "PauliString":
        """The Hermitian string (hermitian) of a 2L-bit symplectic vector,
        the x mask above the z mask (vector)."""
        return cls.hermitian(length, v >> length, v & ((1 << length) - 1))

    @classmethod
    def from_letters(cls, letters: str, phase_exp: int = 0) -> "PauliString":
        """Build from a letter string, e.g. 'ZXZ' on 3 sites (site 1 first).

        The stored phase picks up one i per Y so the letters mean literal
        sigma matrices: from_letters('Y') is Hermitian sigma^y.
        """
        x = z = 0
        n_y = 0
        for ch in letters:
            try:
                xb, zb = _LETTER_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            x = (x << 1) | xb
            z = (z << 1) | zb
            n_y += xb & zb
        return cls(len(letters), phase_exp + n_y, x, z)

    @classmethod
    def from_label(cls, text: str) -> "PauliString":
        """Parse the canonical text form: optional prefix in {+1,-1,+i,-i}
        followed by letters, e.g. '+1 ZXZIIIIII' or '-i Y'."""
        parts = text.split()
        if len(parts) == 1:
            prefix, letters = "+1", parts[0]
        elif len(parts) == 2:
            prefix, letters = parts
        else:
            raise ValueError(f"cannot parse Pauli label {text!r}")
        try:
            k = _LABEL_PHASE[prefix]
        except KeyError:
            raise ValueError(f"invalid phase prefix {prefix!r}") from None
        return cls.from_letters(letters, phase_exp=k)

    @classmethod
    def single(cls, length: int, site: int, letter: str) -> "PauliString":
        """One non-identity letter at a 1-based site, identity elsewhere."""
        return cls.from_sites(length, {site: letter})

    @classmethod
    def from_sites(cls, length: int, assignments) -> "PauliString":
        """Product of single-site letters, e.g. from_sites(9, {1:'Z', 2:'X', 3:'Z'}).

        Distinct sites commute, so the product is the OR of the letters'
        masks with one i per Y, whatever the dict order.
        """
        x = z = 0
        for site, letter in assignments.items():
            try:
                xb, zb = _LETTER_BITS[letter.upper()]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            bit = _site_bit(length, site)
            if xb:
                x |= bit
            if zb:
                z |= bit
        return cls.hermitian(length, x, z)

    @classmethod
    def from_compact(cls, text: str, length: int) -> "PauliString":
        """Parse probe names like 'Z1Z9': letters on distinct 1-based sites."""
        text = text.strip().upper()
        if not text or _COMPACT_RE.sub("", text):
            raise ValueError(f"invalid probe name {text!r}")
        sites = {}
        for letter, site in _COMPACT_RE.findall(text):
            if not 1 <= int(site) <= length:
                raise ValueError(
                    f"probe {text!r} names site {site}, outside 1..{length}")
            if int(site) in sites:
                raise ValueError(f"probe {text!r} names site {site} twice")
            sites[int(site)] = letter
        return cls.from_sites(length, sites)

    # -- presentation --------------------------------------------------

    def letter_at(self, site: int) -> str:
        bit = _site_bit(self.length, site)
        return _BITS_LETTER[(1 if self.x_mask & bit else 0,
                             1 if self.z_mask & bit else 0)]

    @property
    def letters(self) -> str:
        """The letter string, site 1 first: the masks' binary digits read
        pairwise, most significant (site 1) first."""
        n = self.length
        return "".join(map(_DIGITS_LETTER.__getitem__,
                           zip(f"{self.x_mask:0{n}b}", f"{self.z_mask:0{n}b}")))

    @property
    def display_phase_exp(self) -> int:
        """Exponent k of the printed prefix i**k relative to the letter string.

        The letters absorb one i per Y, so k = phase_exp - (#Y) mod 4 and the
        canonical text form is i**k times a Hermitian letter string.
        """
        return (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 4

    @property
    def phase(self) -> complex:
        """The scalar i**phase_exp multiplying X**x * Z**z."""
        return _PHASE_VALUE[self.phase_exp]

    def label(self) -> str:
        return f"{_PHASE_LABEL[self.display_phase_exp]} {self.letters}"

    def __str__(self):
        return self.label()

    def __repr__(self):
        return f"PauliString({self.label()!r})"

    # -- group structure -----------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        _check_same_length(self, other)
        # X**x Z**z . X**x' Z**z' : commuting Z**z past X**x' costs (-1)**(z.x')
        e = (self.phase_exp + other.phase_exp
             + 2 * (self.z_mask & other.x_mask).bit_count())
        return PauliString(self.length, e,
                           self.x_mask ^ other.x_mask,
                           self.z_mask ^ other.z_mask)

    def adjoint(self) -> "PauliString":
        e = (-self.phase_exp + 2 * (self.x_mask & self.z_mask).bit_count()) % 4
        return PauliString(self.length, e, self.x_mask, self.z_mask)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the symplectic form <x,z'> + <z,x'> vanishes mod 2.

        Phases never matter for (anti)commutation.
        """
        if not isinstance(other, PauliString):
            raise TypeError("expected a PauliString")
        _check_same_length(self, other)
        return (((self.x_mask & other.z_mask).bit_count()
                 + (self.z_mask & other.x_mask).bit_count()) % 2) == 0

    @property
    def is_hermitian(self) -> bool:
        return (self.phase_exp + (self.x_mask & self.z_mask).bit_count()) % 2 == 0

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_exp == 0

    def support(self) -> frozenset:
        """Set of 1-based sites carrying a non-identity letter."""
        return _mask_sites(self.length, self.x_mask | self.z_mask)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def vector(self) -> int:
        """The 2L-bit symplectic vector over GF(2), the x mask above the z
        mask; the phase is not part of it (from_vector reads it back)."""
        return (self.x_mask << self.length) | self.z_mask

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PauliString)
                and self.length == other.length
                and self.phase_exp == other.phase_exp
                and self.x_mask == other.x_mask
                and self.z_mask == other.z_mask)

    def __hash__(self):
        return hash((self.length, self.phase_exp, self.x_mask, self.z_mask))


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Group product p*q with exact phase bookkeeping."""
    return p * q


class OperatorSum:
    """Finite complex linear combination of Pauli strings on L sites.

    Terms are keyed by (x_mask, z_mask) with the string's i**phase_exp folded
    into the coefficient, so there is at most one entry per mask pair and the
    zero operator is the empty map.
    """

    __slots__ = ("length", "_terms")

    def __init__(self, length: int, terms=None):
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_terms", dict(terms) if terms else {})
        self._drop_small()

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSum is immutable; build a new one")

    def _drop_small(self):
        dead = [k for k, c in self._terms.items() if abs(c) <= COEFF_TOL]
        for k in dead:
            del self._terms[k]

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, length: int) -> "OperatorSum":
        return cls(length)

    @classmethod
    def identity(cls, length: int) -> "OperatorSum":
        return cls(length, {(0, 0): 1.0 + 0j})

    @classmethod
    def from_pauli(cls, p: PauliString, coeff=1.0) -> "OperatorSum":
        c = complex(coeff) * p.phase
        return cls(p.length, {(p.x_mask, p.z_mask): c})

    @classmethod
    def from_terms(cls, length: int, pairs) -> "OperatorSum":
        """Sum of (coeff, PauliString) pairs."""
        acc = {}
        for coeff, p in pairs:
            if p.length != length:
                raise LengthMismatchError(
                    f"term on {p.length} sites in a length-{length} sum")
            key = (p.x_mask, p.z_mask)
            acc[key] = acc.get(key, 0j) + complex(coeff) * p.phase
        return cls(length, acc)

    # -- inspection ------------------------------------------------------

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Raw (x_mask, z_mask) -> coeff pairs; coeff multiplies X**x * Z**z."""
        return self._terms.items()

    def iter_terms(self):
        """Yield (coeff, hermitian PauliString) with the Y phases pulled out of
        the coefficient, sorted deterministically by masks."""
        for (x, z) in sorted(self._terms):
            p = PauliString.hermitian(self.length, x, z)
            yield self._terms[(x, z)] * _PHASE_VALUE[-p.phase_exp % 4], p

    def coefficient(self, p: PauliString) -> complex:
        """Coefficient of the given string (its own phase divided out)."""
        c = self._terms.get((p.x_mask, p.z_mask), 0j)
        return c / p.phase

    def norm_bound(self) -> float:
        """Sum of |coeff|: an upper bound on the operator 2-norm, since each
        Pauli string is unitary."""
        return float(sum(abs(c) for c in self._terms.values()))

    def supports(self) -> frozenset:
        """Set of 1-based sites where some term acts non-trivially."""
        m = 0
        for x, z in self._terms:
            m |= x | z
        return _mask_sites(self.length, m)

    # -- linear algebra ----------------------------------------------------

    def _binary(self, other, sign):
        _check_same_length(self, other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0j) + sign * c
        return OperatorSum(self.length, acc)

    def __add__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._binary(other, 1)

    def __sub__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._binary(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorSum):
            return self.compose(scalar)
        c = complex(scalar)
        return OperatorSum(
            self.length, {k: v * c for k, v in self._terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, OperatorSum):
            return NotImplemented
        return self * scalar

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def compose(self, other: "OperatorSum") -> "OperatorSum":
        """Operator product self . other, expanded term by term."""
        _check_same_length(self, other)
        acc = {}
        for (x1, z1), c1 in self._terms.items():
            for (x2, z2), c2 in other._terms.items():
                # (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^(z1.x2) X^(x1^x2) Z^(z1^z2)
                sign = -1.0 if (z1 & x2).bit_count() % 2 else 1.0
                key = (x1 ^ x2, z1 ^ z2)
                acc[key] = acc.get(key, 0j) + sign * c1 * c2
        return OperatorSum(self.length, acc)

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self) -> "OperatorSum":
        acc = {}
        for (x, z), c in self._terms.items():
            sign = -1.0 if (x & z).bit_count() % 2 else 1.0
            acc[(x, z)] = sign * c.conjugate()
        return OperatorSum(self.length, acc)

    @property
    def is_hermitian(self) -> bool:
        return (self - self.adjoint()).is_zero

    def allclose(self, other: "OperatorSum", tol: float = 1e-10) -> bool:
        _check_same_length(self, other)
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) <= tol
                   for k in keys)

    # -- presentation -----------------------------------------------------

    def manifest_lines(self):
        """Deterministic text rendering, one term per line, ordered by the
        letter strings so diffs read naturally."""
        out = []
        for coeff, p in self.iter_terms():
            if abs(coeff.imag) <= COEFF_TOL:
                cs = f"{coeff.real:+.12g}"
            else:
                cs = f"({coeff.real:.12g}{coeff.imag:+.12g}j)"
            out.append((p.letters, f"{cs} {p.letters}"))
        return [line for _, line in sorted(out)]

    def __str__(self):
        if self.is_zero:
            return "0"
        return " ".join(self.manifest_lines())

    def __repr__(self):
        return f"OperatorSum(L={self.length}, terms={self.term_count})"

    def __eq__(self, other):
        return (isinstance(other, OperatorSum)
                and self.length == other.length
                and self.allclose(other, tol=0.0))

    def __hash__(self):
        raise TypeError("OperatorSum is not hashable")


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """AB - BA with exact phase bookkeeping; empty iff A and B commute."""
    if isinstance(a, PauliString):
        a = OperatorSum.from_pauli(a)
    if isinstance(b, PauliString):
        b = OperatorSum.from_pauli(b)
    return a.compose(b) - b.compose(a)


def anticommutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    if isinstance(a, PauliString):
        a = OperatorSum.from_pauli(a)
    if isinstance(b, PauliString):
        b = OperatorSum.from_pauli(b)
    return a.compose(b) + b.compose(a)


def _term_map(op):
    """(x_mask, z_mask) -> coeff map of a string or a sum, in term order."""
    if isinstance(op, PauliString):
        return {(op.x_mask, op.z_mask): op.phase}
    if isinstance(op, OperatorSum):
        return op._terms
    raise TypeError("expected a PauliString or OperatorSum")


_WORD = (1 << 64) - 1


def _mask_words(masks, n_words: int) -> np.ndarray:
    """(n_words, len(masks)) uint64 array; row k holds bits 64k..64k+63."""
    if n_words == 1:    # every mask fits one word as it is
        return np.array(masks, dtype=np.uint64).reshape(1, -1)
    return np.array([[m >> s & _WORD for m in masks]
                     for s in range(0, 64 * n_words, 64)], dtype=np.uint64)


def _odd(words: np.ndarray) -> np.ndarray:
    """Per column of a (words, n) uint64 array, 1 if its popcount is odd
    and 0 if it is even (the parity of an XOR is the XOR of parities)."""
    acc = words[0]
    for row in words[1:]:
        acc = acc ^ row
    return np.bitwise_count(acc) & 1


class TermTable:
    """The terms of several operators on one length, packed as arrays.

    Operator k owns columns bounds[k]:bounds[k + 1] of `masks` and entries
    bounds[k]:bounds[k + 1] of `coeff`, in the operator's own term order.
    Rows 0..words-1 of `masks` hold the terms' x masks and rows
    words..2 words-1 their z masks, split into 64-bit words (as many as the
    length needs); `coeff` multiplies X**x Z**z.  Strings and sums mix
    freely, and are packed all at once, with no loop over their terms in
    Python; tables on one length join as arrays (concat).
    """

    __slots__ = ("length", "words", "bounds", "masks", "coeff")

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("a term table needs at least one operator")
        for op in ops:
            _check_same_length(ops[0], op)
        terms = list(map(_term_map, ops))
        keys = list(chain.from_iterable(terms))    # a map iterates its keys
        xs, zs = zip(*keys) if keys else ((), ())
        self.length = ops[0].length
        self.words = -(-self.length // 64)
        self.bounds = np.array(list(accumulate(map(len, terms), initial=0)),
                               dtype=np.intp)
        self.masks = np.array((xs, zs), dtype=np.uint64) if self.words == 1 \
            else np.vstack((_mask_words(xs, self.words),
                            _mask_words(zs, self.words)))
        self.coeff = np.array(
            list(chain.from_iterable(t.values() for t in terms)),
            dtype=complex)

    @classmethod
    def concat(cls, tables) -> "TermTable":
        """The operators of several tables on one length, in order."""
        tables = list(tables)
        for t in tables[1:]:
            _check_same_length(tables[0], t)
        table = object.__new__(cls)
        table.length, table.words = tables[0].length, tables[0].words
        ends = np.cumsum([t.bounds[-1] for t in tables])
        table.bounds = np.concatenate(
            [[0]] + [t.bounds[1:] + end - t.bounds[-1]
                     for t, end in zip(tables, ends)]).astype(np.intp)
        table.masks = np.hstack([t.masks for t in tables])
        table.coeff = np.concatenate([t.coeff for t in tables])
        return table

    def weights(self, site_masks) -> np.ndarray:
        """Entry (m, k): on how many of the sites whose bit is set in
        site_masks[m] some term of operator k acts."""
        w = self.words
        owner = np.repeat(np.arange(self.bounds.size - 1),
                          np.diff(self.bounds))
        support = np.zeros((w, self.bounds.size - 1), dtype=np.uint64)
        for k in range(w):
            np.bitwise_or.at(support[k], owner,
                             self.masks[k] | self.masks[w + k])
        sites = _mask_words(site_masks, w)
        return np.bitwise_count(sites.T[:, :, None] & support).sum(
            axis=1, dtype=np.intp)

    def anticommuting(self) -> np.ndarray:
        """(n, n) bool over the table's n terms, all operators' together in
        column order: entry (i, j) is whether terms i and j anticommute,
        <x_i, z_j> + <z_i, x_j> odd, from one symplectic pass over every
        pair."""
        w = self.words
        x, z = self.masks[:w], self.masks[w:]
        return _odd(x[:, :, None] & z[:, None, :]
                    ^ z[:, :, None] & x[:, None, :]).astype(bool)

    def components(self) -> list | None:
        """The connected components of the terms' anticommutation graph
        (anticommuting: two terms are linked when they anticommute), each
        as (walk, closed): its terms' columns in walk order and whether it
        is a cycle.  A path's walk starts at its end of lower column, a
        cycle's at its lowest column, towards its lower neighbour; paths
        come first, by their first column, then cycles.  None when some
        term anticommutes with three or more others, so that the graph is
        no union of paths and cycles."""
        links = self.anticommuting()
        degree = links.sum(axis=1)
        if (degree > 2).any():
            return None
        neighbours = [np.flatnonzero(row).tolist() for row in links]
        seen = [False] * degree.size
        parts = []
        for start in (np.flatnonzero(degree < 2).tolist()
                      + list(range(degree.size))):
            if seen[start]:
                continue
            walk = [start]
            seen[start] = True
            while nxt := [u for u in neighbours[walk[-1]] if not seen[u]]:
                walk.append(nxt[0])
                seen[nxt[0]] = True
            parts.append((tuple(walk), bool(degree[start] == 2)))
        return parts

    def brackets_vanish(self, left, right, parity) -> np.ndarray:
        """Whether each bracket A B - B A (parity[k] = 1) or A B + B A
        (parity[k] = 0) of operators A = left[k], B = right[k] is zero,
        from one pass over every term pair of every bracket.

        A term pair with symplectic parity w = <x1,z2> + <z1,x2> mod 2 has
        P2 P1 = (-1)**w P1 P2, so in the bracket it cancels exactly unless
        w equals the parity; then it adds 2 (-1)**(z1.x2) c1 c2 at key
        (x1 ^ x2, z1 ^ z2), the product of OperatorSum.compose.  A bracket
        vanishes iff every key sums to at most COEFF_TOL in magnitude.  Only
        the surviving pairs are multiplied.  The products are formed as
        Python's complex product forms them (a numpy complex product may
        round differently), and each key sums them in the order of a loop
        over A's terms with a loop over B's terms inside, so a verdict does
        not depend on the batch it is decided in.  Unlike
        commutator(a, b).is_zero, no partial product is rounded to zero
        first, so the two verdicts can differ only when some coefficient
        products sit within rounding of COEFF_TOL.
        """
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        vanish = np.ones(left.size, dtype=bool)
        start_a, start_b = self.bounds[left], self.bounds[right]
        n_b = self.bounds[right + 1] - start_b
        n_pairs = (self.bounds[left + 1] - start_a) * n_b
        bracket = np.repeat(np.arange(left.size), n_pairs)
        # pair q of bracket k is (A term q // n_b, B term q % n_b)
        q = np.arange(bracket.size) - (np.cumsum(n_pairs) - n_pairs)[bracket]
        i, j = np.divmod(q, n_b[bracket])
        i += start_a[bracket]
        j += start_b[bracket]
        w = self.words
        m1, m2 = self.masks.take(i, axis=1), self.masks.take(j, axis=1)
        zx = m1[w:] & m2[:w]
        keep = np.flatnonzero(_odd(m1[:w] & m2[w:] ^ zx)
                              == np.asarray(parity)[bracket])
        if not keep.size:
            return vanish
        bracket, i, j = bracket[keep], i[keep], j[keep]
        # 2 (-1)**(z1.x2) c1 c2, with the real and imaginary parts of
        # Python's (2 * c1) * c2
        factor = 2.0 - 4.0 * _odd(zx[:, keep])
        c1, c2 = self.coeff[i], self.coeff[j]
        re1, im1 = factor * c1.real, factor * c1.imag
        re = re1 * c2.real - im1 * c2.imag
        im = re1 * c2.imag + im1 * c2.real

        # number the distinct (bracket, x1 ^ x2, z1 ^ z2) keys; bincount
        # then sums each key's products in pair order
        keys = (bracket, *(m1 ^ m2).take(keep, axis=1))
        order = np.lexsort(keys[::-1])
        starts = np.zeros(order.size, dtype=bool)
        for key in keys:
            key = key[order]
            starts[1:] |= key[1:] != key[:-1]
        group = np.empty_like(order)
        group[order] = np.cumsum(starts)
        total = np.hypot(np.bincount(group, re), np.bincount(group, im))
        vanish[bracket[(total > COEFF_TOL)[group]]] = False
        return vanish


def brackets_vanish(brackets) -> np.ndarray:
    """Decide a batch of (a, b, parity) brackets in one TermTable pass:
    entry k is whether a b - b a (parity 1) or a b + b a (parity 0) is
    zero, each operand packed once however many brackets name it."""
    ops, slot, left, right, parity = [], {}, [], [], []
    for a, b, p in brackets:
        for op, side in ((a, left), (b, right)):
            if id(op) not in slot:
                slot[id(op)] = len(ops)
                ops.append(op)
            side.append(slot[id(op)])
        parity.append(p)
    if not ops:
        return np.ones(0, dtype=bool)
    return TermTable(ops).brackets_vanish(left, right, parity)


def symplectic_form(v: int, vectors, length: int) -> int:
    """The symplectic form <v, w> = <x_v, z_w> + <z_v, x_w> mod 2 of a
    2L-bit vector v (PauliString.vector, x above z) with each w of
    `vectors`, as bit t of an int for vectors[t]: 1 iff the two strings
    anticommute.  One pass over the sequence `vectors`, v's halves
    swapped once; for two vectors, symplectic_form(v, [w], length) is
    <v, w>."""
    swapped = (v >> length) | (v & ((1 << length) - 1)) << length
    products = 0
    for w in reversed(vectors):
        products = products << 1 | (swapped & w).bit_count() & 1
    return products


def reduced(v: int, rows) -> int:
    """v less each of `rows` whose leading bit v has, in order: v modulo
    the rows' span, in a form unique for it, when the rows are a reduced
    row-echelon basis (row_echelon), each clear at the others' leading
    bits."""
    for row in rows:
        if v >> (row.bit_length() - 1) & 1:
            v ^= row
    return v


def row_echelon(vectors) -> list:
    """The reduced row-echelon basis over GF(2) of the span of `vectors`
    (ints read as bit vectors), leading bits descending: each row's
    highest set bit is zero in every other row, so the basis is the span's
    own, whatever the order of `vectors`."""
    rows = {}
    for v in vectors:
        v = reduced(v, rows.values())
        if v:
            lead = v.bit_length() - 1
            for k, row in rows.items():
                if row >> lead & 1:
                    rows[k] = row ^ v
            rows[lead] = v
    return [rows[k] for k in sorted(rows, reverse=True)]


def kernel_within(vectors, image) -> list:
    """The reduced row-echelon basis (row_echelon) of {v in span(vectors):
    image(v) = 0} for a GF(2)-linear map `image` of ints to ints: the
    vectors are eliminated on their images, each carrying its own bits
    along, and those whose image clears span the kernel."""
    pivots, kernel = {}, []
    for v in vectors:
        w = image(v)
        # each pivot is clear at the leads of those before it, so one pass
        # in insertion order clears them all
        for lead, (row, src) in pivots.items():
            if w >> lead & 1:
                w, v = w ^ row, v ^ src
        if w:
            pivots[w.bit_length() - 1] = (w, v)
        else:
            kernel.append(v)
    return row_echelon(kernel)


def commutant(ops) -> list:
    """The Pauli strings that commute with every term of every operator of
    `ops` (one length), as the symplectic vectors (PauliString.vector, x
    above z) of a basis over GF(2): the kernel of the terms' symplectic
    matrix, found by Gaussian elimination.

    A string commutes with a term iff their symplectic form vanishes, so
    the commutant is the kernel (kernel_within, over the 2L unit vectors)
    of the map whose bit t is the form with term t (symplectic_form).  The
    basis is its reduced row-echelon one (row_echelon), unique for the
    space, and TermTable.brackets_vanish confirms every element against
    every operator before it is handed out (ValueError otherwise)."""
    ops = list(ops)
    length = ops[0].length
    terms = [PauliString.hermitian(length, x, z).vector
             for op in ops for x, z in _term_map(op)]
    basis = kernel_within((1 << f for f in range(2 * length)),
                          lambda v: symplectic_form(v, terms, length))
    strings = [PauliString.from_vector(length, v) for v in basis]
    if strings:
        table = TermTable(strings + ops)
        n = len(strings)
        left = np.repeat(np.arange(n), len(ops))
        right = np.tile(np.arange(n, n + len(ops)), n)
        if not table.brackets_vanish(left, right,
                                     np.ones_like(left)).all():
            raise ValueError("a commutant element fails its bracket check")
    return basis


def commutes(a, b) -> bool:
    """Whether [a, b] = 0, for Pauli strings or sums in any mix.

    Two strings take the symplectic test alone; otherwise this is the
    one-bracket case of TermTable.brackets_vanish, with the verdict of
    commutator(a, b).is_zero.
    """
    if isinstance(a, PauliString) and isinstance(b, PauliString):
        return a.commutes_with(b)
    return bool(brackets_vanish(((a, b, 1),))[0])


def anticommutes(a, b) -> bool:
    """Whether {a, b} = 0: the counterpart of commutes, with the verdict of
    anticommutator(a, b).is_zero.
    """
    if isinstance(a, PauliString) and isinstance(b, PauliString):
        return not a.commutes_with(b)
    return bool(brackets_vanish(((a, b, 0),))[0])

"""Symbolic Pauli algebra against independent dense oracles.

Every numerical expectation here is either a textbook single-site identity
or computed in-test from Kronecker-product matrices; nothing is copied from
the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import OperatorSum, PauliString
from clusterspt.errors import LengthMismatchError
from clusterspt.pauli import TermTable, brackets_vanish

from conftest import (kron_from_letters, oracle_matrix, oracle_sum_matrix,
                      random_hermitian_sum, random_pauli)


class TestConstruction:
    def test_identity(self):
        p = PauliString.identity(4)
        assert p.letters == "IIII"
        assert p.label() == "+1 IIII"
        assert p.is_identity

    def test_from_letters_roundtrip(self, rng):
        for _ in range(50):
            letters = "".join(rng.choice(list("IXYZ"), size=6))
            assert PauliString.from_letters(letters).letters == letters

    def test_from_letters_is_hermitian(self):
        # letter strings denote plain operator products, so they are all
        # Hermitian regardless of Y count
        for text in ("Y", "XY", "YY", "ZYX", "YYY"):
            assert PauliString.from_letters(text).is_hermitian

    def test_from_label(self):
        p = PauliString.from_label("+1 ZXZ")
        assert p.letters == "ZXZ" and p.display_phase_exp == 0
        q = PauliString.from_label("-i Y")
        assert q.letters == "Y" and q.display_phase_exp == 3
        assert PauliString.from_label("+i XY").display_phase_exp == 1

    def test_label_roundtrip(self, rng):
        for _ in range(40):
            p = random_pauli(rng, 5)
            assert PauliString.from_label(p.label()) == p

    def test_single_and_from_sites(self):
        p = PauliString.from_sites(9, {1: "Z", 2: "X", 3: "Z"})
        assert p.letters == "ZXZIIIIII"
        assert p == (PauliString.single(9, 1, "Z")
                     * PauliString.single(9, 2, "X")
                     * PauliString.single(9, 3, "Z"))

    def test_site_one_is_leftmost(self):
        assert PauliString.single(3, 1, "X").letters == "XII"
        assert PauliString.single(3, 3, "X").letters == "IIX"

    def test_from_compact(self):
        assert PauliString.from_compact("X5", 9).letters == "IIIIXIIII"
        assert PauliString.from_compact("Z1X2Z3", 3).letters == "ZXZ"

    def test_from_compact_rejects_garbage(self):
        for bad in ("Q5", "X", "5X", "", "X1 Z2?", "X0", "X10", "X1Z1",
                    "Z3Z3"):
            with pytest.raises(ValueError):
                PauliString.from_compact(bad, 9)

    def test_site_bounds(self):
        with pytest.raises(IndexError):
            PauliString.single(4, 0, "X")
        with pytest.raises(IndexError):
            PauliString.single(4, 5, "X")
        with pytest.raises(ValueError):
            PauliString.single(4, 2, "Q")

    def test_immutability(self):
        p = PauliString.identity(3)
        with pytest.raises(AttributeError):
            p.x_mask = 7


@st.composite
def site_assignments(draw):
    """(L, {site: letter}) on 1-24 sites, letters in either case."""
    L = draw(st.integers(1, 24))
    return L, draw(st.dictionaries(st.integers(1, L),
                                   st.sampled_from("IXYZixyz"), max_size=L))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(site_assignments())
def test_from_sites_is_the_product_of_singles(case):
    L, assignments = case
    p = PauliString.from_sites(L, assignments)
    q = PauliString.identity(L)
    for site, letter in assignments.items():
        q = q * PauliString.single(L, site, letter)
    assert (p.x_mask, p.z_mask, p.phase_exp) == \
        (q.x_mask, q.z_mask, q.phase_exp)
    assert p.letters == "".join(assignments.get(j, "I").upper()
                                for j in range(1, L + 1))
    assert p.is_hermitian


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 130).flatmap(lambda L: st.tuples(
    st.just(L), st.integers(0, (1 << L) - 1), st.integers(0, (1 << L) - 1))))
def test_letters_read_site_by_site(case):
    L, x, z = case
    p = PauliString(L, 0, x, z)
    assert p.letters == "".join(p.letter_at(j) for j in range(1, L + 1))


def test_from_sites_errors():
    with pytest.raises(ValueError, match="invalid Pauli letter 'Q'"):
        PauliString.from_sites(4, {1: "X", 2: "Q"})
    with pytest.raises(IndexError, match="site 0 outside 1..4"):
        PauliString.from_sites(4, {0: "X"})
    with pytest.raises(IndexError, match="site 5 outside 1..4"):
        PauliString.from_sites(4, {2: "Z", 5: "Y"})


class TestCanonicalPhase:
    def test_x_times_z_is_minus_i_y(self):
        x = PauliString.single(1, 1, "X")
        z = PauliString.single(1, 1, "Z")
        prod = x * z
        assert prod == PauliString.from_label("-i Y")
        assert prod.label() == "-i Y"
        assert prod.display_phase_exp == 3

    def test_single_site_product_table(self):
        # full 4x4 letter table against the 2x2 oracle
        for a in "IXYZ":
            for b in "IXYZ":
                p = PauliString.from_letters(a) * PauliString.from_letters(b)
                want = kron_from_letters(a) @ kron_from_letters(b)
                assert np.allclose(oracle_matrix(p), want, atol=1e-12), (a, b)

    def test_y_is_i_x_z(self):
        y = PauliString.from_letters("Y")
        xz = PauliString.single(1, 1, "X") * PauliString.single(1, 1, "Z")
        bumped = PauliString(1, (xz.phase_exp + 1) % 4, xz.x_mask, xz.z_mask)
        assert bumped == y


class TestMultiply:
    def test_against_oracle(self, rng):
        for _ in range(200):
            L = int(rng.integers(1, 7))
            p = random_pauli(rng, L)
            q = random_pauli(rng, L)
            got = oracle_matrix(p * q)
            want = oracle_matrix(p) @ oracle_matrix(q)
            assert np.allclose(got, want, atol=1e-12)

    def test_associative(self, rng):
        for _ in range(60):
            p, q, r = (random_pauli(rng, 4) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            PauliString.identity(3) * PauliString.identity(4)

    def test_adjoint_reverses_products(self, rng):
        for _ in range(60):
            p = random_pauli(rng, 5)
            q = random_pauli(rng, 5)
            assert (p * q).adjoint() == q.adjoint() * p.adjoint()
            assert np.allclose(oracle_matrix(p.adjoint()),
                               oracle_matrix(p).conj().T, atol=1e-12)

    def test_hermitian_flag_matches_oracle(self, rng):
        for _ in range(60):
            p = random_pauli(rng, 4)
            m = oracle_matrix(p)
            assert p.is_hermitian == bool(np.allclose(m, m.conj().T))

    def test_square_is_plus_or_minus_identity(self, rng):
        for _ in range(40):
            p = random_pauli(rng, 4, phase=False)
            sq = p * p
            assert sq.x_mask == 0 and sq.z_mask == 0
            assert sq.phase_exp in (0, 2)
            if p.is_hermitian:
                assert sq.phase_exp == 0


class TestCommutes:
    def test_identity_commutes_with_everything(self, rng):
        e = PauliString.identity(5)
        for _ in range(20):
            assert e.commutes_with(random_pauli(rng, 5))

    def test_single_site_rules(self):
        x = PauliString.from_letters("X")
        y = PauliString.from_letters("Y")
        z = PauliString.from_letters("Z")
        assert not x.commutes_with(z)
        assert not x.commutes_with(y)
        assert not y.commutes_with(z)
        assert x.commutes_with(x)

    def test_three_site_example(self):
        # three anticommuting positions, odd count, so they anticommute
        assert not cs.commutes(PauliString.from_letters("ZXZ"),
                               PauliString.from_letters("XZX"))
        # two anticommuting positions commute
        assert cs.commutes(PauliString.from_letters("XZ"),
                           PauliString.from_letters("ZX"))

    def test_against_oracle(self, rng):
        for _ in range(200):
            L = int(rng.integers(1, 6))
            p = random_pauli(rng, L)
            q = random_pauli(rng, L)
            a = oracle_matrix(p) @ oracle_matrix(q)
            b = oracle_matrix(q) @ oracle_matrix(p)
            assert p.commutes_with(q) == bool(np.allclose(a, b, atol=1e-12))

    def test_commutator_function(self):
        x = PauliString.single(2, 1, "X")
        z = PauliString.single(2, 1, "Z")
        c = cs.commutator(x, z)
        # [X, Z] = XZ - ZX = -2iY (on site 1)
        y = PauliString.from_sites(2, {1: "Y"})
        assert c.allclose(OperatorSum.from_pauli(y, -2j))
        assert cs.anticommutator(x, z).is_zero


@st.composite
def bracket_operands(draw, L):
    """Two operands on L sites, each a signed Pauli string or a sum whose
    terms share x masks, so different term pairs multiply onto one key.
    The second operand is sometimes the first or its square, so sums
    commute whose term pairs do not, or a sum anticommuting with a string."""
    masks = st.integers(0, (1 << L) - 1)
    parts = st.floats(-2.0, 2.0, allow_nan=False)

    def terms():
        out = {}
        for x in draw(st.lists(masks, min_size=1, max_size=3, unique=True)):
            for z in draw(st.lists(masks, min_size=1, max_size=3,
                                   unique=True)):
                out[(x, z)] = complex(draw(parts), draw(parts))
        return out

    def string(x_extra=0):
        return PauliString(L, draw(st.integers(0, 3)),
                           draw(masks) | x_extra, draw(masks))

    def operand():
        return string() if draw(st.booleans()) else OperatorSum(L, terms())

    mode = draw(st.sampled_from(("fresh", "same", "square", "anti")))
    if mode == "anti":
        # a has X or Y on the site `bit`; a term commuting with a is
        # multiplied by Z there, which makes it anticommute
        bit = 1 << draw(st.integers(0, L - 1))
        a = string(bit)
        b = OperatorSum(L, {
            (x, z if ((x & a.z_mask) ^ (z & a.x_mask)).bit_count() & 1
             else z ^ bit): c
            for (x, z), c in terms().items()})
    else:
        a = operand()
        s = OperatorSum.from_pauli(a) if isinstance(a, PauliString) else a
        b = {"fresh": operand, "same": lambda: a,
             "square": lambda: s @ s}[mode]()
    return (b, a) if draw(st.booleans()) else (a, b)


@st.composite
def bracket_batches(draw):
    """One to six brackets (a, b, parity) on one length L <= 4, so terms
    that cancel sit in one batch with brackets that do not vanish."""
    L = draw(st.integers(1, 4))
    return [(*draw(bracket_operands(L)), draw(st.integers(0, 1)))
            for _ in range(draw(st.integers(1, 6)))]


def expanded_vanishes(a, b, parity):
    """The bracket's verdict from the operator it expands to."""
    return (cs.commutator if parity else cs.anticommutator)(a, b).is_zero


def loop_vanishes(a, b, parity):
    """The bracket's verdict from a loop over its term pairs, in Python
    complex arithmetic: each surviving pair adds 2 (-1)**(z1.x2) c1 c2 at
    key (x1 ^ x2, z1 ^ z2), A's terms outside, B's inside."""
    def items(op):
        if isinstance(op, PauliString):
            return (((op.x_mask, op.z_mask), op.phase),)
        return tuple(op.items())

    acc = {}
    for (x1, z1), c1 in items(a):
        for (x2, z2), c2 in items(b):
            if ((x1 & z2) ^ (z1 & x2)).bit_count() & 1 != parity:
                continue
            c = 2.0 * c1 * c2
            if (z1 & x2).bit_count() & 1:
                c = -c
            key = (x1 ^ x2, z1 ^ z2)
            acc[key] = acc.get(key, 0j) + c
    return all(abs(c) <= cs.pauli.COEFF_TOL for c in acc.values())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(bracket_batches())
def test_commutes_matches_the_expanded_brackets(batch):
    got = brackets_vanish(batch).tolist()
    assert got == [expanded_vanishes(*br) for br in batch]
    assert got == [loop_vanishes(*br) for br in batch]
    for a, b, _ in batch:
        assert cs.commutes(a, b) == cs.commutator(a, b).is_zero
        assert cs.anticommutes(a, b) == cs.anticommutator(a, b).is_zero


def tolerance_edge(a, b, parity):
    """(a * s, b * s) at adjacent floats s_lo < s_hi where the pair loop's
    verdict turns from zero to nonzero: its largest key sum is then within
    rounding of COEFF_TOL, so arithmetic that rounds any product or partial
    sum differently flips one of the two verdicts."""
    def scaled(s):
        return a * s, b * s

    lo, hi = 1e-9, 1.0           # the bracket vanishes at lo, not at hi
    ilo, ihi = (np.array([lo, hi]).view(np.int64)).tolist()
    while ihi - ilo > 1:         # bisect over the float bit patterns
        mid = (ilo + ihi) // 2
        s = float(np.array(mid).view(np.float64))
        if loop_vanishes(*scaled(s), parity):
            ilo = mid
        else:
            ihi = mid
    return [scaled(float(np.array(k).view(np.float64))) for k in (ilo, ihi)]


@pytest.mark.parametrize("L", [1, 2])
def test_batches_match_the_pair_loop_on_the_tolerance(L):
    rng = np.random.default_rng(7)
    # pairwise anticommuting strings: in an anticommutator of two sums of
    # them only the pairs of equal strings survive, and all their products
    # land on the identity, so the order of summation matters as well
    anti = {1: ("X", "Y", "Z"), 2: ("XI", "YI", "ZX", "ZY", "ZZ")}[L]

    def random_sum(strings):
        return OperatorSum.from_terms(L, (
            (complex(*rng.normal(size=2)), PauliString.from_letters(p))
            for p in strings))

    batch = []
    while len(batch) < 80:
        if len(batch) % 4:
            strings = ["".join(p) for p in rng.choice(list("IXYZ"), (4, L))]
            a, b = random_sum(strings), random_sum(strings[::-1])
            parity = int(rng.integers(0, 2))
        else:
            a, b, parity = random_sum(anti), random_sum(anti), 0
        if loop_vanishes(a, b, parity):
            continue
        (a_lo, b_lo), (a_hi, b_hi) = tolerance_edge(a, b, parity)
        batch += [(a_lo, b_lo, parity), (a_hi, b_hi, parity)]
    assert [loop_vanishes(*br) for br in batch] == [True, False] * 40
    assert brackets_vanish(batch).tolist() == [True, False] * 40


class TestCommutesSums:
    """commutes / anticommutes on sums, where whole pairs cancel."""

    def test_sum_commutes_with_itself(self):
        # X1 Z1 and Z1 X1 anticommute; their products -iY and +iY cancel
        a = (OperatorSum.from_pauli(PauliString.single(2, 1, "X"))
             + OperatorSum.from_pauli(PauliString.single(2, 1, "Z")))
        assert cs.commutes(a, a)
        assert not cs.anticommutes(a, a)
        assert cs.commutator(a, a).is_zero

    def test_sum_anticommutes_with_a_string(self):
        a = (OperatorSum.from_pauli(PauliString.from_letters("XZ"))
             + OperatorSum.from_pauli(PauliString.from_letters("ZI"), 0.5j))
        y = PauliString.from_letters("YI")
        for l, r in ((a, y), (y, a)):
            assert cs.anticommutes(l, r)
            assert not cs.commutes(l, r)
            assert cs.anticommutator(l, r).is_zero

    def test_cancelling_brackets_share_a_batch(self):
        # the two sums above, with brackets that do not vanish beside them
        a = (OperatorSum.from_pauli(PauliString.single(2, 1, "X"))
             + OperatorSum.from_pauli(PauliString.single(2, 1, "Z")))
        s = (OperatorSum.from_pauli(PauliString.from_letters("XZ"))
             + OperatorSum.from_pauli(PauliString.from_letters("ZI"), 0.5j))
        y = PauliString.from_letters("YI")
        batch = [(a, a, 1), (a, a, 0), (s, y, 0), (y, s, 0), (s, y, 1),
                 (y, s, 1), (a, y, 1), (a, s, 0), (s, s, 1)]
        want = [True, False, True, True, False, False, False, False, True]
        assert [expanded_vanishes(*br) for br in batch] == want
        assert brackets_vanish(batch).tolist() == want
        # one table, the parities given per bracket
        table = TermTable((a, s, y))
        got = table.brackets_vanish([0, 0, 1, 2, 1, 2, 0, 0, 1],
                                    [0, 0, 2, 1, 2, 1, 2, 1, 1],
                                    [1, 0, 0, 0, 1, 1, 1, 0, 1])
        assert got.tolist() == want

    def test_batch_at_99_sites(self):
        # site s is bit 99 - s: sites 35 and 36 sit on either side of the
        # 64-bit word boundary, and the stabilizers there straddle it
        L = 99
        h = cs.cluster_hamiltonian(cs.LatticeSpec(L, "open"))
        one = {s: OperatorSum.from_pauli(PauliString.single(L, s, "X"))
               for s in (1, 35, 36, 99)}
        chain = cs.LatticeSpec(L, "open")
        s35 = cs.stabilizer(35, chain)
        # Z33 X34 X36 Z37: telescoped, so it commutes with every term
        string = cs.stabilizer(34, chain) * cs.stabilizer(36, chain)
        near = OperatorSum.from_pauli(
            PauliString.from_sites(L, {34: "X", 36: "X", 37: "Z"}), 2.0)
        z35 = PauliString.single(L, 35, "Z")
        pair = one[35] + OperatorSum.from_pauli(z35)
        wide = OperatorSum.from_terms(L, (
            (0.5, PauliString.from_sites(L, {1: "Y", 36: "Z", 99: "X"})),
            (0.5j, PauliString.from_sites(L, {35: "Y", 64: "X"}))))
        batch = [(h, s35, 1), (h, z35, 1), (h, one[35], 1),
                 (h, one[1], 1), (h, one[99], 1), (pair, pair, 1),
                 (pair, pair, 0), (z35, one[35], 0), (s35, z35, 0),
                 (h, wide, 1), (wide, wide, 1), (wide, h, 0),
                 (one[36], wide, 1), (h, h, 1), (h, string, 1),
                 (string, one[35], 0), (string, one[35] + near, 1)]
        want = [True, False, False, False, False, True, False, True, True,
                False, True, False, False, True, True, False, True]
        assert [expanded_vanishes(*br) for br in batch] == want
        assert brackets_vanish(batch).tolist() == want

    def test_two_strings(self):
        x, z = PauliString.from_letters("XI"), PauliString.from_letters("ZI")
        assert not cs.commutes(x, z) and cs.anticommutes(x, z)
        assert cs.commutes(x, x) and not cs.anticommutes(x, x)

    def test_length_mismatch(self):
        p3 = PauliString.from_letters("XZX")
        s2 = OperatorSum.from_pauli(PauliString.from_letters("ZZ"))
        for f in (cs.commutes, cs.anticommutes):
            with pytest.raises(LengthMismatchError):
                f(p3, s2)
            with pytest.raises(LengthMismatchError):
                f(s2, OperatorSum.identity(3))
            with pytest.raises(LengthMismatchError):
                f(p3, PauliString.from_letters("XX"))


class TestOperatorSum:
    def test_add_sub_scale(self, rng):
        L = 3
        a = random_hermitian_sum(rng, L)
        b = random_hermitian_sum(rng, L)
        ma, mb = oracle_sum_matrix(a), oracle_sum_matrix(b)
        assert np.allclose(oracle_sum_matrix(a + b), ma + mb, atol=1e-12)
        assert np.allclose(oracle_sum_matrix(a - b), ma - mb, atol=1e-12)
        assert np.allclose(oracle_sum_matrix(2.5 * a), 2.5 * ma, atol=1e-12)
        assert np.allclose(oracle_sum_matrix(a / 2.0), ma / 2.0, atol=1e-12)
        assert np.allclose(oracle_sum_matrix(-a), -ma, atol=1e-12)

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(25):
            a = random_hermitian_sum(rng, 3, terms=4)
            b = random_hermitian_sum(rng, 3, terms=4)
            got = oracle_sum_matrix(a @ b)
            want = oracle_sum_matrix(a) @ oracle_sum_matrix(b)
            assert np.allclose(got, want, atol=1e-10)

    def test_exact_cancellation_drops_terms(self):
        p = PauliString.from_letters("XZX")
        s = OperatorSum.from_pauli(p) - OperatorSum.from_pauli(p)
        assert s.is_zero and s.term_count == 0

    def test_tiny_coefficients_drop(self):
        p = PauliString.from_letters("XZ")
        s = OperatorSum.from_pauli(p, 1e-13)
        assert s.is_zero

    def test_iter_terms_hermitian_representatives(self, rng):
        op = random_hermitian_sum(rng, 4)
        assert op.is_hermitian
        for coeff, p in op.iter_terms():
            assert p.is_hermitian
            assert abs(coeff.imag) <= 1e-12

    def test_coefficient_lookup(self):
        p = PauliString.from_letters("ZXZ")
        op = OperatorSum.from_pauli(p, -1.0)
        assert op.coefficient(p) == pytest.approx(-1.0)
        assert op.coefficient(PauliString.from_letters("XXX")) == 0

    def test_norm_bound_dominates_spectrum(self, rng):
        op = random_hermitian_sum(rng, 3)
        eigs = np.linalg.eigvalsh(oracle_sum_matrix(op))
        assert np.max(np.abs(eigs)) <= op.norm_bound() + 1e-10

    def test_adjoint_and_hermiticity(self, rng):
        op = random_hermitian_sum(rng, 3)
        assert op.adjoint().allclose(op)
        skew = op * 1j
        assert not skew.is_hermitian

    def test_commutator_of_sums(self, rng):
        a = random_hermitian_sum(rng, 3, terms=3)
        b = random_hermitian_sum(rng, 3, terms=3)
        got = oracle_sum_matrix(cs.commutator(a, b))
        ma, mb = oracle_sum_matrix(a), oracle_sum_matrix(b)
        assert np.allclose(got, ma @ mb - mb @ ma, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            OperatorSum.identity(3) + OperatorSum.identity(4)

    def test_manifest_is_sorted_and_stable(self, rng):
        op = random_hermitian_sum(rng, 4)
        lines = op.manifest_lines()
        assert lines == sorted(lines, key=lambda s: s.split()[-1])
        assert str(op)  # printable


class TestWeightSupport:
    def test_weight_and_support(self):
        p = PauliString.from_sites(9, {1: "Z", 2: "X", 9: "Z"})
        assert p.weight == 3
        assert p.support() == frozenset({1, 2, 9})

    def test_identity_has_empty_support(self):
        assert PauliString.identity(5).support() == frozenset()

    def test_sum_support_is_the_union_of_its_terms(self, rng):
        for L in (1, 4, 9):
            op = random_hermitian_sum(rng, L, terms=3)
            want = frozenset().union(*(p.support()
                                       for _, p in op.iter_terms()))
            assert op.supports() == want
        p = OperatorSum.from_pauli(PauliString.from_letters("IXIZ"))
        q = OperatorSum.from_pauli(PauliString.from_letters("YIII"))
        assert (p + q).supports() == frozenset({1, 2, 4})
        assert (p + q - q).supports() == frozenset({2, 4})
        assert OperatorSum.zero(4).supports() == frozenset()

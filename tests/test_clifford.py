"""CZ conjugation against dense unitary oracles.

The oracle applies U M U with U the literal diagonal controlled-Z matrix;
the symbolic rule must reproduce it exactly for every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import CzCircuit, OperatorSum, PauliString
from clusterspt.errors import DomainError, LengthMismatchError

from conftest import oracle_matrix, oracle_sum_matrix, random_pauli


def cz_matrix(length: int, i: int, j: int) -> np.ndarray:
    dim = 1 << length
    diag = np.ones(dim)
    bi = 1 << (length - i)
    bj = 1 << (length - j)
    idx = np.arange(dim)
    diag[((idx & bi) > 0) & ((idx & bj) > 0)] = -1.0
    return np.diag(diag)


def circuit_matrix(circuit: CzCircuit) -> np.ndarray:
    m = np.eye(1 << circuit.length)
    for (i, j) in circuit.edges:
        m = cz_matrix(circuit.length, i, j) @ m
    return m


class TestSingleGate:
    def test_known_images(self):
        # CZ on (1,2): X1 -> X1 Z2, Z1 -> Z1, Y1 -> Y1 Z2
        p = cs.conjugate_cz(PauliString.from_letters("XI"), 1, 2)
        assert p.label() == "+1 XZ"
        p = cs.conjugate_cz(PauliString.from_letters("ZI"), 1, 2)
        assert p.label() == "+1 ZI"
        p = cs.conjugate_cz(PauliString.from_letters("YI"), 1, 2)
        assert p.label() == "+1 YZ"

    def test_xx_image(self):
        # XX -> (X1 Z2)(Z1 X2) = (-iY)(+iY) = +YY
        p = cs.conjugate_cz(PauliString.from_letters("XX"), 1, 2)
        assert p.label() == "+1 YY"

    def test_against_oracle_exhaustive_two_sites(self):
        u = cz_matrix(2, 1, 2)
        for a in "IXYZ":
            for b in "IXYZ":
                p = PauliString.from_letters(a + b)
                got = oracle_matrix(cs.conjugate_cz(p, 1, 2))
                want = u @ oracle_matrix(p) @ u
                assert np.allclose(got, want, atol=1e-12), (a, b)

    def test_against_oracle_random(self, rng):
        for _ in range(100):
            L = int(rng.integers(2, 6))
            sites = rng.choice(np.arange(1, L + 1), size=2, replace=False)
            i, j = int(sites[0]), int(sites[1])
            p = random_pauli(rng, L)
            got = oracle_matrix(cs.conjugate_cz(p, i, j))
            u = cz_matrix(L, i, j)
            want = u @ oracle_matrix(p) @ u
            assert np.allclose(got, want, atol=1e-12)

    def test_involution(self, rng):
        for _ in range(50):
            p = random_pauli(rng, 5)
            assert cs.conjugate_cz(cs.conjugate_cz(p, 2, 4), 2, 4) == p

    def test_bad_sites(self):
        p = PauliString.identity(4)
        with pytest.raises((ValueError, IndexError)):
            cs.conjugate_cz(p, 2, 2)
        with pytest.raises((ValueError, IndexError)):
            cs.conjugate_cz(p, 0, 3)


class TestCircuit:
    def test_chain_edges(self):
        assert CzCircuit.chain(5, periodic=False).edges == (
            (1, 2), (2, 3), (3, 4), (4, 5))
        assert CzCircuit.chain(4, periodic=True).edges == (
            (1, 2), (2, 3), (3, 4), (4, 1))

    def test_gate_order_irrelevant(self, rng):
        # all gates are diagonal and commute
        edges = [(1, 2), (3, 4), (2, 3)]
        a = CzCircuit(4, tuple(edges))
        b = CzCircuit(4, tuple(reversed(edges)))
        for _ in range(30):
            p = random_pauli(rng, 4)
            assert cs.conjugate_circuit(p, a) == cs.conjugate_circuit(p, b)

    def test_against_oracle(self, rng):
        for _ in range(40):
            L = int(rng.integers(2, 6))
            n_edges = min(int(rng.integers(1, 4)), L * (L - 1) // 2)
            edges = set()
            while len(edges) < n_edges:
                s = rng.choice(np.arange(1, L + 1), size=2, replace=False)
                edges.add((min(int(s[0]), int(s[1])),
                           max(int(s[0]), int(s[1]))))
            circ = CzCircuit(L, tuple(sorted(edges)))
            u = circuit_matrix(circ)
            p = random_pauli(rng, L)
            got = oracle_matrix(cs.conjugate_circuit(p, circ))
            assert np.allclose(got, u @ oracle_matrix(p) @ u, atol=1e-12)

    def test_operator_sum_conjugation(self, rng):
        lat = cs.LatticeSpec(5, "open")
        h = cs.cluster_hamiltonian(lat)
        circ = CzCircuit.chain(5, periodic=False)
        u = circuit_matrix(circ)
        got = oracle_sum_matrix(cs.conjugate_circuit(h, circ))
        assert np.allclose(got, u @ oracle_sum_matrix(h) @ u, atol=1e-12)

    def test_preserves_commutation(self, rng):
        circ = CzCircuit.chain(5, periodic=True)
        for _ in range(50):
            p = random_pauli(rng, 5)
            q = random_pauli(rng, 5)
            assert p.commutes_with(q) == cs.conjugate_circuit(
                p, circ).commutes_with(cs.conjugate_circuit(q, circ))

    def test_circuit_involution(self, rng):
        circ = CzCircuit.chain(6, periodic=True)
        for _ in range(30):
            p = random_pauli(rng, 6)
            assert cs.conjugate_circuit(cs.conjugate_circuit(p, circ),
                                        circ) == p

    def test_rejects_bad_edges(self):
        with pytest.raises((ValueError, IndexError)):
            CzCircuit(4, ((1, 1),))
        with pytest.raises((ValueError, IndexError)):
            CzCircuit(4, ((0, 2),))


class TestBondCircuit:
    def test_stabilizers_map_to_singles(self):
        # the bond circuit turns each bulk stabilizer into a single X
        for L in (5, 8, 11):
            lat = cs.LatticeSpec(L, "open")
            for i in range(2, L):
                s = cs.stabilizer(i, lat)
                img = cs.conjugate_ucp(s, lat)
                assert img == PauliString.single(L, i, "X"), (L, i)

    def test_open_hamiltonian_reduces(self):
        for L in (4, 9, 14, 21):
            lat = cs.LatticeSpec(L, "open")
            rot = cs.conjugate_ucp(cs.cluster_hamiltonian(lat), lat)
            want = cs.OperatorSum.from_terms(
                L, [(-1.0, PauliString.single(L, i, "X"))
                    for i in range(2, L)])
            assert rot.allclose(want), L

    def test_periodic_hamiltonian_reduces(self):
        L = 8
        lat = cs.LatticeSpec(L, "periodic")
        rot = cs.conjugate_ucp(cs.cluster_hamiltonian(lat), lat)
        want = cs.OperatorSum.from_terms(
            L, [(-1.0, PauliString.single(L, i, "X"))
                for i in range(1, L + 1)])
        assert rot.allclose(want)

    def test_matrix_agreement(self):
        for L in (4, 6, 8):
            lat = cs.LatticeSpec(L, "open")
            h = cs.cluster_hamiltonian(lat)
            u = np.diag(cs.cz_diagonal(CzCircuit.chain(L, periodic=False)))
            got = oracle_sum_matrix(cs.conjugate_ucp(h, lat))
            want = u @ oracle_sum_matrix(h) @ u
            assert np.max(np.abs(got - want)) <= 1e-12


@st.composite
def lattice_strings(draw, min_size=3, max_size=130):
    """(lattice, string) with any masks and phase, open or periodic; above
    64 sites the masks span several words."""
    L = draw(st.integers(min_size, max_size))
    lat = cs.LatticeSpec(L, draw(st.sampled_from(("open", "periodic"))))
    masks = st.integers(0, (1 << L) - 1)
    return lat, PauliString(L, draw(st.integers(0, 3)), draw(masks),
                            draw(masks))


_COMPONENTS = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, 1.0]))


@st.composite
def lattice_sums(draw):
    """(lattice, sum) with up to 12 terms, coefficients with signed zeros."""
    lat, _ = draw(lattice_strings())
    L = lat.length
    masks = st.integers(0, (1 << L) - 1)
    terms = draw(st.dictionaries(
        st.tuples(masks, masks),
        st.builds(complex, _COMPONENTS, _COMPONENTS), max_size=12))
    return lat, OperatorSum(L, terms)


def _exact_items(op):
    """Terms in order, coefficients down to the sign of a zero."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in op.items()]


class TestClosedFormBondCircuit:
    """conjugate_ucp takes the bond circuit in one mask step; it must equal
    the gate-by-gate conjugate_circuit exactly, phases and order included."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lattice_strings())
    def test_string_matches_gate_by_gate(self, case):
        lat, p = case
        circ = CzCircuit.chain(lat.length, periodic=lat.is_periodic)
        got, want = cs.conjugate_ucp(p, lat), cs.conjugate_circuit(p, circ)
        assert (got.phase_exp, got.x_mask, got.z_mask) == \
            (want.phase_exp, want.x_mask, want.z_mask)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lattice_sums())
    def test_sum_matches_gate_by_gate(self, case):
        lat, op = case
        circ = CzCircuit.chain(lat.length, periodic=lat.is_periodic)
        assert _exact_items(cs.conjugate_ucp(op, lat)) == \
            _exact_items(cs.conjugate_circuit(op, circ))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(lattice_strings(max_size=8))
    def test_matches_cz_diagonal_oracle(self, case):
        lat, p = case
        d = cs.cz_diagonal(CzCircuit.chain(lat.length,
                                           periodic=lat.is_periodic))
        want = d[:, None] * oracle_matrix(p) * d[None, :]
        assert np.array_equal(oracle_matrix(cs.conjugate_ucp(p, lat)), want)

    def test_rejects_wrong_length_and_type(self):
        lat = cs.LatticeSpec(5)
        with pytest.raises(LengthMismatchError):
            cs.conjugate_ucp(PauliString.identity(4), lat)
        with pytest.raises(LengthMismatchError):
            cs.conjugate_ucp(OperatorSum.identity(6), lat)
        with pytest.raises(TypeError):
            cs.conjugate_ucp("ZXZ", lat)

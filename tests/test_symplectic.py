"""The one GF(2) layer of pauli: a string's symplectic vector
(PauliString.vector) and back (PauliString.hermitian, from_vector), the
symplectic form of vectors (symplectic_form), the forward reduction of
row_echelon (reduced), and the commutant as the symplectic null space;
checked against PauliString.commutes_with, TermTable.anticommuting and
Kronecker-product matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterspt import OperatorSum, PauliString, dense_matrix
from clusterspt.pauli import (TermTable, commutant, reduced, row_echelon,
                              symplectic_form)

from conftest import kron_from_letters

SIZES = (3, 64, 65, 130)


def masks(L):
    """(x, z) mask pairs on L sites."""
    return st.tuples(st.integers(0, (1 << L) - 1),
                     st.integers(0, (1 << L) - 1))


@pytest.mark.parametrize("L", SIZES)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_vectors_and_hermitian_strings_round_trip(L, data):
    x, z = data.draw(masks(L))
    p = PauliString.hermitian(L, x, z)
    assert (p.x_mask, p.z_mask) == (x, z)
    assert p.vector == (x << L) | z
    assert PauliString.from_vector(L, p.vector) == p
    assert p.is_hermitian and p.adjoint() == p
    assert p.label() == f"+1 {p.letters}"
    assert PauliString.from_letters(p.letters) == p
    if L == 3:
        # the string is the letters' Kronecker product, a Hermitian matrix
        m = kron_from_letters(p.letters)
        assert np.array_equal(dense_matrix(OperatorSum.from_pauli(p)), m)
        assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("L", SIZES)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_form_is_the_anticommutation_of_the_strings(L, data):
    pairs = data.draw(st.lists(masks(L), min_size=1, max_size=8))
    phases = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs),
                                max_size=len(pairs)))
    strings = [PauliString(L, k, x, z) for k, (x, z) in zip(phases, pairs)]
    vectors = [p.vector for p in strings]
    links = TermTable(strings).anticommuting()
    for i, p in enumerate(strings):
        row = symplectic_form(vectors[i], vectors, L)
        for j, q in enumerate(strings):
            assert symplectic_form(vectors[i], [vectors[j]], L) == (
                row >> j & 1) == (not p.commutes_with(q)) == links[i, j]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), max_size=8),
    st.integers(0, (1 << n) - 1))))
def test_reduction_is_unique_modulo_the_span(case):
    vectors, v = case
    rows = row_echelon(vectors)
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    rest = reduced(v, rows)
    assert (rest == 0) == (v in span)
    assert rest ^ v in span
    # every member of v's coset reduces to the same vector
    assert all(reduced(v ^ s, rows) == rest for s in span)


@pytest.mark.parametrize("L", (5, 13, 65))
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_commutant_is_the_null_space_of_the_form(L, data):
    pairs = data.draw(st.lists(masks(L), min_size=1, max_size=2 * L + 2))
    ops = [OperatorSum.from_pauli(PauliString.hermitian(L, x, z))
           for x, z in pairs]
    terms = [PauliString.hermitian(L, x, z).vector for x, z in pairs]
    basis = commutant(ops)
    assert basis == row_echelon(basis)
    assert all(symplectic_form(v, terms, L) == 0 for v in basis)
    # the form is nondegenerate: the null space of r independent terms
    # has dimension 2L - r
    assert len(basis) == 2 * L - len(row_echelon(terms))

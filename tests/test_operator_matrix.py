"""Property tests of the CSR operator backend: the mask-built matrix against
the Kronecker oracle, and the iterative eigensolver against dense spectra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum

from conftest import oracle_sum_matrix

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def operator_sums(draw):
    """Random sums on L <= 6 sites; each x mask carries one or more z masks,
    so terms that share a column pattern are common."""
    L = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << L) - 1)
    real = draw(st.booleans())
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    terms = {}
    for x in draw(st.lists(masks, min_size=1, max_size=3, unique=True)):
        for z in draw(st.lists(masks, min_size=1, max_size=3, unique=True)):
            re = draw(parts)
            terms[(x, z)] = complex(re, 0.0 if real else draw(parts))
    return OperatorSum(L, terms)


@PROPERTY
@given(operator_sums())
def test_operator_matrix_matches_kronecker_oracle(op):
    m = cs.operator_matrix(op)
    assert m.dtype == (np.float64 if cs.has_real_matrix(op)
                       else np.complex128)
    np.testing.assert_allclose(m.toarray(), oracle_sum_matrix(op),
                               rtol=0, atol=1e-11)


@PROPERTY
@given(st.integers(4, 10), st.sampled_from(["open", "periodic"]),
       st.floats(0.0, 1.5))
def test_iterative_matches_dense(L, boundary, lam):
    h = cs.perturbed_hamiltonian(LatticeSpec(L, boundary), lam)
    it = cs.eig_low(h, count=8, method="iterative")
    dense = cs.eig_low(h, count=8, method="dense")
    full = np.linalg.eigvalsh(cs.dense_matrix(h))
    assert abs(it.ground_energy - dense.ground_energy) <= 1e-12
    assert it.ground_degeneracy == dense.ground_degeneracy
    nearest = np.abs(it.eigenvalues[:, None] - full[None, :]).min(axis=1)
    assert nearest.max() <= 1e-12


@PROPERTY
@given(operator_sums())
def test_csr_layout_matches_the_memory_estimate(op):
    # eig_low's budget counts 2^L entries per distinct x mask, int32
    # indices, and 8-byte data exactly when the matrix is real
    m = cs.operator_matrix(op)
    x_masks = {x for (x, _), _ in op.items()}
    assert m.nnz == (1 << op.length) * len(x_masks)
    assert m.indices.dtype == m.indptr.dtype == np.int32
    assert m.data.dtype == (np.float64 if cs.has_real_matrix(op)
                            else np.complex128)

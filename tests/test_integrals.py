"""The Pauli integrals of motion that split and pair an open chain's (r, p)
sectors: pauli.commutant on H_C + lambda H_I, the Q and Q_a that
engine._integrals reads off it, checked symbolically at 6-24 sites and
against the sparse Kronecker oracle up to 10, and the orbit table's twin
check on Q_a's pairing (engine._check_table)."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine, pauli
from clusterspt.errors import ConvergenceError

from conftest import (lanczos_row, oracle_sparse, oracle_sum_matrix,
                      oracle_sum_sparse)


def family(L, boundary, lam=1.0):
    lat = LatticeSpec(L, boundary)
    return [cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, lam)]


def odd_z(L, v):
    """Whether the symplectic vector v has odd z weight."""
    return (v & ((1 << L) - 1)).bit_count() & 1


@pytest.mark.parametrize("L", range(6, 25))
def test_the_chain_commutant_has_dimension_three(L):
    # P, the period-3 Q and, when L != 0 mod 3, a parity-odd element
    basis = pauli.commutant(family(L, "open"))
    assert len(basis) == 3
    assert any(odd_z(L, v) for v in basis) == (L % 3 != 0)
    q, qa = engine._integrals(family(L, "open"), "RP")
    assert q is not None and (qa is not None) == (L % 3 != 0)
    full = (1 << L) - 1
    assert (q.x_mask, q.z_mask) != (full, 0)
    assert q.z_mask.bit_count() % 2 == 0
    assert (q.x_mask & q.z_mask).bit_count() % 2 == 0
    if qa is not None:
        assert qa.z_mask.bit_count() % 2 == 1
    if L == 13:
        assert (q.letters, qa.letters) == ("IYYIYYIYYIYYI", "ZXZZXZZXZZXZZ")


@pytest.mark.parametrize("L", range(6, 25))
def test_the_ring_commutant_is_three_only_at_multiples_of_three(L):
    # P alone, unless L = 0 mod 3
    basis = pauli.commutant(family(L, "periodic"))
    assert len(basis) == (3 if L % 3 == 0 else 1)
    if len(basis) == 1:
        assert basis == [PauliString.from_letters("X" * L).vector]


def test_the_commutant_is_the_symplectic_null_space():
    # every string of 4 sites against a random family: it commutes with
    # every term iff its vector lies in the span of the basis, which is
    # in reduced row-echelon form
    rng = np.random.default_rng(3)
    ops = [OperatorSum.from_pauli(PauliString(4, 0, int(x), int(z)))
           for x, z in rng.integers(0, 16, size=(3, 2))]
    basis = pauli.commutant(ops)
    assert basis == pauli.row_echelon(basis)
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    terms = [PauliString(4, 0, x, z).vector
             for op in ops for (x, z), _ in op.items()]
    for v in range(1 << 8):
        s = PauliString.from_vector(4, v)
        assert s.vector == v
        assert all(cs.commutes(s, op) for op in ops) == (v in span)
        assert (pauli.symplectic_form(v, terms, 4) == 0) == (v in span)


def reflection(L):
    """R as a sparse permutation: basis index b to b with its L bits in
    reverse order (site i to site L+1-i)."""
    b = np.arange(1 << L)
    flipped = ((b[:, None] >> np.arange(L)) & 1) @ (1 << np.arange(L)[::-1])
    return scipy.sparse.csr_array((np.ones(b.size), (flipped, b)),
                                  shape=(b.size, b.size))


@pytest.mark.parametrize("L", range(6, 11))
def test_the_integrals_against_the_oracle(L):
    # Q and Q_a commute with H, Q with R and P, Q_a anticommutes with P,
    # R Q_a R = Q_a Q, and Q_a maps every sector's projector onto its
    # twin's, (r, p, q) onto (r q, -p, q); every operator is a sparse
    # matrix of the oracle, as their products and sums are
    lam = 0.7
    h = oracle_sum_sparse(cs.perturbed_hamiltonian(LatticeSpec(L), lam))
    q, qa = engine._integrals(family(L, "open", lam), "RP")
    r, p = reflection(L), oracle_sparse(PauliString.from_letters("X" * L))
    mq = oracle_sparse(q)
    for a, b in ((mq, h), (mq, r), (mq, p)):
        assert abs(a @ b - b @ a).max() <= 1e-12
    if qa is None:
        assert L % 3 == 0
        return
    ma = oracle_sparse(qa)
    assert abs(ma @ h - h @ ma).max() <= 1e-12
    assert abs(ma @ p + p @ ma).max() == 0
    assert abs(r @ ma @ r - ma @ mq).max() == 0
    table = engine._sector_table(L, "RP", (q, qa))
    engine._check_table(table)
    one = scipy.sparse.eye_array(1 << L)
    projector = {}
    for key in table.keys:
        k, s, t = key
        projector[key] = ((one + (-1) ** k * r) @ (one + s * p)
                          @ (one + t * mq)) / 8
    for i, key in enumerate(table.keys):
        twin = table.keys[table.twin[i]]
        k, s, t = key
        assert twin == ((k + (t < 0)) % 2, -s, t)
        assert abs(ma @ projector[key] @ ma - projector[twin]).max() <= 1e-12


@pytest.mark.parametrize("change", ["mate", "phase", "twin"])
def test_a_wrong_pairing_is_rejected(change):
    # two columns of Q_a's map swapped, the phases of a column and of its
    # image flipped together (the map stays an involution), or two
    # sectors' twins swapped: no twin may reuse a solution
    table = engine._sector_table(13, "RP", engine._integrals(
        family(13, "open"), "RP"))
    engine._check_table(table)
    mate, phase = (a.copy() for a in table.swap)
    twin = table.twin.copy()
    if change == "mate":
        mate[[0, 1]] = mate[[1, 0]]
    elif change == "phase":
        back = table.first[table.twin[0]] + mate[0]
        phase[[0, back]] = -phase[[0, back]]
    else:
        twin[[0, 1]] = twin[[1, 0]]
    with pytest.raises(ConvergenceError, match="twin"):
        engine._check_table(dataclasses.replace(
            table, swap=(mate, phase), twin=twin))


def test_unpaired_chains_keep_their_blocks_whole_on_the_lanczos_path():
    # at L = 0 mod 3 Q has no partner: the Lanczos path solves the four
    # (r, p) blocks, the dense path the eight (r, p, q) ones (eig_low's
    # iterative solve of the chain takes its decoupled frame, so the
    # Lanczos path is family_low's one-row call)
    h = cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.6)
    with pytest.MonkeyPatch.context() as patch:
        spy = []
        build = engine._sector_table
        patch.setattr(engine, "_sector_table",
                      lambda *args: spy.append(build(*args)) or spy[-1])
        lanczos_row(h, 6)
        cs.eig_low(h, count=6, method="dense")
    assert [len(t.keys) for t in spy] == [4, 8]


@pytest.mark.parametrize("L", [7, 8])
def test_a_complex_family_reuses_its_twins_unconjugated(L):
    # i [H_C, H_I] has an imaginary matrix and every integral of H_C and
    # H_I: its Q_a twins are reused without conjugation, on both paths,
    # and every level the twins give is an eigenstate of h
    lat = LatticeSpec(L)
    hc, hi = cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0)
    h = hc + hi * 0.5 + (hc.compose(hi) - hi.compose(hc)) * 0.3j
    assert not engine.has_real_matrix(h)
    assert engine._integrals([h], "RP")[1] is not None
    want = np.linalg.eigvalsh(oracle_sum_matrix(h))[:8]
    for method in ("dense", "iterative"):
        spect = cs.eig_low(h, count=8, method=method)
        np.testing.assert_allclose(spect.eigenvalues, want, rtol=0,
                                   atol=1e-12)
        for state, e in zip(spect.states, spect.eigenvalues):
            assert np.linalg.norm(cs.apply(h, state).amps
                                  - e * state.amps) <= 1e-10

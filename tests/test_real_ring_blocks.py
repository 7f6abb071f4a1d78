"""Real ring blocks: the basis U of each complex-character (k, p) sector
that the reflection times complex conjugation (R K) conserves, its guards,
the operators that keep complex blocks, and the ring solves against the
Kronecker oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine
from clusterspt.errors import ConvergenceError

from conftest import basis_matrix, for_each_size, oracle_sum_matrix
from test_sectors import reference_sectors, reflected, reflection_matrix, \
    rotated, sizes


@st.composite
def mirror_ring_operators(draw, L):
    """A random real Hermitian sum on a ring of L sites that the
    translation T, the reflection R and the spin flip P conserve: each
    drawn string of even z weight with all its translates and those of its
    mirror image, on the ring's H_C + lam H_I or not."""
    op = OperatorSum.zero(L)
    if draw(st.booleans()):
        op = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"),
                                      draw(st.floats(0.0, 1.5)))
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.integers(0, (1 << L) - 1))
        z = draw(st.integers(0, (1 << L) - 1))
        if bin(z).count("1") % 2:
            z ^= 1
        coeff = draw(st.floats(-2.0, 2.0))
        for xm, zm in ((x, z), (reflected(x, L), reflected(z, L))):
            for _ in range(L):
                op = op + OperatorSum.from_pauli(PauliString(L, 0, xm, zm),
                                                 coeff)
                xm, zm = rotated(xm, L), rotated(zm, L)
    op = op + op.adjoint()
    assume(not op.is_zero)
    return op


def parity_levels(m, L):
    """Every level of the oracle matrix m with its spin-flip parity,
    ascending in energy: m on the orthonormal pairs (|b> +- |P b>) / sqrt 2
    of the computational basis, P b the complement of b's bits."""
    dim = 1 << L
    b = np.arange(dim)
    low = b[b < (b ^ (dim - 1))]
    levels = []
    for p in (1, -1):
        q = np.zeros((dim, low.size))
        q[low, np.arange(low.size)] = 2 ** -0.5
        q[low ^ (dim - 1), np.arange(low.size)] = p * 2 ** -0.5
        levels += [(e, p) for e in np.linalg.eigvalsh(q.T @ m @ q)]
    return sorted(levels)


def ring_case(L, lam):
    return L, cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), lam)


def test_real_blocks_match_the_oracle():
    for_each_size(
        sizes(3, 2, 1), lambda L: st.tuples(mirror_ring_operators(L),
                                            st.integers(1, 16)),
        check_real_blocks,
        [(*ring_case(10, 1.0), 12),   # the ring at its transition
         (*ring_case(9, 1.3), 12),    # an odd ring: every k != 0 is complex
         (*ring_case(3, 0.7), 6)])    # most orbits have a stabilizer


def check_real_blocks(L, op, count):
    m = oracle_sum_matrix(op).real
    scale = max(1.0, op.norm_bound())
    assert engine._symmetry_group(op) == "TP"
    projection = engine.project_sectors([op], "TP")
    references = reference_sectors(L, "TP")
    r = reflection_matrix(L)
    complex_sectors = {i for i, (k, _, _) in enumerate(projection.sectors)
                       if 2 * k % L}
    assert set(projection.bases) == complex_sectors
    for i, (k, p, (block,)) in enumerate(projection.sectors):
        assert block.dtype == np.float64
        if i not in projection.bases:
            continue
        sigma, _, _ = projection.bases[i]
        assert np.array_equal(sigma[sigma], np.arange(sigma.size))
        u = basis_matrix(projection.bases[i])
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-14
        # R K conserves every column of V U, so V U B (V U)^H is M in the
        # sector
        w = references[(k, p)] @ u
        assert np.abs(r @ w.conj() - w).max() <= 1e-14
        assert np.abs(w.conj().T @ m @ w - block).max() <= 1e-13 * scale
    # the -k twin's real block is the block of k
    for i, j in enumerate(projection.twins):
        if j >= 0:
            assert np.abs(projection.sectors[i][2][0]
                          - projection.sectors[j][2][0]).max() \
                <= 1e-13 * scale

    n = min(count, (1 << L))
    want = parity_levels(m, L)
    energies = np.array([e for e, _ in want])
    spect = cs.eig_low(op, count=count, method="dense")
    np.testing.assert_allclose(spect.eigenvalues, energies[:n], rtol=0,
                               atol=1e-12)
    width = engine.CLUSTER_RTOL * max(1.0, abs(energies[0]))
    assert spect.ground_degeneracy == min(
        n, np.sum(energies <= energies[0] + width))
    # each cluster the window holds whole carries the oracle's parities
    atol = 1e-8
    (vals, labels, states, _), = engine.sector_low(
        projection, [[1.0]], n, [op.norm_bound()], atol=atol)
    np.testing.assert_allclose(vals, energies[:n], rtol=0, atol=1e-12)
    for c in engine._clusters(vals, atol):
        if c.stop < n or n == len(want) or energies[n] - vals[-1] > atol:
            assert sorted(labels[c]) == sorted(p for _, p in want[c])
    for e, psi in zip(vals, states):
        assert np.linalg.norm(m @ psi.amps - e * psi.amps) <= 1e-9 * scale


# a real sum that T and P conserve and R does not, and one whose matrix is
# not real (Y = i X Z)
def skewed(L):
    return cs.cluster_hamiltonian(LatticeSpec(L, "periodic")) \
        + OperatorSum.from_terms(L, [(0.5, PauliString.from_sites(
            L, {j: "X", j % L + 1: "Z", (j + 1) % L + 1: "Z"}))
            for j in range(1, L + 1)])


def imaginary(L):
    return cs.cluster_hamiltonian(LatticeSpec(L, "periodic")) \
        + OperatorSum.from_terms(L, [(0.7, PauliString.from_sites(
            L, {j: "Y", j % L + 1: "Z"})) for j in range(1, L + 1)])


@pytest.mark.parametrize("L", [6, 7])
@pytest.mark.parametrize("build", [skewed, imaginary])
def test_operators_without_the_symmetry_keep_complex_blocks(build, L):
    op = build(L)
    scale = max(1.0, op.norm_bound())
    assert engine._symmetry_group(op) == "TP"
    assert engine._implied_leak(op, "RP") > 1e-12 * scale
    assert engine.has_real_matrix(op) == (build is skewed)
    projection = engine.project_sectors([op], "TP")
    assert projection.bases == {}
    for k, _, (block,) in projection.sectors:
        assert block.dtype == (np.float64 if 2 * k % L == 0
                               and build is skewed else np.complex128)
    m = oracle_sum_matrix(op)
    want = np.linalg.eigvalsh(m)
    # the sector solve keeps the complex blocks too, and a real sum's -k
    # sectors take the conjugate solutions of k, states included
    for method in ("dense", "iterative"):
        spect = cs.eig_low(op, count=12, method=method)
        np.testing.assert_allclose(spect.eigenvalues, want[:12], rtol=0,
                                   atol=1e-12)
        for e, psi in zip(spect.eigenvalues, spect.states):
            assert np.linalg.norm(m @ psi.amps - e * psi.amps) \
                <= 1e-9 * scale


@pytest.mark.parametrize("L,grid", [(8, [0.9, 1.1]), (10, [0.9, 1.1]),
                                    (11, [0.9, 1.1]), (12, [1.0])])
def test_ring_scans_solve_only_real_blocks(L, grid):
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=engine._subset_eigh) as eigh:
        cs.phase_scan(LatticeSpec(L, "periodic"), grid)
    assert eigh.call_count > 0
    assert all(np.isrealobj(c.args[0]) for c in eigh.call_args_list)


def test_realness_guard_rejects_a_tampered_basis(monkeypatch):
    # the rows of one complex sector's U turned by i on the diagonal only:
    # its columns leave R K's fixed vectors, and blocks turn complex
    build = engine._real_bases
    lat = LatticeSpec(8, "periodic")

    def tampered(table):
        bases = build(table)
        i = table.keys.index((1, 1))
        sigma, a, b = bases[i]
        a = a.copy()
        a[:5] *= 1j
        bases[i] = sigma, a, b
        return bases

    monkeypatch.setattr(engine, "_real_bases", tampered)
    with pytest.raises(ConvergenceError, match="not real"):
        engine.project_sectors((cs.cluster_hamiltonian(lat),
                                cs.ising_perturbation(lat, 1.0)), "TP")


@pytest.mark.parametrize("field", ["sigma", "phi"])
def test_involution_guard_rejects_a_tampered_map(monkeypatch, field):
    # one column of a pair mapped to itself, or its phase 1e-9 off its
    # partner's
    pairs = engine._conjugation_pairs
    lat = LatticeSpec(7, "periodic")

    def tampered(table):
        sigma, phi = pairs(table)
        sigma, phi = sigma.copy(), phi.copy()
        dims = np.count_nonzero(table.cols >= 0, axis=1)
        col = np.concatenate([np.arange(d) for d in dims])
        c = int(np.flatnonzero(sigma != col)[0])   # the first pair
        if field == "sigma":
            sigma[c] = col[c]
        else:
            phi[c] *= np.exp(1e-9j)
        return sigma, phi

    monkeypatch.setattr(engine, "_conjugation_pairs", tampered)
    with pytest.raises(ConvergenceError, match="not an involution"):
        engine.project_sectors((cs.cluster_hamiltonian(lat),), "TP")

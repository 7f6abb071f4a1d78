"""Iterative spectra of decoupling Hamiltonians in their Clifford frame.

The terms of an open chain's H_C + lambda H_I (and of any ring's H_C)
fall into anticommutation paths that commute with each other; eig_low's
iterative method solves each path as a small chain on its own qubits of a
frame built and checked on the masks (clifford.path_frame), instead of
the sector Lanczos path, which these tests take as a reference
(conftest.lanczos_row) beside the dense path and the free-fermion oracle.
A ring's H_C + lambda H_I falls into even cycles: each is opened into a
path, whose central X~ is a conserved sign, and every sector of those
signs is a sum of chains (PathFrame.closing_images proves the closing
terms' images), checked here against the Kronecker oracle too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import (LatticeSpec, OperatorSum, PauliString, cli, clifford,
                        engine)
from clusterspt.pauli import TermTable

from conftest import (for_each_size, free_fermion, lanczos_row,
                      oracle_sum_sparse)


def chain(L, lam, boundary="open"):
    return cs.perturbed_hamiltonian(LatticeSpec(L, boundary), lam)


def hermitian_terms(h):
    return [PauliString(h.length, (x & z).bit_count(), x, z)
            for (x, z), _ in h.items()]


@pytest.mark.parametrize("L,boundary,lam,walks", [
    (12, "open", 0.37, [(7, False)] * 3),
    (13, "open", 0.37, [(8, False), (8, False), (7, False)]),
    (24, "open", 1.05, [(15, False)] * 3),
    (10, "periodic", 0.4, [(20, True)]),
    (12, "periodic", 0.4, [(8, True)] * 3),
    (9, "periodic", 0.0, [(1, False)] * 9)])
def test_components_are_read_off_the_masks(L, boundary, lam, walks):
    # open chains take three paths, rings with lambda != 0 cycles, and
    # H_C alone one isolated term per stabilizer
    terms = hermitian_terms(chain(L, lam, boundary))
    parts = TermTable(terms).components()
    assert [(len(w), closed) for w, closed in parts] == walks
    assert sorted(t for w, _ in parts for t in w) == list(range(len(terms)))
    for walk, closed in parts:
        # consecutive terms anticommute, every other pair commutes
        for i, a in enumerate(walk):
            for j, b in enumerate(walk):
                linked = abs(i - j) == 1 or (
                    closed and len(walk) > 2 and abs(i - j) == len(walk) - 1)
                assert terms[a].commutes_with(terms[b]) == (not linked)


def test_a_term_with_three_neighbours_is_no_path_or_cycle():
    # X_2 anticommutes with X_1 Z_2, Z_2 X_3 Z_4 and Y_1 Y_2
    h = chain(8, 0.4) + OperatorSum.from_pauli(
        PauliString.single(8, 2, "X"), 0.3)
    assert TermTable(hermitian_terms(h)).components() is None
    assert engine._decoupled(h) is None


@pytest.mark.parametrize("L,lam,blocks,free", [
    (12, 0.37, [4, 4, 4], 0), (13, 0.37, [4, 4, 4], 1),
    (24, 0.37, [8, 8, 8], 0), (7, 0.0, [1] * 5, 2)])
def test_the_frame_maps_every_path_onto_its_chain(L, lam, blocks, free):
    paths, _ = engine._decoupled(chain(L, lam))
    frame = clifford.path_frame(L, paths)
    assert [n for _, n in frame.blocks] == blocks and frame.free == free
    # the canonical relations and every image, phase included, are
    # checked on the masks; here the images again, term by term
    for path, (first, _) in zip(paths, frame.blocks):
        got = frame.images(path)
        assert got == clifford.chain_images(len(path), first, L)
        assert all(p.phase_exp == 0 for p in got)
    for j in range(L):
        assert frame.images([frame.xs[j], frame.zs[j]]) == [
            PauliString.single(L, j + 1, "X"),
            PauliString.single(L, j + 1, "Z")]


@pytest.mark.parametrize("L,lam", [(13, 0.0), (13, 1e-9), (14, 0.37),
                                   (15, 1.05), (16, 0.6), (16, 1e-9)])
def test_levels_are_the_sector_lanczos_levels(L, lam):
    h = chain(L, lam)
    with mock.patch.object(engine, "sector_lanczos") as sectors:
        spect = cs.eig_low(h, count=12, method="iterative")
    assert sectors.call_count == 0
    vals, _, _, _ = lanczos_row(h, 12)
    np.testing.assert_allclose(spect.eigenvalues, vals, rtol=0, atol=1e-12)
    width = engine.CLUSTER_RTOL * max(1.0, abs(vals[0]))
    assert spect.ground_degeneracy == np.sum(vals <= vals[0] + width)
    assert spect.max_residual <= engine.RESIDUAL_RTOL * h.norm_bound()


@pytest.mark.parametrize("L", [18, 22, 24])
def test_levels_are_the_free_fermion_levels(L):
    for lam in (0.37, 1.0):
        spect = cs.eig_low(chain(L, lam), count=12, method="iterative")
        want = np.array([e for e, _ in free_fermion.spectrum(L, False, lam,
                                                             12)])
        np.testing.assert_allclose(spect.eigenvalues, want, rtol=0,
                                   atol=1e-10)
        assert spect.ground_degeneracy == min(free_fermion.multiplet(want),
                                              12)


def test_the_24_site_ring_of_h_c_takes_its_frame():
    # 24 isolated stabilizers: -24, then every single flip at -22
    spect = cs.eig_low(chain(24, 0.0, "periodic"), count=8,
                       method="iterative")
    want = np.array([e for e, _ in free_fermion.spectrum(24, True, 0.0, 8)])
    np.testing.assert_allclose(spect.eigenvalues, want, rtol=0, atol=1e-10)
    assert spect.ground_degeneracy == 1 and spect.max_residual == 0.0


def oracle_levels(h):
    """Every level of a real h that the spin flip P conserves, from the
    Kronecker oracle (conftest.oracle_sum_sparse) split into its two P
    blocks: on the indices a with site 1 up, H[a, a] +- H[a, ~a]."""
    m = oracle_sum_sparse(h)
    assert abs(m.imag).max() == 0
    m = m.real.toarray()
    half = np.arange(m.shape[0] // 2)
    top, flip = m[half], half ^ (m.shape[0] - 1)
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(top[:, half] + sign * top[:, flip])
        for sign in (1, -1)]))


@pytest.mark.parametrize("L,lam", [(6, 0.37), (6, 1.3), (9, 0.8),
                                   (12, 0.8)])
def test_every_ring_level_is_the_oracle_level(L, lam):
    # three cycles of 2L / 3 terms, each opened into a chain of 2^(L/3 - 1)
    # states per sector of the cycles' three central signs
    h = chain(L, lam, "periodic")
    parts = TermTable(hermitian_terms(h)).components()
    assert [(len(w), closed) for w, closed in parts] == [(2 * L // 3,
                                                          True)] * 3
    vals, states, _ = engine._frame_low(h, 1 << L, *engine._decoupled(h))
    assert len(states) == 1 << L
    np.testing.assert_allclose(vals, oracle_levels(h), rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [15, 18, 21, 24])
def test_ring_levels_are_the_free_fermion_levels(L):
    for lam in (0.1, 0.45, 1.0, 1.37):
        with mock.patch.object(engine, "sector_lanczos") as sectors:
            spect = cs.eig_low(chain(L, lam, "periodic"), count=12,
                               method="iterative")
        assert sectors.call_count == 0
        want = np.array([e for e, _ in free_fermion.spectrum(L, True, lam,
                                                             12)])
        np.testing.assert_allclose(spect.eigenvalues, want, rtol=0,
                                   atol=1e-10)
        assert spect.ground_degeneracy == min(free_fermion.multiplet(want),
                                              12)


@pytest.mark.parametrize("L", range(3, 13))
def test_rings_take_their_frame_when_their_chains_are_small(L):
    # one cycle of 2L terms (a chain of 2^(L-1) states) when 3 does not
    # divide L, three of 2L / 3 when it does; the 3-site ring's six terms
    # are dependent
    h = chain(L, 0.45, "periodic")
    frame = L in (4, 5, 6, 7, 8, 9, 12)
    assert (engine._decoupled(h) is not None) == frame
    count = min(8, (1 << L) - 2)
    with mock.patch.object(engine, "sector_lanczos",
                           wraps=engine.sector_lanczos) as sectors, \
            mock.patch.object(engine, "_frame_low",
                              wraps=engine._frame_low) as frames:
        spect = cs.eig_low(h, count=count, method="iterative")
    assert (frames.call_count, sectors.call_count) == (frame, not frame)
    dense = cs.eig_low(h, count=count, method="dense")
    np.testing.assert_allclose(spect.eigenvalues, dense.eigenvalues,
                               rtol=0, atol=1e-12)
    assert spect.ground_degeneracy == dense.ground_degeneracy


def ring_coefficients(L):
    return st.tuples(st.lists(
        st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05),
        min_size=2 * L, max_size=2 * L))


def test_rings_of_random_coefficients_are_their_dense_levels():
    def check(L, coeffs):
        terms = hermitian_terms(chain(L, 0.5, "periodic"))
        h = OperatorSum.from_terms(L, zip(coeffs, terms))
        assert engine._decoupled(h) is not None
        count = (1 << L) - 2
        spect = cs.eig_low(h, count=count, method="iterative")
        want = np.linalg.eigvalsh(engine.dense_matrix(h))[:count]
        np.testing.assert_allclose(spect.eigenvalues, want, rtol=0,
                                   atol=1e-12)

    for_each_size({6: 10, 9: 10}, ring_coefficients, check)


@pytest.mark.parametrize("L", range(4, 13))
def test_states_are_formed_when_read_and_are_eigenstates(L):
    for lam in (0.0, 1e-9, 0.3, 1.0):
        assert_lazy_eigenstates(chain(L, lam))


@pytest.mark.parametrize("L", [4, 5, 6, 7, 8, 9, 12])
def test_ring_states_are_formed_when_read_and_are_eigenstates(L):
    for lam in (1e-9, 0.3, 1.0):
        h = chain(L, lam, "periodic")
        assert engine._decoupled(h) is not None
        assert_lazy_eigenstates(h)


def assert_lazy_eigenstates(h):
    """h's 8 iterative levels are the dense ones, formed only when read,
    orthonormal eigenstates within the bound max_residual reports, with the
    dense ground space."""
    spect = cs.eig_low(h, count=8, method="iterative")
    dense = cs.eig_low(h, count=8, method="dense")
    np.testing.assert_allclose(spect.eigenvalues, dense.eigenvalues,
                               rtol=0, atol=1e-12)
    assert spect.ground_degeneracy == dense.ground_degeneracy
    assert all(s._amps is None for s in spect.states)
    vecs = np.column_stack([s.amps for s in spect.states])
    assert all(s._amps is not None for s in spect.states)
    np.testing.assert_allclose(vecs.conj().T @ vecs,
                               np.eye(vecs.shape[1]), rtol=0, atol=1e-12)
    residuals = np.linalg.norm(
        engine._act(h, vecs) - vecs * spect.eigenvalues, axis=0)
    scale = max(1.0, h.norm_bound())
    assert residuals.max() <= engine.RESIDUAL_RTOL * scale
    # the chains' summed residuals bound it, up to the rounding of the
    # amplitudes themselves
    assert residuals.max() <= spect.max_residual + 1e-14 * scale
    assert cs.subspace_distance(spect.ground_basis,
                                dense.ground_basis) < 1e-10


@pytest.mark.parametrize("h", [
    chain(10, 0.4, "periodic"),
    chain(8, 0.4) + OperatorSum.from_pauli(PauliString.single(8, 2, "X"),
                                           0.3),
    OperatorSum.from_terms(4, [
        (1.0, PauliString.single(4, 1, "X")),
        (0.7, PauliString.single(4, 2, "X")),
        (0.5, PauliString.from_letters("XXII"))])],
    ids=["ring-cycles", "degree-3", "dependent"])
def test_operators_that_do_not_decouple_keep_the_sector_path(h):
    assert engine._decoupled(h) is None
    with mock.patch.object(engine, "sector_lanczos",
                           wraps=engine.sector_lanczos) as sectors, \
            mock.patch.object(engine, "_frame_low") as frame:
        spect = cs.eig_low(h, count=4, method="iterative")
    assert sectors.call_count == 1 and frame.call_count == 0
    want = cs.eig_low(h, count=4, method="dense").eigenvalues
    np.testing.assert_allclose(spect.eigenvalues, want, rtol=0, atol=1e-12)


def test_dense_solves_and_scans_keep_the_sector_paths():
    h = chain(9, 0.4)
    with mock.patch.object(engine, "_decoupled") as decoupled:
        cs.eig_low(h, count=6, method="dense")
        list(engine.family_low([h], [[1.0]], 6, "iterative"))
    assert decoupled.call_count == 0


def flipped(images, at):
    """PathFrame.images with the sign of the image of term `at` flipped."""
    def corrupted(self, strings):
        out = images(self, strings)
        if len(out) > at:
            p = out[at]
            out[at] = PauliString(p.length, p.phase_exp + 2, p.x_mask,
                                  p.z_mask)
        return out
    return corrupted


@pytest.mark.parametrize("at", [0, 3, 6])
def test_a_corrupted_image_raises_before_any_level(at):
    h = chain(10, 0.6)
    with mock.patch.object(clifford.PathFrame, "images",
                           flipped(clifford.PathFrame.images, at)), \
            mock.patch.object(engine, "_subset_eigh") as solve, \
            pytest.raises(ValueError, match="chain image"):
        cs.eig_low(h, count=6, method="iterative")
    assert solve.call_count == 0


def test_a_corrupted_frame_fails_its_checks():
    L = 10
    paths, _ = engine._decoupled(chain(L, 0.6))
    frame = clifford.path_frame(L, paths)
    x = frame.xs[1]
    # a sign: the image of T_3 = X~_1 X~_2 takes a -1
    signed = clifford.PathFrame(
        L, frame.xs[:1] + (PauliString(L, x.phase_exp + 2, x.x_mask,
                                       x.z_mask),) + frame.xs[2:],
        frame.zs, frame.blocks)
    with pytest.raises(ValueError, match="chain image"):
        signed.check(paths)
    # a partner swapped for another qubit's: a canonical relation fails
    swapped = clifford.PathFrame(
        L, frame.xs, frame.zs[1:2] + frame.zs[:1] + frame.zs[2:],
        frame.blocks)
    with pytest.raises(ValueError, match="canonical relation"):
        swapped.check(paths)
    # and the CLI exits 2 on a frame that fails its check
    with mock.patch.object(clifford.PathFrame, "images",
                           flipped(clifford.PathFrame.images, 2)):
        assert cli.main(["spectrum", "--size", "10", "--lambda", "0.6",
                         "--method", "iterative"]) == 2


def closing_corrupted(images, term, change):
    """PathFrame.images with the image of `term` (a closing term, which no
    path holds) replaced by change(image)."""
    def corrupted(self, strings):
        strings = list(strings)
        return [change(p) if s == term else p
                for s, p in zip(strings, images(self, strings))]
    return corrupted


def padded(h, sites):
    """h on `sites` more idle sites after its own, which the frame leaves
    free, its terms in h's order (which decides where components() opens
    each cycle)."""
    return OperatorSum(h.length + sites, {
        (x << sites, z << sites): c for (x, z), c in h.items()})


def signed(p):
    return PauliString(p.length, p.phase_exp + 2, p.x_mask, p.z_mask)


@pytest.mark.parametrize("h,change,match", [
    (chain(9, 0.6, "periodic"), signed, "does not map onto"),
    # qubit 3 holds the first cycle's central X~: a Z~ there
    (chain(9, 0.6, "periodic"),
     lambda p: PauliString(9, p.phase_exp, p.x_mask, p.z_mask ^ 1 << 6),
     "off its block"),
    # the last qubit is free
    (padded(chain(6, 0.6, "periodic"), 1),
     lambda p: PauliString(7, p.phase_exp, p.x_mask ^ 1, p.z_mask),
     "off its block")], ids=["sign", "central-z", "free"])
def test_a_corrupted_closing_image_raises_before_any_level(h, change, match):
    paths, closing = engine._decoupled(h)
    frame = clifford.path_frame(h.length, paths)
    assert frame.blocks[0] == (0, 3 if h.length == 9 else 2)
    assert frame.free == (1 if h.length == 7 else 0)
    with mock.patch.object(clifford.PathFrame, "images",
                           closing_corrupted(clifford.PathFrame.images,
                                             closing[0], change)), \
            mock.patch.object(engine, "_subset_eigh") as solve, \
            pytest.raises(ValueError, match=match):
        cs.eig_low(h, count=6, method="iterative")
    assert solve.call_count == 0


def test_the_cli_exits_2_on_a_corrupted_closing_image():
    _, closing = engine._decoupled(chain(12, 0.45, "periodic"))
    with mock.patch.object(clifford.PathFrame, "images",
                           closing_corrupted(clifford.PathFrame.images,
                                             closing[1], signed)):
        assert cli.main(["spectrum", "--size", "12", "--boundary",
                         "periodic", "--lambda", "0.45", "--method",
                         "iterative"]) == 2


def test_the_states_are_charged_before_the_frame_is_built(monkeypatch):
    # 12 states of 2^24 amplitudes and one expansion: 4.3 GB
    monkeypatch.setattr(engine, "_physical_memory", lambda: 3 << 30)
    with mock.patch.object(engine, "path_frame") as frame, \
            pytest.raises(cs.ResourceLimitError,
                          match="4.3 GB .12 states and one expansion"):
        cs.eig_low(chain(24, 0.37), count=12, method="iterative")
    assert frame.call_count == 0

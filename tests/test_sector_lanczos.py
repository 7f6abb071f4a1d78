"""Lanczos per spin-flip block (engine.sector_lanczos): against the dense
sector path up to 12 sites, against the free-fermion levels of
bench/oracle.py at 13-14 sites, and its memory budget."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, engine

from conftest import free_fermion

PROPERTY = settings(max_examples=12, derandomize=True, deadline=None)


def _window(vals):
    """Size of the ground cluster, by eig_low's rule."""
    return int(np.sum(vals <= vals[0] + engine.CLUSTER_RTOL
                      * max(1.0, abs(vals[0]))))


@PROPERTY
@given(st.integers(4, 12), st.sampled_from(["open", "periodic"]),
       st.floats(0.0, 1.5), st.integers(1, 8))
@example(4, "open", 0.3, 8)        # 8-state blocks: dense eigh, not ARPACK
@example(5, "periodic", 0.7, 8)    # ncv is the whole 16-state block
@example(10, "open", 0.0, 8)       # the edge quartet, two in each block
def test_sector_lanczos_matches_the_dense_sector_path(L, boundary, lam,
                                                      count):
    lat = LatticeSpec(L, boundary)
    h = cs.perturbed_hamiltonian(lat, lam)
    vals, labels, states, worst = engine.sector_lanczos(h, count)
    # a wider dense window, so a level Krylov returned in place of a
    # dropped copy is in it too
    want, want_labels, _, _ = engine.sector_low(
        engine.project_sectors([h], lat.is_periodic), [1.0],
        min(4 * count, (1 << L) - 2), h.norm_bound())
    assert vals.shape == (count,)
    assert worst <= engine.RESIDUAL_RTOL * max(1.0, h.norm_bound())
    # every level is a true level, and one of its own parity sector up to
    # the cluster width, inside which the labels come sorted by parity
    for e, p in zip(vals, labels):
        assert np.abs(want - e).min() <= 1e-12
        assert np.abs(want[want_labels == p] - e).min() <= 1e-8
    # the window is exact unless it holds a level degenerate inside one
    # sector, where Krylov may return one copy (eig_low's caveat)
    inner = any(np.sum((np.abs(want - e) <= 1e-8) & (want_labels == p)) > 1
                for e, p in zip(want[:count], want_labels[:count]))
    if not inner:
        np.testing.assert_allclose(vals, want[:count], rtol=0, atol=1e-12)
    assert _window(vals) == _window(want[:count])
    # each label is <P> of its state; P reverses the basis index
    flips = [np.vdot(s.amps, s.amps[::-1]).real for s in states]
    np.testing.assert_allclose(flips, labels, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L,boundary", [(6, "periodic"), (7, "periodic"),
                                        (8, "open")])
def test_csr_blocks_are_the_dense_projection(L, boundary):
    # both layouts take _sector_entries' rows; a ring's table has orbit
    # sums that vanish in some sectors, whose entries the blocks drop
    lat = LatticeSpec(L, boundary)
    h = cs.perturbed_hamiltonian(lat, 0.7)
    table, sectors = engine.project_sectors([h], lat.is_periodic)
    blocks = engine._sector_blocks(table, h)
    assert len(blocks) == len(sectors)
    for (_, _, (dense,)), block in zip(sectors, blocks):
        np.testing.assert_array_equal(block.toarray(), dense)


def test_eig_low_takes_the_blocks_only_for_symmetric_operators():
    lat = LatticeSpec(8, "open")
    with mock.patch.object(engine, "sector_lanczos",
                           wraps=engine.sector_lanczos) as spy:
        sym = cs.eig_low(cs.perturbed_hamiltonian(lat, 0.4), count=6,
                         method="iterative")
        assert spy.call_count == 1
        # a Z field breaks P: the full-space Lanczos cross-check
        field = cs.OperatorSum.from_terms(
            8, [(0.3, cs.PauliString.single(8, 4, "Z"))])
        broken = cs.eig_low(cs.perturbed_hamiltonian(lat, 0.4) + field,
                            count=6, method="iterative")
        assert spy.call_count == 1
    assert sym.method == broken.method == "iterative"
    dense = cs.eig_low(cs.perturbed_hamiltonian(lat, 0.4) + field, count=6,
                       method="dense")
    np.testing.assert_allclose(broken.eigenvalues, dense.eigenvalues,
                               rtol=0, atol=1e-10)


# (L, boundary, lambda) above the dense sizes.  At the first three, Lanczos
# on the full 2^L space returns a window that skips a level of the lowest 8.
ABOVE_DENSE = [(13, "open", 0.305), (14, "open", 0.36), (14, "periodic", 1.07),
               (13, "periodic", 0.15), (14, "open", 1.35), (13, "open", 1.05)]


@pytest.mark.parametrize("L,boundary,lam", ABOVE_DENSE)
def test_iterative_window_is_the_free_fermion_window(L, boundary, lam):
    h = cs.perturbed_hamiltonian(LatticeSpec(L, boundary), lam)
    spect = cs.eig_low(h, count=8, method="iterative")
    levels = free_fermion.spectrum(L, boundary == "periodic", lam)
    want = np.array([e for e, _ in levels])
    np.testing.assert_allclose(spect.eigenvalues, want[:8], rtol=0,
                               atol=1e-10)
    assert spect.ground_degeneracy == min(free_fermion.multiplet(want), 8)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_labels_are_the_free_fermion_parities(boundary):
    # every cluster the window keeps whole carries the oracle's parities
    L, lam, count = 13, 0.9, 12
    vals, labels, _, _ = engine.sector_lanczos(
        cs.perturbed_hamiltonian(LatticeSpec(L, boundary), lam), count)
    levels = free_fermion.spectrum(L, boundary == "periodic", lam)
    want = np.array([e for e, _ in levels])
    np.testing.assert_allclose(vals, want[:count], rtol=0, atol=1e-10)
    start = 0
    while start < count:
        size = free_fermion.multiplet(list(want), start, 1e-8)
        if start + size <= count:
            assert sorted(labels[start:start + size]) == sorted(
                p for _, p in levels[start:start + size])
        start += size


def test_scan_above_the_dense_sizes_matches_the_free_fermion_levels():
    scan = cs.phase_scan(LatticeSpec(13, "periodic"), [0.9, 1.0, 1.1])
    for i, lam in enumerate(scan.grid):
        levels = free_fermion.spectrum(13, True, lam)
        assert scan.energy[i] == pytest.approx(levels[0][0], abs=1e-10)
        assert scan.gap[i] == pytest.approx(levels[1][0] - levels[0][0],
                                            abs=1e-10)
        assert scan.gs_parity[i] == levels[0][1]


def test_budget_covers_the_chain_solve():
    # building the two 8192-state blocks of the 14-site chain, then their
    # solves and the expanded states
    h = cs.perturbed_hamiltonian(LatticeSpec(14, "open"), 0.45)
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            cs.eig_low(h, count=8, method="iterative")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


def test_budget_is_charged_before_the_orbit_table(monkeypatch):
    monkeypatch.setattr(engine, "_physical_memory", lambda: 1 << 20)
    h = cs.perturbed_hamiltonian(LatticeSpec(14, "open"), 0.45)
    with mock.patch.object(engine, "_sector_table") as table, \
            mock.patch.object(engine, "_mask_rows") as kernel:
        with pytest.raises(cs.ResourceLimitError, match="needs about"):
            cs.eig_low(h, count=8, method="iterative")
    assert table.call_count == kernel.call_count == 0

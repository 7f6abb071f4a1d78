"""Sector solves one symmetry block at a time (engine.sector_lanczos): a
ring's real (k, p) blocks and an open chain's (r, p) blocks, against the
dense sector path up to 12 sites and the free-fermion levels of
bench/oracle.py at 13-14 sites; which blocks a ring builds and solves,
the levels each first and second pass asks of a block, ARPACK on a
block's own product, the -k twins that reuse a solution, the table's twin
check, its memory budget, and the one set of sectors an iterative family
builds for all its couplings."""

import collections
import dataclasses
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, engine
from clusterspt.errors import ConvergenceError

from conftest import basis_matrix, for_each_size, free_fermion, lanczos_row

# the solvers themselves, for the spies to call
EIGH, EIGSH = engine._subset_eigh, scipy.sparse.linalg.eigsh


def _window(vals):
    """Size of the ground cluster, by eig_low's rule."""
    return int(np.sum(vals <= vals[0] + engine.CLUSTER_RTOL
                      * max(1.0, abs(vals[0]))))


def test_sector_lanczos_matches_the_dense_sector_path():
    for_each_size(
        # two cases per site count, one at 12 sites
        {**dict.fromkeys(range(4, 12), 2), 12: 1}, lambda L: st.tuples(
            st.sampled_from(["open", "periodic"]), st.floats(0.0, 1.5),
            st.integers(1, 8)),
        check_sector_lanczos,
        [(4, "open", 0.3, 8),        # 8-state blocks: dense eigh, not ARPACK
         (5, "periodic", 0.7, 8),    # ten (k, p) blocks of 2-4 states
         (10, "open", 0.0, 8),       # the edge quartet, two in each block
         (11, "open", 0.6, 8)])      # blocks of 528 states: ARPACK


def check_sector_lanczos(L, boundary, lam, count):
    lat = LatticeSpec(L, boundary)
    h = cs.perturbed_hamiltonian(lat, lam)
    vals, labels, states, worst = lanczos_row(h, count)
    # a wider dense window, so a level Krylov returned in place of a
    # dropped copy is in it too
    (want, want_labels, _, _), = engine.sector_low(
        engine.project_sectors([h], "TP" if lat.is_periodic else "RP"),
        [[1.0]], min(4 * count, (1 << L) - 2), [h.norm_bound()])
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
    # both layouts take _sector_entries' rows; a ring's and a reflection's
    # tables have orbit sums that vanish in some sectors, whose entries the
    # blocks drop.  A ring sector with a complex character takes its block
    # in the real basis U on both paths: the CSR block as the sparse
    # product U^H B U, equal to the dense scatter up to rounding, and the
    # orbit-basis block U B U^H with no basis
    lat = LatticeSpec(L, boundary)
    h = cs.perturbed_hamiltonian(lat, 0.7)
    projected = engine.project_sectors([h], "TP" if lat.is_periodic else "RP")
    table = projected.table
    assert lat.is_periodic == bool(projected.bases)
    for i, (_, _, (dense,)) in enumerate(projected.sectors):
        block = engine._sector_block(table, h, i, projected.bases.get(i))
        assert block.dtype == np.float64
        if i in projected.bases:
            np.testing.assert_allclose(block.toarray(), dense, rtol=0,
                                       atol=1e-14 * h.norm_bound())
            u = basis_matrix(projected.bases[i])
            np.testing.assert_allclose(
                u @ dense @ u.conj().T,
                engine._sector_block(table, h, i).toarray(), rtol=0,
                atol=1e-14 * h.norm_bound())
        else:
            np.testing.assert_array_equal(block.toarray(), dense)


def test_eig_low_takes_the_blocks_only_for_symmetric_operators():
    # a ring with lambda != 0, whose terms do not decouple (their
    # anticommutation graph is one cycle, whose chain of 2^9 states is
    # above DENSE_BLOCK_STATES)
    lat = LatticeSpec(10, "periodic")
    with mock.patch.object(engine, "sector_lanczos",
                           wraps=engine.sector_lanczos) as spy:
        sym = cs.eig_low(cs.perturbed_hamiltonian(lat, 0.4), count=6,
                         method="iterative")
        assert spy.call_count == 1
        # a Z field breaks P: the full-space Lanczos cross-check
        field = cs.OperatorSum.from_terms(
            10, [(0.3, cs.PauliString.single(10, 4, "Z"))])
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


# Windows that the two parity blocks cut, each holding a level degenerate
# inside one parity block: they dropped copies by 2.0e-4 (the chain), 1.4e-3
# (the 8-site ring) and 2.0 (the rings at lambda = 0, whose level above the
# ground state is 13- and 14-fold).  The (r, p) blocks hold them whole.
PARITY_CUT = [(12, "open", 0.001, 8), (8, "periodic", 0.001, 4),
              (13, "periodic", 0.0, 12), (14, "periodic", 0.0, 12)]


@pytest.mark.parametrize("L,boundary,lam,count", PARITY_CUT)
def test_windows_the_parity_blocks_cut_are_whole(L, boundary, lam, count):
    h = cs.perturbed_hamiltonian(LatticeSpec(L, boundary), lam)
    spect = cs.eig_low(h, count=count, method="iterative")
    want = np.array([e for e, _ in
                     free_fermion.spectrum(L, boundary == "periodic", lam)])
    np.testing.assert_allclose(spect.eigenvalues, want[:count], rtol=0,
                               atol=1e-12)
    assert spect.ground_degeneracy == min(free_fermion.multiplet(want),
                                          count)


# the benchmark's lanczos-spectrum couplings: the midpoints of its five
# strata of [0, 1.5]
STRATA = [0.15, 0.45, 0.75, 1.05, 1.35]


@pytest.mark.parametrize("L", [13, 14])
@pytest.mark.parametrize("lam", STRATA)
def test_chain_windows_at_the_benchmark_couplings(L, lam):
    vals, labels, _, _ = lanczos_row(
        cs.perturbed_hamiltonian(LatticeSpec(L, "open"), lam), 8)
    levels = free_fermion.spectrum(L, False, lam)
    np.testing.assert_allclose(vals, [e for e, _ in levels[:8]], rtol=0,
                               atol=1e-12)
    # the window ends on a whole multiplet at these couplings, so its
    # levels carry the oracle's parities
    assert levels[8][0] - levels[7][0] > 1e-8
    assert sorted(labels) == sorted(p for _, p in levels[:8])


def check_oracle_window(L, periodic, lam, count, vals, labels):
    """A sector_lanczos window against the free-fermion levels: energies
    to 1e-10, the ground multiplicity exactly, the parities of every
    multiplet the window holds whole, and, for the one it cuts, kept
    parities the multiplet has."""
    levels = free_fermion.spectrum(L, periodic, lam)
    want = np.array([e for e, _ in levels])
    np.testing.assert_allclose(vals, want[:count], rtol=0, atol=1e-10)
    assert _window(vals) == min(free_fermion.multiplet(want), count)
    start = 0
    while start < count:
        size = free_fermion.multiplet(list(want), start, 1e-8)
        kept = collections.Counter(labels[start:start + size])
        have = collections.Counter(p for _, p in levels[start:start + size])
        assert kept == have if start + size <= count else kept <= have
        start += size


@pytest.mark.parametrize("L", [13, 14])
@pytest.mark.parametrize("lam", STRATA)
def test_ring_windows_at_the_benchmark_couplings(L, lam):
    # the rings' (k, p) blocks: most of these windows end inside a
    # momentum pair or a larger multiplet
    h = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), lam)
    vals, labels, _, _ = lanczos_row(h, 8)
    check_oracle_window(L, True, lam, 8, vals, labels)


def solve_spied(h, count):
    """lanczos_row(h, count) with the sectors whose blocks it builds,
    each solve's matrix and level count (dense or eigsh), and the
    solutions it merges."""
    solves = []

    def eigh(a, n):
        solves.append((a, n))
        return EIGH(a, n)

    def eigsh(a, **kwargs):
        solves.append((a, kwargs["k"]))
        return EIGSH(a, **kwargs)

    with mock.patch.object(engine, "_sector_block",
                           wraps=engine._sector_block) as blocks, \
            mock.patch.object(engine, "_subset_eigh", side_effect=eigh), \
            mock.patch.object(engine.scipy.sparse.linalg, "eigsh",
                              side_effect=eigsh), \
            mock.patch.object(engine, "_merge_levels",
                              wraps=engine._merge_levels) as merge:
        result = lanczos_row(h, count)
    built = [c.args[2] for c in blocks.call_args_list]
    return result, built, solves, merge.call_args.args[1]


@pytest.mark.parametrize("L,lam", [(13, 0.75), (14, 0.45)])
def test_ring_builds_only_its_own_sectors(L, lam):
    # a real, R-invariant ring Hamiltonian: every sector k <= L/2 builds
    # its block once, real, and solves it once at ceil(4 * 8 / own)
    # levels, dense at 13 sites (blocks of 315 states), by ARPACK at 14
    # (576-596); every -k sector builds nothing and takes the solution of
    # k as it is (real bases)
    h = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), lam)
    (vals, labels, _, _), built, solves, solved = solve_spied(h, 8)
    table = engine._sector_table(L, "TP")
    own = [i for i, (k, _) in enumerate(table.keys) if 2 * k <= L]
    assert len(table.keys) == 2 * L and len(own) == L // 2 * 2 + 2
    assert built == own
    assert [n for _, n in solves] == [-(-32 // len(own))] * len(own)
    assert all(a.dtype == np.float64 for a, _ in solves)
    assert all(isinstance(a, np.ndarray) == (L == 13) for a, _ in solves)
    index = {key: i for i, key in enumerate(table.keys)}
    for i, (k, p) in enumerate(table.keys):
        if 2 * k > L:
            j = index[(L - k, p)]
            assert solved[i][0] == p and solved[i][1] is solved[j][1]
            np.testing.assert_array_equal(solved[i][2], solved[j][2])
    spect = cs.eig_low(h, 8, "iterative")
    np.testing.assert_array_equal(spect.eigenvalues, vals)
    assert spect.ground_degeneracy == _window(vals)
    check_oracle_window(L, True, lam, 8, vals, labels)


def test_a_ring_sector_the_window_needs_is_solved_again():
    # 14-site ring at lambda = 1.35, count 8: the first pass takes 2 levels
    # of each of the 16 own sectors; (0, +1) and (7, -1), which have no
    # twin, each give 2 levels at or below the window's top and hold
    # more, and are solved again for 8
    L, lam = 14, 1.35
    h = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), lam)
    (vals, labels, _, _), built, solves, _ = solve_spied(h, 8)
    keys = engine._sector_table(L, "TP").keys
    assert len(built) == 18
    assert [keys[i] for i in built[16:]] == [(0, 1), (7, -1)]
    assert [n for _, n in solves] == [2] * 16 + [8, 8]
    check_oracle_window(L, True, lam, 8, vals, labels)


def lanczos_counts(h, count):
    """lanczos_row(h, count) with the (states, levels) of each ARPACK
    solve (_checked_lanczos), in order."""
    with mock.patch.object(engine, "_checked_lanczos",
                           wraps=engine._checked_lanczos) as spy:
        result = lanczos_row(h, count)
    return result, [(c.args[0].shape[0], c.args[1])
                    for c in spy.call_args_list]


# the 13-site chain's own (r, p, q) blocks, which Q_a pairs with the other
# four
CHAIN_BLOCKS = (1056, 1024, 1024, 992)


@pytest.mark.parametrize("count,first", [(8, 4), (12, 6)])
def test_chain_first_pass_is_twice_each_share(count, first):
    # four own sectors: each is asked for twice its even share of the
    # window, max(4, ceil(2 count / 4)) levels, not the whole count, and
    # none is solved again at this coupling
    h = cs.perturbed_hamiltonian(LatticeSpec(13, "open"), 0.45)
    (vals, labels, _, _), solves = lanczos_counts(h, count)
    assert solves == [(d, first) for d in CHAIN_BLOCKS]
    check_oracle_window(13, False, 0.45, count, vals, labels)


def test_chain_blocks_the_window_needs_are_solved_again():
    # at lambda = 0 every own block holds many copies of the first
    # excited level, which is the window's top: each gives its 4 levels at
    # or below it and is solved again at the whole count
    h = cs.perturbed_hamiltonian(LatticeSpec(13, "open"), 0.0)
    (vals, labels, _, _), solves = lanczos_counts(h, 8)
    assert solves == ([(d, 4) for d in CHAIN_BLOCKS]
                      + [(d, 8) for d in CHAIN_BLOCKS])
    check_oracle_window(13, False, 0.0, 8, vals, labels)


def test_spin_flip_blocks_are_asked_for_the_whole_count():
    # an X1 X2 term keeps P but breaks R: two own sectors, whose twice-
    # the-share is the whole count, each solved once
    lat = LatticeSpec(13, "open")
    h = cs.perturbed_hamiltonian(lat, 0.45) + cs.OperatorSum.from_pauli(
        cs.PauliString.from_letters("XX" + "I" * 11), 0.3)
    assert engine._symmetry_group(h) == "P"
    (vals, _, _, _), solves = lanczos_counts(h, 8)
    assert solves == [(4096, 8), (4096, 8)]
    assert vals.shape == (8,) and np.all(np.diff(vals) >= 0)


def real_ring_block():
    """A 14-site ring sector with a complex character, as its real block
    U^H B U."""
    h = cs.perturbed_hamiltonian(LatticeSpec(14, "periodic"), 0.9)
    table = engine._sector_table(14, "TP")
    engine._check_table(table)
    bases = engine._real_bases(table)
    i = min(bases)
    return engine._sector_block(table, h, i, bases[i])


def chain_block():
    """The first (r, p) block of the 12-site chain."""
    h = cs.perturbed_hamiltonian(LatticeSpec(12, "open"), 0.45)
    table = engine._sector_table(12, "RP")
    engine._check_table(table)
    return engine._sector_block(table, h, 0)


@pytest.mark.parametrize("build", [chain_block, real_ring_block])
def test_lanczos_is_eigsh_on_the_block_bit_for_bit(build):
    # ARPACK on the block's own product gives the values and vectors of
    # eigsh on the CSR block itself, with the same arguments
    block = build()
    d = block.shape[0]
    assert block.dtype == np.float64 and d > engine.DENSE_BLOCK_STATES
    k = 8
    ncv = engine._krylov(k, d)
    seeded = ({"rng": np.random.default_rng(1)} if engine._EIGSH_TAKES_RNG
              else {})
    want, vecs = EIGSH(block, k=k, which="SA",
                       maxiter=engine._LANCZOS_MAXITER, tol=0, ncv=ncv,
                       v0=np.random.default_rng(0).standard_normal(d),
                       **seeded)
    order = np.argsort(want)
    vals, got = engine._lanczos(block, k, ncv)
    np.testing.assert_array_equal(vals, want[order])
    np.testing.assert_array_equal(got, vecs[:, order])


@pytest.mark.parametrize("method", ["iterative", "dense"])
@pytest.mark.parametrize("field", ["chars", "twin"])
def test_a_table_without_conjugate_twins_is_rejected(monkeypatch, field,
                                                     method):
    # the character of (-1, +1) replaced by that of (1, +1), or the twin
    # of (-1, +1) pointed at (1, -1): the -k block would not be the
    # conjugate of its twin's, so no solution may be reused, on the
    # Lanczos path or the dense one
    build = engine._sector_table

    def tampered(length, group, *integrals):
        table = build(length, group, *integrals)
        i = table.keys.index((length - 1, 1))
        values = getattr(table, field).copy()
        values[i] = (values[table.keys.index((1, 1))] if field == "chars"
                     else table.keys.index((1, -1)))
        return dataclasses.replace(table, **{field: values})

    monkeypatch.setattr(engine, "_sector_table", tampered)
    h = cs.perturbed_hamiltonian(LatticeSpec(8, "periodic"), 0.7)
    with pytest.raises(ConvergenceError, match="twin"):
        if method == "iterative":
            lanczos_row(h, 4)
        else:
            cs.eig_low(h, 4, method="dense")


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_labels_are_the_free_fermion_parities(boundary):
    # every cluster the window keeps whole carries the oracle's parities
    L, lam, count = 13, 0.9, 12
    vals, labels, _, _ = lanczos_row(
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
    # building the four own (r, p, q) blocks of about 2048 states of the
    # 14-site chain, then their solves and the expanded states
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


@pytest.mark.parametrize("L", [14, 16])
@pytest.mark.parametrize("count", [8, 12])
def test_budget_covers_the_ring_solve(L, count):
    # the orbit table, the real bases, each (k, p) block's build and solve
    # one at a time, the kept sector vectors and the expanded states
    h = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), 0.9)
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            cs.eig_low(h, count=count, method="iterative")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


@pytest.mark.parametrize("group", ["TP", "RP", "P"])
def test_the_charged_block_bound_holds(group):
    # the charge reads the largest block off its bound, before any table
    for L in range(2, 15):
        table = engine._sector_table(L, group)
        assert np.count_nonzero(table.cols >= 0, axis=1).max() \
            <= engine._largest_sector(L, group)


def test_budget_is_charged_before_the_orbit_table(monkeypatch):
    monkeypatch.setattr(engine, "_physical_memory", lambda: 1 << 20)
    h = cs.perturbed_hamiltonian(LatticeSpec(14, "open"), 0.45)
    with mock.patch.object(engine, "_sector_table") as table, \
            mock.patch.object(engine, "_mask_rows") as kernel:
        with pytest.raises(cs.ResourceLimitError, match="needs about"):
            cs.eig_low(h, count=8, method="iterative")
    assert table.call_count == kernel.call_count == 0


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_an_iterative_family_builds_its_sectors_once(boundary):
    # three couplings of (H_C, H_I) share one orbit table, one table check
    # and, on the ring, one set of real bases; each coupling's levels are,
    # bit for bit, those of its own one-row solve
    lat = LatticeSpec(13, boundary)
    ops = (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0))
    grid = [0.6, 0.9, 1.2]
    with ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
            engine, name, wraps=getattr(engine, name)))
            for name in ("_sector_table", "_check_table", "_real_bases")}
        family = [levels for chunk in engine.family_low(
            ops, [[1.0, lam] for lam in grid], 8, "iterative")
            for levels in chunk]
    assert {name: spy.call_count for name, spy in spies.items()} == {
        "_sector_table": 1, "_check_table": 1,
        "_real_bases": int(lat.is_periodic)}
    assert len(family) == len(grid)
    for lam, (vals, labels, states, _) in zip(grid, family):
        [[(want, want_labels, want_states, _)]] = engine.family_low(
            ops, [[1.0, lam]], 8, "iterative")
        assert vals.tobytes() == want.tobytes()
        assert labels.tobytes() == want_labels.tobytes()
        assert states[0].amps.tobytes() == want_states[0].amps.tobytes()


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_a_family_that_breaks_the_spin_flip_is_rejected(method):
    # a Z field breaks P, so the family has no sectors to solve in
    lat = LatticeSpec(8, "open")
    field = cs.OperatorSum.from_pauli(cs.PauliString.single(8, 4, "Z"), 0.3)
    with pytest.raises(ConvergenceError, match="not invariant"):
        list(engine.family_low((cs.cluster_hamiltonian(lat), field),
                               [[1.0, 0.5]], 4, method))


@pytest.mark.parametrize("L", [13, 14, 15, 16])
def test_paired_chain_sectors_are_solved_once(L):
    # where L != 0 mod 3, Q_a pairs the eight (r, p, q) sectors: the
    # Lanczos path builds and solves the four own blocks only, and each
    # twin takes its source's levels; at 15 sites Q has no partner and
    # the four (r, p) blocks are solved.  Windows are the free fermions'
    lam = 0.7
    h = cs.perturbed_hamiltonian(LatticeSpec(L, "open"), lam)
    with mock.patch.object(engine, "_checked_low",
                           wraps=engine._checked_low) as solves, \
            mock.patch.object(engine, "_sector_block",
                              wraps=engine._sector_block) as blocks:
        vals, labels, states, _ = lanczos_row(h, 8)
    table = blocks.call_args.args[0]
    own = [i for i, j in enumerate(table.reused(True)) if j < 0]
    assert len(table.keys) == (4 if L == 15 else 8)
    assert len(own) == 4
    assert sorted({c.args[2] for c in blocks.call_args_list}) == own
    assert [c.args[0].shape[0] for c in solves.call_args_list] \
        == [table.dims[i] for i in own]
    check_oracle_window(L, False, lam, 8, vals, labels)
    # a twin's level is a true eigenstate of h, of its sector's parity
    for state, label in zip(states, labels):
        if table.reused(True)[state.sector] >= 0:
            moved = cs.apply(h, state).amps
            energy = np.vdot(state.amps, moved).real
            assert np.linalg.norm(moved - energy * state.amps) <= 1e-9
            flip = cs.PauliString.from_letters("X" * L)
            assert np.allclose(cs.apply(flip, state).amps,
                               label * state.amps, atol=1e-12)


@pytest.mark.parametrize("L", range(6, 13))
def test_split_chain_levels_are_the_unsplit_ones(L, monkeypatch):
    # the dense path's (r, p, q) sectors against the four (r, p) blocks
    # alone (no integral): energies to 1e-12, the same ground multiplicity
    # and the parities of every cluster the window holds whole
    for lam in (0.0, 0.45) if L < 12 else (1.05,):
        h = cs.perturbed_hamiltonian(LatticeSpec(L, "open"), lam)
        levels = []
        for integrals in (engine._integrals, lambda ops, group: (None,) * 2):
            monkeypatch.setattr(engine, "_integrals", integrals)
            engine._KEPT.clear()
            [[(vals, labels, _, _)]] = engine.family_low([h], [[1.0]], 8)
            levels.append((vals, labels))
        (vals, labels), (want, want_labels) = levels
        np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12)
        assert _window(vals) == _window(want)
        clusters = list(engine._clusters(want, 1e-8))
        for c in clusters[:-1]:
            assert sorted(labels[c]) == sorted(want_labels[c])

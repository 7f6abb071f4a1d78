"""Per-sector level counts in the dense sector solve (engine.sector_low):
a first pass of ceil(4 count / own sectors) levels per solved sector, and a
second solve at the full count for a sector the window needs, against the
Kronecker oracle and against solving every sector at min(count, d)."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine

from conftest import (for_each_size, lanczos_row, oracle_sum_matrix,
                      sector_census)
from test_real_ring_blocks import parity_levels
from test_sectors import rotated, sizes

ATOL = 1e-8
EIGH = scipy.linalg.eigh   # the reference solver
SUBSET_EIGH = engine._subset_eigh   # the solver itself, for the spies


@st.composite
def ring_operators(draw, L):
    """(H, count): H the ring's H_C + lam H_I with 1-3 drawn strings of
    even z weight on L sites, each summed over its translates with a real
    coefficient, made Hermitian: a real sum that the translation T and the
    spin flip P conserve, and the reflection as a rule not; count the
    levels to ask for."""
    op = cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"),
                                  draw(st.floats(0.0, 1.5)))
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.integers(0, (1 << L) - 1))
        z = draw(st.integers(0, (1 << L) - 1))
        if bin(z).count("1") % 2:
            z ^= 1
        coeff = draw(st.floats(-2.0, 2.0))
        for _ in range(L):
            op = op + OperatorSum.from_pauli(PauliString(L, 0, x, z), coeff)
            x, z = rotated(x, L), rotated(z, L)
    op = op + op.adjoint()
    assume(not op.is_zero)
    return op, draw(st.integers(1, 16))


def full_count(projection, coeffs, count):
    """(vals, labels) of every sector solved at min(count, d) by the same
    subset eigh, merged by _merge_levels."""
    solved = []
    for _, p, blocks in projection.sectors:
        h = sum(c * b for c, b in zip(coeffs, blocks))
        n = min(count, h.shape[0])
        e, w = EIGH(h, subset_by_index=[0, n - 1], check_finite=False)
        solved.append((p, e, w))
    vals, labels, _ = engine._merge_levels(projection.table, solved, count,
                                           ATOL, projection.bases)
    return vals, labels


def check_window(projection, coeffs, count, norm):
    """sector_low against full_count: levels to 1e-12 and equal labels;
    and every level a sector left out lies above the window's top + atol
    (up to rounding: atol / 2)."""
    with mock.patch.object(engine, "_merge_levels",
                           wraps=engine._merge_levels) as merge:
        (vals, labels, _, _), = engine.sector_low(projection, [coeffs], count,
                                                  [norm], atol=ATOL)
    want, want_labels = full_count(projection, coeffs, count)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(labels, want_labels)
    solved = merge.call_args.args[1]
    found = np.sort(np.concatenate([e for _, e, _ in solved]))
    top = found[count - 1] if found.size >= count else np.inf
    for (_, e, _), (_, _, blocks) in zip(solved, projection.sectors):
        levels = np.linalg.eigvalsh(sum(c * b for c, b in zip(coeffs,
                                                              blocks)))
        assert e.size >= np.sum(levels[:count] <= top + ATOL / 2)


def check_ring_sum(L, op, count):
    """eig_low's dense path against the Kronecker oracle at `count` and at a
    count above every sector's dimension: levels to 1e-12, the ground
    multiplicity, and the parities of every cluster the window holds whole;
    sector_low against full_count at both."""
    m = oracle_sum_matrix(op).real
    scale = max(1.0, op.norm_bound())
    want = parity_levels(m, L)
    energies = np.array([e for e, _ in want])
    projection = engine.project_sectors([op], "TP")
    largest = max(block.shape[0] for _, _, (block,) in projection.sectors)
    flip = np.arange(1 << L)[::-1]   # P reverses the basis index
    for c in (count, min(largest + 1, 1 << L)):
        n = min(c, 1 << L)
        spect = cs.eig_low(op, count=c, method="dense")
        vals = spect.eigenvalues
        np.testing.assert_allclose(vals, energies[:n], rtol=0, atol=1e-12)
        width = engine.CLUSTER_RTOL * max(1.0, abs(energies[0]))
        assert spect.ground_degeneracy == min(
            n, np.sum(energies <= energies[0] + width))
        vecs = np.column_stack([psi.amps for psi in spect.states])
        assert np.linalg.norm(m @ vecs - vecs * vals, axis=0).max() \
            <= 1e-9 * scale
        for cluster in engine._clusters(vals, ATOL):
            if cluster.stop < n or n == len(want) \
                    or energies[n] - vals[-1] > ATOL:
                span = vecs[:, cluster]
                parities = np.linalg.eigvalsh(span.conj().T @ span[flip])
                np.testing.assert_allclose(
                    parities, sorted(p for _, p in want[cluster]), atol=1e-8)
        check_window(projection, [1.0], n, op.norm_bound())


def test_ring_sums_match_the_oracle():
    for_each_size(
        sizes(3, 2, 1), ring_operators, check_ring_sum,
        [(10, cs.perturbed_hamiltonian(LatticeSpec(10, "periodic"), 1.0),
          12),   # the ring at its transition
         (10, cs.perturbed_hamiltonian(LatticeSpec(10, "periodic"), 0.0),
          12),   # H_C: every level massively degenerate
         (6, cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"), 1.0), 6)])


@pytest.mark.parametrize("L", [6, 8, 10])
def test_windows_match_the_full_count_solve(L):
    # the ring's (H_C, H_I) at couplings and counts that make sectors solve
    # again: at lambda = 0 most levels are degenerate across sectors, so
    # the window's top ties levels the first pass returned last
    lat = LatticeSpec(L, "periodic")
    h_c, h_i = cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0)
    projection = engine.project_sectors((h_c, h_i), "TP")
    for lam in (0.0, 1.0, 1.5):
        for count in (1, 3, 4, 6, 10, 12, 16, 30):
            check_window(projection, (1.0, lam), count,
                         h_c.norm_bound() + lam * h_i.norm_bound())


def test_a_sector_the_window_needs_is_solved_again():
    # on the 6-site ring at lambda = 1 with count 6, the first pass takes
    # ceil(4 * 6 / 8) = 3 levels per own sector; the window's top, -2
    # sqrt(2), is the highest of them in (0, +1) and (2, +1), both of which
    # hold more copies of it, so both are solved again at 6 levels, and
    # (4, +1), the twin of (2, +1), takes its second solution, checked on
    # its own block
    h = cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"), 1.0)
    projection = engine.project_sectors([h], "TP")
    blocks = [block for _, _, (block,) in projection.sectors]
    keys = [(k, p) for k, p, _ in projection.sectors]
    own = [i for i, t in enumerate(projection.twins) if t < 0]
    assert len(own) == 8
    solves = []

    def eigh(a, n):
        e, w = SUBSET_EIGH(a, n)
        # a twin's real block equals its source's; the solver sees only
        # sources
        i = next(i for i in own if np.array_equal(blocks[i], a))
        solves.append((keys[i], n, e, w))
        return e, w

    with mock.patch.object(engine, "_subset_eigh", side_effect=eigh), \
            mock.patch.object(engine, "checked_residual",
                              wraps=engine.checked_residual) as residual:
        (vals, _, _, _), = engine.sector_low(projection, [[1.0]], 6,
                                             [h.norm_bound()], atol=ATOL)
    first, again = solves[:len(own)], solves[len(own):]
    assert [n for _, n, _, _ in first] == [min(3, blocks[i].shape[0])
                                           for i in own]
    assert [(key, n) for key, n, _, _ in again] == [((0, 1), 6), ((2, 1), 6)]
    # every sector is checked once in the first pass, then (0, +1), (2, +1)
    # and its twin (4, +1), on the second solve of (2, +1); each check is
    # a stack of the one coupling row
    twin = keys.index((4, 1))
    assert projection.twins[twin] == keys.index((2, 1))
    calls = residual.call_args_list
    assert len(calls) == len(keys) + 3
    assert all(c.args[0].shape[0] == 1 for c in calls)
    _, _, e, w = again[1]
    hv, vecs, levels, _ = calls[-1].args
    np.testing.assert_array_equal(levels[0], e)
    np.testing.assert_array_equal(vecs[0], w.conj())
    np.testing.assert_array_equal(hv[0], blocks[twin] @ vecs[0])
    want = np.linalg.eigvalsh(oracle_sum_matrix(h))
    np.testing.assert_allclose(vals, want[:6], rtol=0, atol=1e-12)
    check_window(projection, [1.0], 6, h.norm_bound())


def test_open_chain_solves_are_the_full_count():
    # where Q_a pairs the eight (r, p, q) sectors (L != 0 mod 3), four own
    # sectors: the first pass is the whole count, and nothing is solved
    # again; a scan solves its first coupling in every own sector, then,
    # the first window holding levels of all four, each sector for every
    # other coupling before the next sector.  Unpaired (9 sites), eight own
    # sectors take ceil(4 * 6 / 8) = 3 levels each
    h = cs.perturbed_hamiltonian(LatticeSpec(10, "open"), 0.3)
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=SUBSET_EIGH) as eigh:
        cs.eig_low(h, count=6)
    assert [(c.args[0].shape[0], c.args[1])
            for c in eigh.call_args_list] == [(d, 6)
                                              for d in (136, 136, 120, 120)]
    h = cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.3)
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=SUBSET_EIGH) as eigh:
        cs.eig_low(h, count=6)
    assert [(c.args[0].shape[0], c.args[1])
            for c in eigh.call_args_list] == [
                (d, 3) for d in (64, 72, 72, 64, 64, 56, 56, 64)]
    grid = [0.5, 1.0, 1.5]
    dims = (36, 36, 28, 28)
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=SUBSET_EIGH) as eigh, \
            mock.patch.object(engine, "_certify",
                              wraps=engine._certify) as certify:
        cs.phase_scan(LatticeSpec(8, "open"), grid)
    calls = [(c.args[0].shape[0], c.args[1]) for c in eigh.call_args_list]
    assert calls == [(d, 12) for d in dims] + [(d, 12) for d in dims
                                               for _ in grid[1:]]
    assert sorted(calls) == sorted((d, 12) for d in dims for _ in grid)
    certify.assert_not_called()


@pytest.mark.parametrize("L", [8, 10])
def test_criterion_8_scans_solve_each_sector_once(L):
    # over criterion 8's grid no sector of the 8- and 10-site rings needs
    # more than the first pass's ceil(4 * 12 / own sectors) levels.  Per
    # coupling each own sector is solved once or certified above the
    # window (engine._certify), and a certified one and its twin hold no
    # level; every pair solved or reused passes its residual check
    lat = LatticeSpec(L, "periodic")
    projection = engine.project_sectors(
        (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0)), "TP")
    twins = projection.twins
    own = [i for i, t in enumerate(twins) if t < 0]
    grid = np.round(np.arange(0.5, 1.5001, 0.05), 10)
    census = sector_census(lambda: cs.phase_scan(lat, grid))
    certified = sum(int(above.sum()) for _, _, above in census.certified)
    assert certified > 0
    assert len(census.solves) + certified == len(own) * grid.size
    assert max(n for _, n in census.solves) <= -(-4 * 12 // len(own))
    assert len(census.merged) == grid.size
    empty = [[e.size == 0 for _, e, _ in solved] for solved in census.merged]
    assert sum(row[i] for row in empty for i in own) == certified
    for row in empty:
        assert all(row[i] == row[j] for i, j in enumerate(twins) if j >= 0)
    assert sum(rows for rows, _ in census.checked) \
        == len(twins) * grid.size - sum(map(sum, empty))


def test_one_row_dense_solves_certify_nothing():
    # eig_low's dense path (spectrum, the numeric audits) solves every own
    # sector of the ring once and certifies none, so that its max_residual
    # covers every block
    h = cs.perturbed_hamiltonian(LatticeSpec(10, "periodic"), 0.7)
    own = engine.project_sectors([h], "TP").twins.count(-1)
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=SUBSET_EIGH) as eigh, \
            mock.patch.object(engine, "_certify",
                              wraps=engine._certify) as certify:
        cs.eig_low(h, count=12, method="dense")
    assert own == 12
    assert eigh.call_count == own
    certify.assert_not_called()


# the ring of test_imaginary_coefficients_solve_every_sector: its blocks
# are complex, so that certificates take ?potrf of complex blocks
def imaginary_ring(L):
    return cs.cluster_hamiltonian(LatticeSpec(L, "periodic")) \
        + OperatorSum.from_terms(L, [
            (0.7, PauliString.from_sites(L, {j: "Y", j % L + 1: "Z"}))
            for j in range(1, L + 1)])


@st.composite
def seeded_rows(draw, L):
    """(H, count, lams, pick): ring_operators' H and count, 2-8 couplings
    lam of the family (H, H_I), and the one own sector to seed with, as an
    index taken modulo the own sectors."""
    op, count = draw(ring_operators(L))
    lams = draw(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8))
    return op, count, lams, draw(st.integers(0, 63))


def summed(blocks, row):
    """H_r of one sector, summed as sector_low sums it."""
    h = np.multiply(row[0], blocks[0], dtype=np.result_type(row, *blocks))
    for c, b in zip(row[1:], blocks[1:]):
        h += c * b
    return h


def test_seeded_rows_are_one_row_solves():
    certified = []

    def check(L, op, count, lams, pick):
        lat = LatticeSpec(L, "periodic")
        ops = [op, cs.ising_perturbation(lat, 1.0)]
        projection = engine.project_sectors(ops, "TP")
        coeffs = np.array([[1.0, lam] for lam in lams])
        coeffs = coeffs[:projection.rows(count)]
        norms = np.abs(coeffs) @ [o.norm_bound() for o in ops]
        twins = projection.twins
        own = [i for i, t in enumerate(twins) if t < 0]
        # a one-row call skips nothing
        alone = sector_census(lambda: [
            engine.sector_low(projection, coeffs[r:r + 1], count,
                              norms[r:r + 1], atol=ATOL)[0]
            for r in range(len(coeffs))])
        assert alone.certified == []
        want = alone.result
        window = set().union(*(engine._window_sectors(twins, states)
                               for _, _, states, _ in want))
        seed_sets = [None, frozenset(own), frozenset([own[pick % len(own)]])]
        seed_sets += [frozenset([i]) for i in own if i not in window][:1]
        for seeds in seed_sets:
            got = sector_census(lambda: engine.sector_low(
                projection, coeffs, count, norms, atol=ATOL, seeds=seeds))
            for (vals, labels, states, _), (v, lb, s, _) in zip(got.result,
                                                               want):
                assert vals.tobytes() == v.tobytes()
                assert labels.tobytes() == lb.tobytes()
                assert [(x.sector, x.column, x.vector.tobytes())
                        for x in states] == [(x.sector, x.column,
                                              x.vector.tobytes()) for x in s]
            for h, _, above in got.certified:
                for block in h[above]:
                    rows = [r for r, row in enumerate(coeffs) for i in own
                            if np.array_equal(summed(
                                projection.sectors[i][2], row), block)]
                    assert rows
                    lowest = np.linalg.eigvalsh(block)[0]
                    for r in rows:
                        vals = want[r][0]
                        top = vals[count - 1] if vals.size >= count \
                            else np.inf
                        assert lowest > top + ATOL
                    certified.append(lowest)

    for_each_size(sizes(3, 3, 1), seeded_rows, check,
                  [(L, imaginary_ring(L), 12, [0.6, 0.9, 1.0, 1.3], 1)
                   for L in (4, 6, 8)])
    assert certified


def scheduled(run):
    """sector_census of `run()` with a spy on the `solve` that each
    engine._sector_counts call receives: census.schedules holds per call
    its twins, the orbit table its rows merge on (_merge_levels) and the
    (i, t, levels) of every solve call in order."""
    schedules = []
    counts, merge = engine._sector_counts, engine._merge_levels

    def counting(solve, twins, *args, **kwargs):
        calls = []
        schedules.append(SimpleNamespace(twins=twins, table=None,
                                         calls=calls))

        def spy(i, t, *rest):
            levels = solve(i, t, *rest)
            calls.append((i, t, levels))
            return levels
        return counts(spy, twins, *args, **kwargs)

    def merging(table, *args):
        schedules[-1].table = table
        return merge(table, *args)

    def spied():
        with mock.patch.object(engine, "_sector_counts", counting), \
                mock.patch.object(engine, "_merge_levels", merging):
            return run()

    census = sector_census(spied)
    census.schedules = schedules
    return census


def check_schedule(census, dense: bool) -> int:
    """Every solve call names an own sector i and the twin t that reuses
    it (-1 for none); the twin's energies are i's, bit for bit, and its
    vectors twin_solution of i's.  On the dense path, the rows of the
    residual checks' stacks are the LAPACK solves plus the twins derived
    from them.  Returns the certified sources that have a twin."""
    derived = certified = 0
    for schedule in census.schedules:
        twins, table = schedule.twins, schedule.table
        reuser = {j: i for i, j in enumerate(twins) if j >= 0}
        for i, t, levels in schedule.calls:
            assert twins[i] == -1
            assert t == reuser.get(i, -1)
            for own, *twin in levels:
                assert len(twin) == (t >= 0)
                for p, e, v in twin:
                    assert e.tobytes() == own[1].tobytes()
                    want = table.twin_solution(t, own[2])
                    assert v.shape == want.shape
                    assert np.ascontiguousarray(v).tobytes() \
                        == np.ascontiguousarray(want).tobytes()
                    if e.size:
                        assert p == table.keys[t][1]
                        derived += 1
                    else:
                        certified += 1
    if dense:
        assert sum(rows for rows, _ in census.checked) \
            == len(census.solves) + derived
    return certified


def test_the_schedule_solves_own_sectors_and_derives_their_twins():
    # a 10-site ring scan of 17 couplings: its first coupling alone, then
    # seeded chunks of 8, whose certificates cover -k pairs
    ring = LatticeSpec(10, "periodic")
    census = scheduled(lambda: cs.phase_scan(
        ring, np.round(np.arange(0.5, 1.3001, 0.05), 10)))
    assert len(census.schedules) == 4
    assert check_schedule(census, dense=True) > 0
    # the 11-site chain at count 4: certified sources whose Q_a twins take
    # the empty solution
    chain = LatticeSpec(11, "open")
    census = scheduled(lambda: cs.phase_scan(
        chain, np.round(np.arange(0.5, 1.5001, 0.05), 10), eig_count=4))
    assert check_schedule(census, dense=True) > 0
    assert all(s.table.swap is not None for s in census.schedules)
    # one-row Lanczos solves: -k twins on the ring, Q_a twins on the chain
    for boundary in ("periodic", "open"):
        h = cs.perturbed_hamiltonian(LatticeSpec(13, boundary), 0.8)
        census = scheduled(lambda: lanczos_row(h, 8))
        [schedule] = census.schedules
        assert any(t >= 0 for _, t, _ in schedule.calls)
        check_schedule(census, dense=False)


# the ring of test_a_wrong_twin_map_raises: Z_i Z_{i+1} X_{i+2} keeps T
# and P and breaks R, so the real family's -k blocks are the conjugates of
# those of k, with no real bases
def unmirrored_ring(L):
    return cs.perturbed_hamiltonian(LatticeSpec(L, "periodic"), 0.7) \
        + OperatorSum.from_terms(L, [
            (0.3, PauliString.from_sites(L, {j: "Z", j % L + 1: "Z",
                                            (j + 1) % L + 1: "X"}))
            for j in range(1, L + 1)])


@pytest.mark.parametrize("h", [
    unmirrored_ring(8),
    cs.perturbed_hamiltonian(LatticeSpec(10, "open"), 0.7)],
    ids=["ring-conjugate", "chain-Q_a"])
def test_a_wrong_twin_map_raises(h):
    # each twin's pairs are checked on its own blocks, so a twin that takes
    # its source's vectors unmapped fails its residual check
    projection = engine.project_sectors([h], engine._symmetry_group(h))
    assert any(t >= 0 for t in projection.twins)
    assert not projection.bases
    with mock.patch.object(engine._SectorTable, "twin_solution",
                           lambda self, i, w: w):
        with pytest.raises(cs.ConvergenceError):
            cs.eig_low(h, method="dense")

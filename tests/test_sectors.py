"""Symmetry-sector exact diagonalization: the translation x spin-flip,
reflection x spin-flip and spin-flip bases, the once-per-lattice projection
with its invariance guard, the per-sector solve against the full dense
spectrum, and eig_low's dense path, per sector or on the full space, against
the Kronecker oracle."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine
from clusterspt.errors import ConvergenceError

from conftest import (basis_matrix, for_each_size, free_fermion,
                      kron_from_letters, lanczos_row, oracle_matrix,
                      oracle_sum_matrix, random_hermitian_sum, sector_census)


def sizes(low, n, n_top):
    """for_each_size's cases per site count: n from `low` to 9 sites, and
    n_top at 10, whose Kronecker oracle costs about ten times the 9-site
    one."""
    return {**dict.fromkeys(range(low, 10), n), 10: n_top}


def translation_matrix(L):
    """One-site translation (site i to i+1) as a permutation matrix, built
    from binary strings with site 1 first."""
    dim = 1 << L
    t = np.zeros((dim, dim))
    for b in range(dim):
        s = format(b, f"0{L}b")
        t[int(s[-1] + s[:-1], 2), b] = 1.0
    return t


def reflection_matrix(L):
    """The reflection R (site i to L+1-i) as a permutation matrix, built
    from binary strings with site 1 first."""
    dim = 1 << L
    r = np.zeros((dim, dim))
    for b in range(dim):
        r[int(format(b, f"0{L}b")[::-1], 2), b] = 1.0
    return r


# each boundary's orbit-table groups: a ring's translation x spin flip, and
# on an open chain the reflection x spin flip and the spin flip alone
GROUPS = {"periodic": ("TP",), "open": ("RP", "P")}
ORDER = {"TP": lambda L: L, "RP": lambda L: 2, "P": lambda L: 1}


def reference_sectors(L, group, q=None):
    """{(k, p): V} for every nonempty sector of `group`, in ascending k then
    p = +1, -1, built from binary strings: the columns of V are the
    normalized orbit sums sum_{j,s} e^{-2 pi i k j / n} p^s G^j P^s |r> over
    the orbits' smallest indices r in ascending order, P the complement of
    every bit and G of order n the translation T of translation_matrix
    ("TP", n = L), the reflection R of reflection_matrix ("RP", n = 2), or
    none ("P", n = 1, k = 0).  A real character (2k = 0 mod n) gives a
    real V.  With a real Pauli string q that commutes with G and P, the
    sectors are (k, p, q') with q' = +1, -1 last, and the sums run over
    G^j P^s Q^t too, with the factor q'^t, Q's matrix the Kronecker
    oracle's (oracle_matrix)."""
    dim = 1 << L
    order = ORDER[group](L)
    flips = [(0, 1.0)]
    if q is not None:
        qm = oracle_matrix(q)
        flips.append((q.x_mask, None))
    orbits = {}
    for b in range(dim):
        images = []   # (j, s, t, sign, G^j P^s Q^t b)
        for t, (x, _) in enumerate(flips):
            bits = format(b ^ x, f"0{L}b")
            sign = 1.0 if not t else qm[b ^ x, b].real
            for j in range(order):
                if group == "RP":
                    g = bits[::-1] if j else bits
                else:
                    g = bits[L - j:] + bits[:L - j]
                flip = "".join("1" if c == "0" else "0" for c in g)
                images += [(j, 0, t, sign, int(g, 2)),
                           (j, 1, t, sign, int(flip, 2))]
        orbits.setdefault(min(img[-1] for img in images), images)
    sectors = {}
    for k in range(order):
        for p in (1, -1):
            for qv in (None,) if q is None else (1, -1):
                cols = []
                for _, images in sorted(orbits.items()):
                    u = np.zeros(dim, dtype=complex)
                    for j, s, t, sign, img in images:
                        u[img] += (np.exp(-2j * np.pi * k * j / order)
                                   * p ** s * (qv or 1) ** t * sign)
                    norm = np.linalg.norm(u)
                    if norm > 1e-9:
                        cols.append(u / norm)
                if cols:
                    v = np.column_stack(cols)
                    if 2 * k % order == 0:
                        assert np.abs(v.imag).max() <= 1e-15
                        v = v.real
                    sectors[(k, p) if qv is None else (k, p, qv)] = v
    return sectors


SECTOR_CASES = pytest.mark.parametrize(
    "L,boundary", [(3, "periodic"), (4, "periodic"), (6, "periodic"),
                   (8, "periodic"), (3, "open"), (5, "open"), (8, "open")])


@SECTOR_CASES
def test_concatenated_sector_bases_are_unitary(L, boundary):
    lat = LatticeSpec(L, boundary)
    parity = cs.dense_matrix(cs.spin_flip_symmetries(lat)[0])
    moves = {"TP": translation_matrix(L), "RP": reflection_matrix(L)}
    for group in GROUPS[boundary]:
        sectors = reference_sectors(L, group)
        v = np.hstack(list(sectors.values()))
        assert v.shape == (1 << L, 1 << L)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(1 << L),
                                   atol=1e-13)
        order = ORDER[group](L)
        for (k, p), basis in sectors.items():
            np.testing.assert_allclose(parity @ basis, p * basis, atol=1e-13)
            if group in moves:
                np.testing.assert_allclose(
                    moves[group] @ basis,
                    np.exp(2j * np.pi * k / order) * basis, atol=1e-13)
            else:
                assert k == 0


@SECTOR_CASES
def test_row_forms_match_the_reference_bases(L, boundary):
    # the amplitudes of a sector level w = e_c, stacked over c, are the
    # sector's basis V, and V U in a ring's real bases
    for group in GROUPS[boundary]:
        table = engine._sector_table(L, group)
        sectors = reference_sectors(L, group)
        assert list(table.keys) == list(sectors)
        bases = engine._real_bases(table) if group == "TP" else {}
        for i, ((k, p), want) in enumerate(sectors.items()):
            unit = np.eye(want.shape[1])
            basis = np.column_stack([engine._SectorState(
                table, i, c, unit[:, c]).amps for c in range(unit.shape[1])])
            np.testing.assert_allclose(basis, want, rtol=0, atol=1e-14)
            if i in bases:
                mixed = np.column_stack([engine._SectorState(
                    table, i, c, unit[:, c], bases[i]).amps
                    for c in range(unit.shape[1])])
                np.testing.assert_allclose(
                    mixed, want @ basis_matrix(bases[i]), rtol=0, atol=1e-14)
            # a real character (k = 0 or L/2 on a ring, every sector of R x
            # P or P alone) keeps the blocks, and so their solves, real
            assert bool(basis.imag.any()) == (2 * k % table.order != 0)


def test_projection_guard_rejects_a_symmetry_breaking_operator():
    lat = LatticeSpec(6, "periodic")
    field = OperatorSum.from_pauli(PauliString.single(6, 3, "Z"), 0.1)
    with pytest.raises(ConvergenceError, match="not invariant"):
        engine.project_sectors((cs.cluster_hamiltonian(lat) + field,), "TP")


def test_residual_message_states_the_applied_bound():
    vecs = np.eye(2)
    hv = vecs * np.array([1.0, 2.0])
    hv[0, 0] += 2e-9
    with pytest.raises(ConvergenceError, match=r"max\(1, \|\|H\|\|\) = 1\.000e-09"):
        engine.checked_residual(hv, vecs, np.array([1.0, 2.0]), 0.5)


def test_sector_solve_matches_dense():
    for_each_size(
        sizes(4, 4, 2), lambda L: st.tuples(
            st.sampled_from(["open", "periodic"]), st.floats(0.0, 1.5)),
        check_sector_solve,
        [(10, "periodic", 1.0),   # the ring at its transition
         (9, "open", 0.0),        # a fourfold ground cluster split by parity
         (4, "open", 1e-12)])     # a coupling perturbed_hamiltonian drops


def check_sector_solve(L, boundary, lam):
    lat = LatticeSpec(L, boundary)
    h_c = cs.cluster_hamiltonian(lat)
    h_i = cs.ising_perturbation(lat, 1.0)
    h = cs.perturbed_hamiltonian(lat, lam)
    count, atol = 12, 1e-8
    projected = engine.project_sectors(
        (h_c, h_i), "TP" if lat.is_periodic else "RP")
    (vals, labels, states, _), = engine.sector_low(
        projected, [(1.0, lam)], count, [h.norm_bound()], atol=atol)

    # the reference is the full space, since eig_low solves h per sector;
    # it is H_C + lam H_I itself, whose coupling h drops at or below the
    # coefficient tolerance (1e-12) but the blocks keep; it is real, and
    # its real matrix halves the cost of the solve
    full = oracle_sum_matrix(h_c) + lam * oracle_sum_matrix(h_i)
    assert not full.imag.any()
    full_vals, full_vecs = np.linalg.eigh(full.real)
    width = engine.CLUSTER_RTOL * max(1.0, abs(full_vals[0]))
    dense = cs.SpectrumResult(
        eigenvalues=full_vals[:count],
        states=tuple(cs.StateVector(L, v) for v in full_vecs[:, :count].T),
        ground_degeneracy=int(np.sum(full_vals <= full_vals[0] + width)),
        gap=np.nan, max_residual=0.0, method="dense")
    parity = cs.spin_flip_symmetries(lat)[0]
    want, _ = cs.resolve_sectors(dense, parity, atol=atol)
    np.testing.assert_allclose(vals, dense.eigenvalues, rtol=0, atol=1e-12)
    width = engine.CLUSTER_RTOL * max(1.0, abs(vals[0]))
    assert np.sum(vals <= vals[0] + width) == dense.ground_degeneracy
    # clusters the window holds whole carry exact labels on both paths
    inside = vals < vals[-1] - atol
    np.testing.assert_allclose(labels[inside], want[inside], atol=1e-8)
    for e, p, psi in zip(vals, labels, states):
        assert np.linalg.norm(cs.apply(h, psi).amps - e * psi.amps) <= 1e-9
        assert np.linalg.norm(cs.apply(parity, psi).amps - p * psi.amps) \
            <= 1e-9


@pytest.mark.parametrize("L,solves,sectors", [(10, 12, 20), (12, 14, 24)])
def test_ring_scan_reuses_each_twin_decided_once(L, solves, sectors):
    # a real ring H: per coupling a first solve for k = 0, L/2 and each
    # pair k, -k, of ceil(4 * 12 / solves) levels, the -k twin read off
    # the one orbit table of the scan; after the first coupling, a sector
    # that held no level of the last window is solved only where its
    # Cholesky certificate (engine._certify) fails, and a certified one
    # and its twin hold no level.  Every sector, reused or solved, passes
    # its own residual check, one stack of the chunk's couplings per
    # sector and stage.  A sector the window needs all 12 levels of is
    # solved again, where it would be had every sector's first pass been
    # solved, and its twin, if any, checked again
    grid = [0.8, 0.9, 1.0, 1.1, 1.2]
    lat = LatticeSpec(L, "periodic")
    with mock.patch.object(engine, "_sector_table",
                           wraps=engine._sector_table) as tables:
        census = sector_census(lambda: cs.phase_scan(lat, grid))
    scan = census.result
    first = -(-4 * 12 // solves)
    levels = [n for _, n in census.solves]
    again = sum(n > first for n in levels)
    # the (sector, coupling) pairs each check covers
    checked = sum(rows for rows, _ in census.checked)
    checked_again = sum(rows for rows, n in census.checked if n > first)
    certified = sum(int(above.sum()) for _, _, above in census.certified)
    empty = sum(e.size == 0 for solved in census.merged for _, e, _ in solved)
    assert tables.call_count == 1
    assert len(levels) + certified == solves * len(grid) + again
    assert checked == sectors * len(grid) - empty + checked_again
    assert again <= checked_again <= 2 * again
    projection = engine.project_sectors(
        (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0)), "TP")
    own = [i for i, t in enumerate(projection.twins) if t < 0]
    for lam, solved in zip(grid, census.merged):
        full = [np.linalg.eigvalsh(blocks[0] + lam * blocks[1])
                for _, _, blocks in projection.sectors]
        found = np.sort(np.concatenate([e[:first] for e in full]))
        top = found[11]
        assert [i for i in own if solved[i][1].size > first] \
            == [i for i in own if full[i].size > first
                and full[i][first - 1] <= top + 1e-8]
    for i, lam in enumerate(grid):
        assert scan.energy[i] == pytest.approx(
            free_fermion.spectrum(L, True, lam, 1)[0][0], abs=1e-12)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_imaginary_coefficients_solve_every_sector(L):
    # sum_j 0.7 Y_j Z_{j+1} is invariant under T and P and Hermitian, with
    # an imaginary matrix (Y = i X Z), so its blocks at k and -k are not
    # conjugate: no solution is reused, and each sector is solved directly
    lat = LatticeSpec(L, "periodic")
    h = cs.cluster_hamiltonian(lat) + OperatorSum.from_terms(
        L, [(0.7, PauliString.from_sites(L, {j: "Y", j % L + 1: "Z"}))
            for j in range(1, L + 1)])
    assert not engine.has_real_matrix(h) and engine._symmetry_group(h) == "TP"
    projected = engine.project_sectors([h], "TP")
    assert projected.twins == (-1,) * len(projected.sectors)
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=engine._subset_eigh) as eigh:
        spect = cs.eig_low(h, count=12, method="dense")
    assert eigh.call_count == len(projected.sectors)
    want = np.linalg.eigvalsh(oracle_sum_matrix(h))
    np.testing.assert_allclose(spect.eigenvalues, want[:12], rtol=0,
                               atol=1e-12)


def test_merge_keeps_the_sorted_reference_order(rng):
    # energies on an integer grid tie across sectors and columns; with
    # atol 0.5 each cluster is one energy.  The reference is Python's
    # stable sort of the levels by energy, cut to the window, then by
    # parity inside each energy; each kept state is V w, written out here
    # as V's rows, column col[b] and value val[b] at b.  At 14 sites a
    # complex state is 256 KiB, where numpy forms a product with its
    # gathered column in place
    count = 10
    for table in (engine._sector_table(6, "TP"),
                  engine._sector_table(14, "TP")):
        for _ in range(5):
            solved = []
            for i, (_, p) in enumerate(table.keys):
                d = int(np.count_nonzero(table.cols[i] >= 0))
                n = min(3, d)
                w = (rng.standard_normal((d, n))
                     + 1j * rng.standard_normal((d, n)))
                solved.append((p, np.sort(rng.integers(0, 4, n)).astype(float),
                               w))
            vals, labels, states = engine._merge_levels(table, solved, count,
                                                        0.5)
            levels = sorted(((e[c], p, i, c)
                             for i, (p, e, _) in enumerate(solved)
                             for c in range(e.size)), key=lambda lv: lv[0])
            kept = sorted(levels[:count], key=lambda lv: lv[:2])
            np.testing.assert_array_equal(vals, [lv[0] for lv in kept])
            np.testing.assert_array_equal(labels, [lv[1] for lv in kept])
            for (_, _, i, c), psi in zip(kept, states):
                col = table.cols[i][table.orbit]
                val = np.where(col >= 0, table.chars[i][table.elem]
                               / np.sqrt(table.size[table.orbit]), 0)
                np.testing.assert_array_equal(psi.amps,
                                              val * solved[i][2][col, c])


@pytest.fixture(scope="module")
def ring_12_window():
    return cs.phase_scan(LatticeSpec(12, "periodic"), [0.0, 0.05])


@pytest.mark.xfail(strict=True, reason="the 12-level window cuts the "
                   "multiplet that holds the sector gap (ROADMAP item 3)")
def test_ring_12_sector_gap_is_the_free_fermion_gap(ring_12_window):
    # the oracle gives 4.0 and 3.8612; the scan reports nan at both
    for i, lam in enumerate(ring_12_window.grid):
        levels = free_fermion.spectrum(12, True, lam)
        e0, p0 = levels[0]
        want = next(e for e, p in levels[1:] if p == p0) - e0
        assert ring_12_window.gap_sector[i] == pytest.approx(want, abs=1e-10)


@pytest.mark.xfail(strict=True, reason="the 12-level window cuts the "
                   "first excited multiplet (ROADMAP item 3)")
def test_ring_12_excited_multiplet_is_whole(ring_12_window):
    # at lambda = 0 the oracle's first excited multiplet has 12 levels,
    # and the window keeps 11 of them
    energies = [e for e, _ in free_fermion.spectrum(12, True, 0.0)]
    assert ring_12_window.exc_multiplicity[0] == free_fermion.multiplet(
        energies, 1, 1e-8)


def rotated(mask, L):
    """A mask moved one site along the ring (site i to i+1), through its
    binary string with site 1 first."""
    s = format(mask, f"0{L}b")
    return int(s[-1] + s[:-1], 2)


@st.composite
def invariant_operators(draw, L, boundary=None):
    """(boundary, M): M a random sum of Pauli strings of even z weight on
    L sites, so the spin flip conserves it, summed over all translates on
    a ring; coefficients real or complex.  The boundary is drawn unless
    given."""
    boundary = boundary or draw(st.sampled_from(["open", "periodic"]))
    complex_coeffs = draw(st.booleans())
    op = OperatorSum.zero(L)
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.integers(0, (1 << L) - 1))
        z = draw(st.integers(0, (1 << L) - 1))
        if bin(z).count("1") % 2:
            z ^= 1
        coeff = draw(st.floats(-2.0, 2.0))
        if complex_coeffs:
            coeff += 1j * draw(st.floats(-2.0, 2.0))
        for _ in range(L if boundary == "periodic" else 1):
            op = op + OperatorSum.from_pauli(PauliString(L, 0, x, z), coeff)
            x, z = rotated(x, L), rotated(z, L)
    return boundary, op


def test_direct_blocks_match_the_sparse_projection():
    for_each_size(
        sizes(3, 4, 1), invariant_operators, check_direct_blocks,
        [(6, "periodic", cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"),
                                                  0.7)),
         (7, "periodic", cs.perturbed_hamiltonian(LatticeSpec(7, "periodic"),
                                                  1.3)),
         (3, "periodic", OperatorSum.zero(3))])   # terms that cancel


def check_direct_blocks(L, boundary, op):
    # a ring sector with a complex character keeps its block in a real
    # basis U exactly when the operator is real and R conserves it, so the
    # orbit-basis block is U B U^H and the projection's basis V U
    scale = max(1.0, op.norm_bound())
    m = cs.operator_matrix(op)
    real = engine.has_real_matrix(op)
    group = "TP" if boundary == "periodic" else "P"
    projection = engine.project_sectors((op,), group)
    projected = projection.sectors
    sectors = reference_sectors(L, group)
    assert [(k, p) for k, p, _ in projected] == list(sectors)
    mirror = [reflected(b, L) for b in range(1 << L)]
    dense = m.toarray()
    mirrored = boundary == "periodic" and real and np.abs(
        dense[np.ix_(mirror, mirror)] - dense).max() <= 1e-12 * scale
    for i, (k, p, (block,)) in enumerate(projected):
        # the projection on the reference basis: two matrix products
        v = sectors[(k, p)]
        u = np.eye(v.shape[1])
        if i in projection.bases:
            u = basis_matrix(projection.bases[i])
        old = v.conj().T @ (m @ v)
        assert np.abs(u @ block @ u.conj().T - old).max(initial=0.0) \
            <= 1e-13 * scale
        leak = np.linalg.norm(m @ (v @ u) - (v @ u) @ block)
        assert leak <= 1e-12 * scale
        want = np.float64 if real and (2 * k % L == 0 or mirrored) \
            else np.complex128
        assert block.dtype == want
        assert (i in projection.bases) == (mirrored and 2 * k % L != 0)


@st.composite
def dense_cases(draw, L):
    """(H, count): H a nonzero Hermitian sum on L sites invariant under the
    translation and the spin flip, or under the spin flip alone
    (invariant_operators made Hermitian), or a random sum that as a rule
    has neither symmetry; count the levels to ask for."""
    boundary = draw(st.sampled_from(["periodic", "open", None]))
    if boundary is None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        op = random_hermitian_sum(rng, L)
    else:
        _, op = draw(invariant_operators(L, boundary))
        op = op + op.adjoint()
        assume(not op.is_zero)
    return op, draw(st.integers(1, 16))


def test_dense_path_matches_the_oracle():
    for_each_size(
        sizes(3, 2, 1), dense_cases, check_dense_path,
        [(8, cs.perturbed_hamiltonian(LatticeSpec(8, "periodic"), 1.0), 12),
         (9, cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.3), 8)])


def check_dense_path(L, op, count):
    m = oracle_sum_matrix(op)
    scale = max(1.0, op.norm_bound())

    def conserves(g):
        """Whether the permutation matrix g commutes with m."""
        image = g.argmax(axis=0)
        return np.linalg.norm(m[np.ix_(image, image)] - m) <= 1e-9 * scale

    flip = conserves(kron_from_letters("X" * L).real)
    ring = flip and conserves(translation_matrix(L))
    mirror = flip and conserves(reflection_matrix(L))
    with mock.patch.object(engine, "project_sectors",
                           wraps=engine.project_sectors) as spy:
        spect = cs.eig_low(op, count=count, method="dense")
    # the sector path runs exactly for the invariant sums, on the ring's
    # sectors when the translation conserves them too, else on the
    # reflection's when it does
    assert spy.call_count == flip
    if flip:
        assert spy.call_args.args[1] == ("TP" if ring else
                                         "RP" if mirror else "P")

    want = np.linalg.eigvalsh(m)
    n = min(count, 1 << L)
    np.testing.assert_allclose(spect.eigenvalues, want[:n], rtol=0,
                               atol=1e-12)
    width = engine.CLUSTER_RTOL * max(1.0, abs(want[0]))
    deg = spect.ground_degeneracy
    assert deg == min(n, np.sum(want <= want[0] + width))
    vecs = np.column_stack([psi.amps for psi in spect.states])
    residuals = np.linalg.norm(m @ vecs - vecs * spect.eigenvalues, axis=0)
    assert residuals.max() <= 1e-9 * scale
    ground = vecs[:, :deg]
    np.testing.assert_allclose(ground.conj().T @ ground, np.eye(deg),
                               atol=1e-12)


def test_dense_solve_builds_the_orbit_table_once():
    h = cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.3)
    with mock.patch.object(engine, "_sector_table",
                           wraps=engine._sector_table) as spy:
        cs.eig_low(h, count=6, method="dense")
    assert spy.call_count == 1


def test_projection_guard_rejects_a_broken_bond():
    lat = LatticeSpec(8, "periodic")
    bond = OperatorSum.from_pauli(PauliString.from_sites(8, {1: "Y", 2: "Y"}),
                                  1e-9)
    with pytest.raises(ConvergenceError, match="not invariant"):
        engine.project_sectors((cs.cluster_hamiltonian(lat),
                                cs.ising_perturbation(lat, 1.0) + bond), "TP")


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_projection_guard_rejects_a_flip_odd_field(boundary):
    lat = LatticeSpec(7, boundary)
    field = OperatorSum.from_terms(
        7, [(1.0, PauliString.single(7, i, "Z")) for i in range(1, 8)])
    with pytest.raises(ConvergenceError, match="not invariant"):
        engine.project_sectors((field,),
                               "TP" if lat.is_periodic else "RP")


def test_projection_guard_rejects_a_broken_basis(monkeypatch):
    build = engine._sector_table
    lat = LatticeSpec(6, "periodic")
    # one entry each: the last sector's character of P, the group element
    # and the orbit of |000001> (a free orbit), the first orbit's size
    for field, index, change in [("chars", (-1, 1), lambda v: v * (1 + 1e-9)),
                                 ("elem", 1, lambda v: (v + 2) % 12),
                                 ("orbit", 1, lambda v: v + 1),
                                 ("size", 0, lambda v: v + 1)]:
        def tampered(length, group, *integrals):
            table = build(length, group, *integrals)
            values = getattr(table, field).copy()
            values[index] = change(values[index])
            return dataclasses.replace(table, **{field: values})

        monkeypatch.setattr(engine, "_sector_table", tampered)
        with pytest.raises(ConvergenceError, match="orthonormal eigenbasis"):
            engine.project_sectors((cs.cluster_hamiltonian(lat),), "TP")


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_orbit_table_check_accepts_every_size(boundary):
    # the characters pass the check from 13 sites up only when their
    # phases are reduced mod 2 pi
    for L in range(3, 17):
        for group in GROUPS[boundary]:
            engine._check_table(engine._sector_table(L, group))


def test_dense_budget_covers_the_chain_solve():
    # the eight (r, p, q) blocks of about 512 states of the 12-site chain,
    # then the summed block of one and the copy eigh makes of it
    h = cs.cluster_hamiltonian(LatticeSpec(12, "open"))
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            cs.eig_low(h, count=6, method="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= spy.call_args.args[0]


@pytest.mark.parametrize("solve", ["scan", "eig_low"])
def test_dense_budget_covers_the_ring_solve(solve):
    # the 24 sector blocks of the 12-site ring, most of them complex: for a
    # two-point scan of both operators, and for H_C alone
    lat = LatticeSpec(12, "periodic")
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            if solve == "scan":
                cs.phase_scan(lat, [0.9, 1.0])
            else:
                cs.eig_low(cs.cluster_hamiltonian(lat), count=6,
                           method="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


@pytest.mark.parametrize("L,grid,calls", [
    (12, [0.9, 1.0, 1.1], 3),                         # one coupling a call
    (10, np.round(np.arange(0.5, 1.45, 0.05), 10), 3)])   # 8 a call
def test_dense_budget_covers_a_multi_chunk_ring_scan(L, grid, calls):
    # a scan whose couplings take several sector_low calls, each chunk's
    # summed blocks and solutions within the one charge
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy, \
            mock.patch.object(engine, "sector_low",
                              wraps=engine.sector_low) as solve:
        tracemalloc.start()
        try:
            cs.phase_scan(LatticeSpec(L, "periodic"), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert solve.call_count == calls
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


SCAN_FIELDS = ("energy", "gap", "gap_sector", "string_order",
               "yy_correlator", "parity_expectation", "gs_parity",
               "exc_multiplicity")


@pytest.mark.parametrize("boundary,grid", [
    ("periodic", np.round(np.arange(0.5, 1.55, 0.1), 10)),
    ("open", np.round(np.arange(0.0, 1.55, 0.15), 10))])
def test_chunked_scans_are_one_point_scans(monkeypatch, boundary, grid):
    # the chunk budget cut to about three couplings, so that an 8-site
    # scan spans three sector_low calls or more: every array it reports
    # is, bit for bit, that of one-point scans, and its crossings are
    # those of the scan in one chunk
    lat = LatticeSpec(8, boundary)
    probes = {"X1": "X1"}
    whole = cs.phase_scan(lat, grid, probes=probes)
    projected = engine.project_sectors(
        (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0)),
        "TP" if lat.is_periodic else "RP")
    assert projected.rows(12) >= grid.size
    monkeypatch.setattr(engine, "_CHUNK_BYTES",
                        engine._CHUNK_BYTES * 3 // projected.rows(12))
    rows = projected.rows(12)
    assert rows >= 2
    with mock.patch.object(engine, "sector_low",
                           wraps=engine.sector_low) as solve:
        chunked = cs.phase_scan(lat, grid, probes=probes)
    assert solve.call_count == -(-grid.size // rows) >= 3
    for i, lam in enumerate(grid):
        point = cs.phase_scan(lat, [lam], probes=probes)
        for name in SCAN_FIELDS:
            assert getattr(chunked, name)[i:i + 1].tobytes() \
                == getattr(point, name).tobytes(), name
        assert chunked.extras["X1"][i:i + 1].tobytes() \
            == point.extras["X1"].tobytes()
        assert chunked.exc_parities[i] == point.exc_parities[0]
    for name in SCAN_FIELDS:
        assert getattr(chunked, name).tobytes() \
            == getattr(whole, name).tobytes(), name
    assert chunked.crossings == whole.crossings


def test_scan_points_expand_only_their_ground_state(monkeypatch):
    # merged levels stay in sector form: a scan reads each point's ground
    # state alone, so no other level is expanded to 2^L amplitudes
    merged = []
    merge = engine._merge_levels

    def recording(*args):
        out = merge(*args)
        merged.append(out[2])
        return out

    monkeypatch.setattr(engine, "_merge_levels", recording)
    grid = [0.6, 0.9, 1.2]
    for lat in (LatticeSpec(8, "periodic"), LatticeSpec(7, "open")):
        merged.clear()
        cs.phase_scan(lat, grid)
        assert len(merged) == len(grid)
        for states in merged:
            assert states[0]._amps is not None
            assert all(psi._amps is None for psi in states[1:])


@pytest.mark.parametrize("L,method", [(8, "dense"), (13, "iterative")])
def test_scans_build_no_operator_matrix(L, method):
    # a scan solves in sectors and reads its string order, YY and probes
    # with engine.expectations on each chunk's ground states: no 2^L CSR
    # matrix is built on either path
    with mock.patch.object(engine, "operator_matrix",
                           wraps=engine.operator_matrix) as spy:
        scan = cs.phase_scan(LatticeSpec(L, "periodic"), [0.9, 1.0],
                             probes={"X1": "X1"}, method=method)
    assert spy.call_count == 0
    assert np.all(np.isfinite(scan.extras["X1"]))


def test_dense_budget_covers_the_odd_ring_scan():
    # an odd ring: every sector but k = 0 has a complex character, so every
    # block of both operators but those is scattered in its real basis
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            cs.phase_scan(LatticeSpec(11, "periodic"), [0.9, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


def test_dense_budget_covers_the_chain_scan():
    # the eight (r, p, q) blocks of both operators of the 12-site chain,
    # then each coupling's sum of them and the copy eigh makes of it
    with mock.patch.object(engine, "_check_memory",
                           wraps=engine._check_memory) as spy:
        tracemalloc.start()
        try:
            cs.phase_scan(LatticeSpec(12, "open"), [0.0, 0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert spy.call_count == 1
    assert peak <= spy.call_args.args[0]


def reflected(mask, L):
    """A mask mirrored along the chain (site i to L+1-i), through its
    binary string with site 1 first."""
    return int(format(mask, f"0{L}b")[::-1], 2)


@st.composite
def mirror_operators(draw, L):
    """A random Hermitian sum of Pauli strings of even z weight on
    L sites, each with its mirror image, so that the reflection R and the
    spin flip P conserve it, on the open chain's H_C + lam H_I or not;
    coefficients real or complex."""
    complex_coeffs = draw(st.booleans())
    op = OperatorSum.zero(L)
    if draw(st.booleans()):
        op = cs.perturbed_hamiltonian(LatticeSpec(L, "open"),
                                      draw(st.floats(0.0, 1.5)))
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.integers(0, (1 << L) - 1))
        z = draw(st.integers(0, (1 << L) - 1))
        if bin(z).count("1") % 2:
            z ^= 1
        coeff = draw(st.floats(-2.0, 2.0))
        if complex_coeffs:
            coeff += 1j * draw(st.floats(-2.0, 2.0))
        for xm, zm in ((x, z), (reflected(x, L), reflected(z, L))):
            op = op + OperatorSum.from_pauli(PauliString(L, 0, xm, zm), coeff)
    op = op + op.adjoint()
    assume(not op.is_zero)
    return op


# the open chain's Hamiltonian, with its edge quartet at lambda = 0, and
# a ring's, which the reflection conserves too
NINE_SITES = (9, cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.3))
EDGE_QUARTET = (10, cs.perturbed_hamiltonian(LatticeSpec(10, "open"), 0.0))
RING = (6, cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"), 0.7))


def test_reflection_blocks_match_the_oracle():
    for_each_size(sizes(3, 3, 1), lambda L: st.tuples(mirror_operators(L)),
                  check_reflection_blocks,
                  [NINE_SITES, EDGE_QUARTET, RING])


def check_reflection_blocks(L, op):
    # each (r, p) block of the projection, or (r, p, q) block where the
    # operator's commutant holds a Pauli integral Q (engine._integrals), is
    # V^H M V on the reference basis of binary strings, M the Kronecker
    # oracle, with no leak
    m = oracle_sum_matrix(op)
    scale = max(1.0, op.norm_bound())
    assert engine._symmetry_group(op, ("RP", "P")) == "RP"
    projected = engine.project_sectors((op,), "RP")
    q, _ = engine._integrals([op], "RP")
    sectors = reference_sectors(L, "RP", q)
    assert list(projected.table.keys) == list(sectors)
    real = engine.has_real_matrix(op)
    for key, (_, _, (block,)) in zip(projected.table.keys,
                                      projected.sectors):
        v = sectors[key]
        assert np.abs(block - v.conj().T @ m @ v).max() <= 1e-13 * scale
        assert np.linalg.norm(m @ v - v @ block) <= 1e-12 * scale
        assert block.dtype == (np.float64 if real else np.complex128)


def test_reflection_solves_match_the_full_space():
    for_each_size(
        sizes(3, 3, 1), lambda L: st.tuples(mirror_operators(L),
                                            st.integers(1, 12)),
        check_reflection_solves,
        [(*NINE_SITES, 6), (*EDGE_QUARTET, 8), (*RING, 12)])


def check_reflection_solves(L, op, count):
    # eig_low takes the (r, p) or (r, p, q) blocks; dense, it gives the
    # full space's lowest levels and ground multiplicity exactly, and so
    # does Lanczos unless a level of the window is degenerate inside one
    # block, where each level it returns is still a true level
    m = oracle_sum_matrix(op)
    want = np.linalg.eigvalsh(m)
    inside = [np.linalg.eigvalsh(v.conj().T @ m @ v)
              for v in reference_sectors(L, "RP").values()]
    n = min(count, 1 << L)
    width = engine.CLUSTER_RTOL * max(1.0, abs(want[0]))
    deg = min(n, int(np.sum(want <= want[0] + width)))
    # each solve builds its own sectors: hypothesis may replay an
    # operator, and an iterative solve of more than 2^L - 2 levels is
    # dense, either of which would take a kept projection.  The iterative
    # solve is held on the sector path: an operator whose terms decouple
    # would take its Clifford frame (_decoupled), which builds no sectors
    with mock.patch.object(engine, "_sector_table",
                           wraps=engine._sector_table) as spy, \
            mock.patch.object(engine, "_decoupled", return_value=None):
        engine._KEPT.clear()
        dense = cs.eig_low(op, count=count, method="dense")
        engine._KEPT.clear()
        iterative = cs.eig_low(op, count=count, method="iterative")
    # a ring's (k, p) blocks go first on both paths, for the ring's
    # Hamiltonian and any sum the translation happens to conserve too
    group = "TP" if engine._implied_leak(op, "TP") <= 1e-12 * max(
        1.0, op.norm_bound()) else "RP"
    assert [c.args[:2] for c in spy.call_args_list] == [(L, group)] * 2
    np.testing.assert_allclose(dense.eigenvalues, want[:n], rtol=0,
                               atol=1e-12)
    assert dense.ground_degeneracy == deg
    degenerate = any(np.sum(np.abs(e - w) <= 1e-8) > 1
                     for w in inside for e in want[:n])
    if degenerate:
        assert np.abs(iterative.eigenvalues[:, None] - want).min(axis=1) \
            .max() <= 1e-12
    else:
        np.testing.assert_allclose(iterative.eigenvalues, want[:n], rtol=0,
                                   atol=1e-12)
        assert iterative.ground_degeneracy == deg


@pytest.mark.parametrize("L", range(3, 11))
def test_palindromes_survive_only_in_their_sectors(L):
    # a palindrome (R b = b) has an orbit sum only where r = +1, and an
    # anti-palindrome (R b = P b, even L only) only where r p = +1; every
    # other orbit has four states and a sum in every sector
    table = engine._sector_table(L, "RP")
    b = np.arange(1 << L)
    mirror = np.array([reflected(int(v), L) for v in b])
    flip = b ^ ((1 << L) - 1)
    assert (mirror == flip).any() == (L % 2 == 0)
    for i, (k, p) in enumerate(table.keys):
        r = (-1) ** k
        alive = table.cols[i][table.orbit] >= 0
        assert (alive[mirror == b] == (r == 1)).all()
        assert (alive[mirror == flip] == (r * p == 1)).all()
        assert alive[(mirror != b) & (mirror != flip)].all()


@pytest.mark.parametrize("field", ["chars", "elem"])
def test_orbit_table_check_rejects_a_wrong_reflection(field):
    # the character of R in sector (1, +1) flipped to +1, or the group
    # element of the first state mapped by R to its orbit's smallest index
    # with R dropped
    table = engine._sector_table(8, "RP")
    values = getattr(table, field).copy()
    if field == "chars":
        i = table.keys.index((1, 1))
        values[i, 2:] = -values[i, 2:]
    else:
        b = int(np.flatnonzero(values >= 2)[0])
        values[b] ^= 2
    with pytest.raises(ConvergenceError, match="orthonormal eigenbasis"):
        engine._check_table(dataclasses.replace(table, **{field: values}))


def test_groups_are_read_off_the_coefficients():
    # translation first, then the reflection, then the spin flip alone,
    # dense and by Lanczos alike: a ring solves on (k, p) blocks, a chain
    # on (r, p, q) blocks, and a chain with a field on site 2, which P
    # conserves and R does not, on the parity blocks
    # (the Lanczos path as family_low's one-row call: eig_low's iterative
    # solve of the chain takes its decoupled frame)
    chain = cs.perturbed_hamiltonian(LatticeSpec(8, "open"), 0.4)
    field = OperatorSum.from_pauli(PauliString.single(8, 2, "X"), 0.3)
    cases = [(cs.perturbed_hamiltonian(LatticeSpec(8, "periodic"), 0.4),
              "TP"), (chain, "RP"), (chain + field, "P")]
    for h, group in cases:
        assert engine._symmetry_group(h) == group
        want = np.linalg.eigvalsh(oracle_sum_matrix(h))[:6]
        for solve in (lambda: cs.eig_low(h, count=6,
                                         method="dense").eigenvalues,
                      lambda: lanczos_row(h, 6)[0]):
            with mock.patch.object(engine, "_sector_table",
                                   wraps=engine._sector_table) as spy:
                vals = solve()
            assert spy.call_args.args[:2] == (8, group)
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12)

"""Numerical backend: matrix-free application, eigensolvers, cluster-state
construction, sector resolution, and projector analysis."""

import math
import time
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import clusterspt as cs
from clusterspt import (LatticeSpec, OperatorSum, PauliString, StateVector,
                        engine)
from clusterspt.errors import ConvergenceError, DomainError, ResourceLimitError

from conftest import (lanczos_row, oracle_sum_matrix, random_hermitian_sum,
                      random_pauli)


class TestStateVector:
    def test_computational(self):
        psi = StateVector.computational(3, 5)
        assert psi.amps[5] == 1.0 and psi.norm == pytest.approx(1.0)

    def test_plus_state(self):
        psi = StateVector.plus_state(4)
        assert np.allclose(psi.amps, 0.25)

    def test_normalization(self):
        psi = StateVector(2, np.array([3.0, 0, 0, 4.0]), normalize=True)
        assert psi.norm == pytest.approx(1.0)
        assert psi.amps[3] == pytest.approx(0.8)

    def test_inner(self):
        a = StateVector.computational(2, 0)
        b = StateVector.computational(2, 1)
        assert a.inner(b) == 0
        assert a.inner(a) == pytest.approx(1.0)

    def test_amps_read_only(self):
        psi = StateVector.plus_state(3)
        with pytest.raises(ValueError):
            psi.amps[0] = 9.0


class TestApply:
    def test_single_pauli_against_oracle(self, rng):
        for _ in range(80):
            L = int(rng.integers(1, 7))
            p = random_pauli(rng, L)
            vec = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
            psi = StateVector(L, vec)
            got = cs.apply(p, psi).amps
            want = oracle_sum_matrix(OperatorSum.from_pauli(p)) @ vec
            assert np.allclose(got, want, atol=1e-12)

    def test_sum_against_oracle(self, rng):
        for _ in range(30):
            op = random_hermitian_sum(rng, 5)
            vec = rng.normal(size=32) + 1j * rng.normal(size=32)
            psi = StateVector(5, vec)
            got = cs.apply(op, psi).amps
            assert np.allclose(got, oracle_sum_matrix(op) @ vec, atol=1e-10)

    def test_expectation(self, rng):
        op = random_hermitian_sum(rng, 4)
        vec = rng.normal(size=16)
        psi = StateVector(4, vec, normalize=True)
        v = psi.amps
        want = v.conj() @ (oracle_sum_matrix(op) @ v)
        assert cs.expectation(psi, op) == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(cs.LengthMismatchError):
            cs.apply(PauliString.identity(3), StateVector.plus_state(4))


class TestDenseMatrices:
    def test_pauli_matrix_oracle(self, rng):
        for _ in range(40):
            p = random_pauli(rng, 4)
            assert np.allclose(
                cs.dense_matrix(p),
                oracle_sum_matrix(OperatorSum.from_pauli(p)), atol=1e-12)

    def test_dense_matrix_cap(self):
        with pytest.raises(ResourceLimitError):
            cs.dense_matrix(OperatorSum.identity(13))

    def test_real_matrix_detection(self):
        lat = LatticeSpec(6, "open")
        assert cs.has_real_matrix(cs.cluster_hamiltonian(lat))
        # a YY pair is real, a lone Y is imaginary
        yy = OperatorSum.from_pauli(PauliString.from_sites(4, {1: "Y", 2: "Y"}))
        assert cs.has_real_matrix(yy)
        y = OperatorSum.from_pauli(PauliString.single(4, 2, "Y"))
        assert not cs.has_real_matrix(y)
        assert cs.has_real_matrix(
            cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"), 0.8))

    def test_cz_diagonal_two_sites(self):
        d = cs.cz_diagonal(cs.CzCircuit(2, ((1, 2),)))
        assert np.array_equal(d, [1.0, 1.0, 1.0, -1.0])


class TestClusterStates:
    def test_open_states_orthonormal_eigenstates(self):
        lat = LatticeSpec(6, "open")
        states = [cs.build_cluster_state(lat, k, l)
                  for k in (0, 1) for l in (0, 1)]
        g = cs.gram_matrix(states)
        assert np.max(np.abs(g - np.eye(4))) <= 1e-12
        for i in range(2, 6):
            s = cs.stabilizer(i, lat)
            for st in states:
                assert cs.expectation(st, s) == pytest.approx(1.0, abs=1e-12)

    def test_edge_labels(self):
        # flipping with Z_1 / Z_L toggles the edge graph-state generators
        # X_1 Z_2 and Z_{L-1} X_L, which label the four ground states
        lat = LatticeSpec(6, "open")
        left = PauliString.from_sites(6, {1: "X", 2: "Z"})
        right = PauliString.from_sites(6, {5: "Z", 6: "X"})
        for k in (0, 1):
            for l in (0, 1):
                st = cs.build_cluster_state(lat, k, l)
                assert cs.expectation(st, left) == \
                    pytest.approx((-1.0) ** k, abs=1e-12)
                assert cs.expectation(st, right) == \
                    pytest.approx((-1.0) ** l, abs=1e-12)

    def test_periodic_single_state(self):
        lat = LatticeSpec(6, "periodic")
        st = cs.build_cluster_state(lat)
        for i in range(1, 7):
            assert cs.expectation(st, cs.stabilizer(i, lat)) == \
                pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            cs.build_cluster_state(lat, 1, 0)

    def test_ground_energy(self):
        lat = LatticeSpec(7, "open")
        h = cs.cluster_hamiltonian(lat)
        st = cs.build_cluster_state(lat, 1, 1)
        assert cs.expectation(st, h) == pytest.approx(-5.0, abs=1e-12)


class TestEigLow:
    def test_dense_open_cluster(self):
        lat = LatticeSpec(8, "open")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=6)
        assert spect.ground_energy == pytest.approx(-6.0, abs=1e-10)
        assert spect.ground_degeneracy == 4
        assert spect.gap == pytest.approx(2.0, abs=1e-10)
        assert spect.max_residual <= 1e-9 * 6.0

    def test_dense_periodic_cluster(self):
        lat = LatticeSpec(8, "periodic")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=4)
        assert spect.ground_energy == pytest.approx(-8.0, abs=1e-10)
        assert spect.ground_degeneracy == 1
        assert spect.gap == pytest.approx(2.0, abs=1e-10)

    def test_iterative_agrees_with_dense(self):
        # fourfold ground space plus gap: the shape this solver must handle
        lat = LatticeSpec(7, "open")
        h = cs.perturbed_hamiltonian(lat, 0.3)
        d = cs.eig_low(h, count=6, method="dense")
        it = cs.eig_low(h, count=6, method="iterative")
        assert np.allclose(d.eigenvalues, it.eigenvalues, atol=1e-8)
        assert d.ground_degeneracy == it.ground_degeneracy

    def test_iterative_beyond_dense_cap(self):
        lat = LatticeSpec(13, "periodic")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=4,
                          method="iterative")
        assert spect.ground_energy == pytest.approx(-13.0, abs=1e-8)
        assert spect.ground_degeneracy == 1
        assert spect.gap == pytest.approx(2.0, abs=1e-8)

    def test_lanczos_retries_a_failed_residual_once(self, monkeypatch):
        # with 40 Krylov vectors ARPACK calls a pair of this full-space solve
        # converged at a residual of 2.5e-8, above the 1.06e-8 bound; 80 do
        h = cs.perturbed_hamiltonian(LatticeSpec(12, "open"), 0.05)
        monkeypatch.setattr(engine, "_symmetry_group", lambda op: None)
        with mock.patch.object(engine, "_lanczos",
                               wraps=engine._lanczos) as solves, \
                mock.patch.object(engine, "_check_memory",
                                  wraps=engine._check_memory) as charges:
            spect = cs.eig_low(h, count=2, method="iterative")
        assert [c.args[2] for c in solves.call_args_list] == [40, 80]
        # the retry's 40 extra vectors of 4096 floats are charged on top
        first, retry = (c.args[0] for c in charges.call_args_list)
        assert retry - first == 40 * 4096 * 8
        assert spect.max_residual <= engine.RESIDUAL_RTOL * h.norm_bound()
        monkeypatch.undo()
        want = cs.eig_low(h, count=2, method="dense").eigenvalues
        np.testing.assert_allclose(spect.eigenvalues, want, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("L,widths", [(8, [28, 36]), (6, [20]),
                                          (5, [6]), (7, [20])])
    def test_lanczos_retry_is_made_once(self, L, widths, monkeypatch):
        # every solve of the sector blocks misses its bound: one retry with
        # twice the vectors, capped at the first block's 36, 20, 6 or 20
        # states (the first own (r, p, q) block where Q_a pairs the
        # sectors, L = 5, 7, 8; the first (r, p) block at 6 sites), and
        # none when the first solve already spans the block.  Blocks this
        # small take a dense eigh, unless the dense cap is 0
        solve = engine._lanczos

        def shifted(m, count, ncv):
            vals, vecs = solve(m, count, ncv)
            return vals + 1e-6, vecs

        monkeypatch.setattr(engine, "DENSE_BLOCK_STATES", 0)
        h = cs.perturbed_hamiltonian(LatticeSpec(L, "open"), 0.3)
        with mock.patch.object(engine, "_lanczos", wraps=shifted) as spy, \
                pytest.raises(ConvergenceError, match="residual"):
            lanczos_row(h, 4)
        assert [c.args[2] for c in spy.call_args_list] == widths

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("d", [1, 16, 52, 170])
    def test_subset_solver_is_scipys_subset_eigh(self, rng, dtype, d):
        # the dense solves call LAPACK's driver directly, with workspace
        # sizes cached per (dtype, d): bit for bit scipy's subset eigh
        a = rng.standard_normal((d, d)).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal((d, d))
        a += a.conj().T
        for n in sorted({1, d}):
            for _ in range(2):   # the query, then the cached sizes
                e, w = engine._subset_eigh(a, n)
                want_e, want_w = scipy.linalg.eigh(
                    a, subset_by_index=[0, n - 1])
                np.testing.assert_array_equal(e, want_e)
                np.testing.assert_array_equal(w, want_w)

    def test_stacked_residuals_are_each_rows(self, rng):
        # a stack of pairs, one per coupling row: each row's largest
        # residual, the value one row's check gives, against its own bound
        h = rng.standard_normal((3, 20, 20))
        h += h.transpose(0, 2, 1)
        pairs = [engine._subset_eigh(m, 4) for m in h]
        vals = np.array([e for e, _ in pairs])
        vecs = np.array([w for _, w in pairs])
        vals[1] += [0, 0, 1e-7, 0]   # residual 1e-7 in row 1 alone
        norms = [1.0, 1e3, 1.0]
        worst = engine.checked_residual(h @ vecs, vecs, vals, norms)
        assert worst.shape == (3,)
        for m, v, e, norm, got in zip(h, vecs, vals, norms, worst):
            assert got == engine.checked_residual(m @ v, v, e, norm)
        assert 1e-7 <= worst[1] <= 1.1e-7
        with pytest.raises(ConvergenceError, match="residual 1.0"):
            engine.checked_residual(h @ vecs, vecs, vals, [1e3, 1.0, 1e3])

    def test_eigenvalues_against_oracle(self, rng):
        op = random_hermitian_sum(rng, 5)
        want = np.linalg.eigvalsh(oracle_sum_matrix(op))[:4]
        got = cs.eig_low(op, count=4).eigenvalues[:4]
        assert np.allclose(got, want, atol=1e-10)

    def test_residual_contract(self, rng):
        op = random_hermitian_sum(rng, 6)
        spect = cs.eig_low(op, count=4)
        bound = op.norm_bound()
        for e, st in zip(spect.eigenvalues[:4], spect.states[:4]):
            r = cs.apply(op, st).amps - e * st.amps
            assert np.linalg.norm(r) <= 1e-9 * bound

    def test_rejects_non_hermitian(self):
        op = OperatorSum.from_pauli(PauliString.from_letters("XZ"), 1j)
        with pytest.raises(DomainError):
            cs.eig_low(op, count=2)

    def test_resource_caps(self):
        with pytest.raises(ResourceLimitError):
            cs.eig_low(OperatorSum.identity(25), count=2)
        with pytest.raises(ResourceLimitError):
            cs.eig_low(OperatorSum.identity(20), count=2, method="dense")

    def test_gap_nan_when_cluster_fills_window(self):
        lat = LatticeSpec(4, "open")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=4)
        assert spect.ground_degeneracy == 4
        assert math.isnan(spect.gap)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    @pytest.mark.parametrize("count", [4, 6])
    def test_a_pair_at_the_cluster_width_is_counted_whole(self, method,
                                                          count):
        # at lambda = 1e-8 the 4-site chain's lowest levels are -2.00000001
        # and -1.99999999, each twice: the upper pair sits at the cluster
        # width CLUSTER_RTOL * |E0|, where rounding alone once counted one
        # copy of it and not the other
        h = cs.perturbed_hamiltonian(LatticeSpec(4, "open"), 1e-8)
        spect = cs.eig_low(h, count=count, method=method)
        np.testing.assert_allclose(
            spect.eigenvalues[:4], [-2.00000001] * 2 + [-1.99999999] * 2,
            rtol=0, atol=1e-12)
        assert spect.ground_degeneracy in (2, 4)

    @pytest.mark.parametrize("solver", ["dense", "iterative", "lanczos",
                                        "full dense", "full lanczos"])
    def test_every_returned_level_is_orthonormal(self, solver, monkeypatch):
        # levels are returned as the solver gives them, fourfold ground
        # clusters included: sector levels (dense blocks, or ARPACK on every
        # block under "lanczos") and full-space ones, the latter from H_C
        # with a Z field on site 1, which P does not conserve, or from H_C
        # alone with no symmetry group read off it
        method = "dense" if solver.endswith("dense") else "iterative"
        if solver == "lanczos":
            monkeypatch.setattr(engine, "DENSE_BLOCK_STATES", 0)
        worst = 0.0
        for L in (4, 7, 10):
            for boundary in ("open", "periodic"):
                lat = LatticeSpec(L, boundary)
                if solver.startswith("full"):
                    h_c = cs.cluster_hamiltonian(lat)
                    z1 = OperatorSum.from_pauli(PauliString.single(L, 1, "Z"))
                    hs = [h_c + z1 * 1e-9, h_c + z1 * 0.3,
                          cs.perturbed_hamiltonian(lat, 0.3) + z1 * 0.2]
                else:
                    hs = [cs.perturbed_hamiltonian(lat, lam)
                          for lam in (0.0, 1e-9, 0.3, 1.0)]
                for h in hs:
                    spect = cs.eig_low(h, count=8, method=method)
                    g = cs.gram_matrix(spect.states)
                    worst = max(worst, np.abs(g - np.eye(len(g))).max())
            if solver.startswith("full"):
                with mock.patch.object(engine, "_symmetry_group",
                                       return_value=None):
                    spect = cs.eig_low(cs.cluster_hamiltonian(
                        LatticeSpec(L, "open")), count=8, method=method)
                assert spect.ground_degeneracy == 4
                g = cs.gram_matrix(spect.states)
                worst = max(worst, np.abs(g - np.eye(len(g))).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_sector_levels_stay_in_sector_form(self, method):
        # eig_low forms no 2^L amplitude: every level is expanded only when
        # a caller reads it
        for boundary in ("periodic", "open"):
            h = cs.cluster_hamiltonian(LatticeSpec(10, boundary))
            spect = cs.eig_low(h, count=8, method=method)
            assert all(psi._amps is None for psi in spect.states)
            assert spect.ground_degeneracy == (4 if boundary == "open" else 1)

    @pytest.mark.parametrize("L,boundary,method,kind", [
        (18, "open", "iterative", engine._FrameState),
        (12, "periodic", "dense", engine._SectorState),
        (12, "open", "iterative", engine._FrameState)])
    def test_printing_a_result_forms_no_level(self, L, boundary, method,
                                              kind):
        # an unformed level prints as its class and L; forming the eight
        # 18-site frame levels would take seconds
        spect = cs.eig_low(cs.perturbed_hamiltonian(
            LatticeSpec(L, boundary), 0.5), count=8, method=method)
        start = time.perf_counter()
        text = repr(spect)
        assert time.perf_counter() - start < 1.0
        assert all(type(psi) is kind and psi._amps is None
                   for psi in spect.states)
        assert f"{kind.__name__}(L={L}, not formed)" in text
        if L > 12:
            return
        # the first read forms one level, read-only, which then prints its
        # norm; a second read returns the same array
        psi = spect.states[0]
        amps = psi.amps
        assert not amps.flags.writeable and psi.amps is amps
        assert repr(psi) == f"StateVector(L={L}, norm={psi.norm:.6f})"
        assert all(other._amps is None for other in spect.states[1:])

    def test_results_compare_by_identity(self):
        # equal inputs give distinct records, and == reads no array
        h = cs.perturbed_hamiltonian(LatticeSpec(6), 0.5)
        lat = LatticeSpec(6, "periodic")
        for make in (lambda: cs.eig_low(h, count=4),
                     lambda: cs.phase_scan(lat, [0.5, 1.0])):
            a, b = make(), make()
            assert a == a and a != b and not a == b


class TestProjectorsAndSectors:
    def test_bulk_single_projects_to_zero(self):
        lat = LatticeSpec(9, "open")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=6)
        for name in ("X5", "Y4", "Z6"):
            op = OperatorSum.from_pauli(PauliString.from_compact(name, 9))
            m = cs.ground_projector(spect, op)
            assert np.linalg.norm(m) <= 1e-10, name

    def test_edge_z_projector_eigenvalues(self):
        lat = LatticeSpec(9, "open")
        spect = cs.eig_low(cs.cluster_hamiltonian(lat), count=6)
        m = cs.ground_projector(
            spect, OperatorSum.from_pauli(PauliString.single(9, 1, "Z")))
        eigs = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(eigs, [-1.0, -1.0, 1.0, 1.0], atol=1e-9)

    def test_splitting_class(self):
        assert cs.splitting_class(np.zeros((4, 4))) == "zero"
        assert cs.splitting_class(2.5 * np.eye(4)) == "scalar"
        assert cs.splitting_class(np.diag([1.0, -1.0, 1.0, -1.0])) == \
            "non-scalar"

    def test_resolve_sectors_within_degenerate_cluster(self):
        lat = LatticeSpec(6, "open")
        h = cs.cluster_hamiltonian(lat)
        spect = cs.eig_low(h, count=6)
        parity, _ = cs.spin_flip_symmetries(lat)
        labels, states = cs.resolve_sectors(spect, parity)
        # the fourfold ground cluster is complete, so its labels are +-1 and
        # the rotated states are simultaneous eigenvectors
        assert np.allclose(np.abs(labels[:4]), 1.0, atol=1e-9)
        for i in range(4):
            r = cs.apply(parity, states[i]).amps - labels[i] * states[i].amps
            assert np.linalg.norm(r) <= 1e-8
            rh = cs.apply(h, states[i]).amps \
                - spect.eigenvalues[i] * states[i].amps
            assert np.linalg.norm(rh) <= 1e-8

    def test_truncated_cluster_labels_flagged_by_magnitude(self):
        # the window cuts the excited multiplet; its slice is not parity
        # invariant and the labels betray that by leaving +-1.  eig_low
        # solves this Hamiltonian per parity sector, whose states carry
        # exact parities, so the mixed window comes from a full-space eigh
        lat = LatticeSpec(6, "open")
        vals, vecs = scipy.linalg.eigh(
            cs.dense_matrix(cs.cluster_hamiltonian(lat)),
            subset_by_index=[0, 5])
        spect = cs.SpectrumResult(
            eigenvalues=vals, states=tuple(StateVector(6, v) for v in vecs.T),
            ground_degeneracy=4, gap=2.0, max_residual=0.0, method="dense")
        parity, _ = cs.spin_flip_symmetries(lat)
        labels, _ = cs.resolve_sectors(spect, parity)
        assert not np.allclose(np.abs(labels[4:]), 1.0, atol=1e-3)

    def test_subspace_distance_basics(self):
        e = [StateVector.computational(3, 0), StateVector.computational(3, 1)]
        f = [StateVector.computational(3, 2), StateVector.computational(3, 3)]
        assert cs.subspace_distance(e, e) <= 1e-14
        assert cs.subspace_distance(e, f) == pytest.approx(1.0)

    def test_subspace_distance_small_angle(self):
        th = 1e-6
        v1 = np.zeros((8, 1)); v1[0, 0] = 1.0
        v2 = np.zeros((8, 1))
        v2[0, 0] = math.cos(th); v2[1, 0] = math.sin(th)
        assert cs.subspace_distance(v1, v2) == pytest.approx(math.sin(th),
                                                             rel=1e-6)

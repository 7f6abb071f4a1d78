"""Verification suites, string order, the coupling scan, and the transition
estimator.

Frozen numerical expectations and where they come from:
* sector-tracked gap values follow the two-quasiparticle energy
  4*sqrt(1 + lam^2 - 2*lam*cos(k*)) with k* = pi/L (k* = pi/4 when L is a
  multiple of 6), checked against dense diagonalization at build time;
* the interior-minimum estimates approach cos(pi/L), hence 1 with growing L;
* twelve sites show an exact fourfold level collision of the first
  excitation at coupling 1.0, which the estimator must prefer.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import clusterspt as cs
from clusterspt import (LatticeSpec, OperatorSum, PauliString, ScanResult,
                        engine)
from clusterspt.analysis import _detect_crossings
from clusterspt.errors import DomainError

from conftest import kron_from_letters


class TestStabilizerSuite:
    def test_open_and_periodic_pass(self):
        for L, boundary in ((6, "open"), (9, "open"), (6, "periodic"),
                            (8, "periodic")):
            rep = cs.verify_stabilizer_algebra(LatticeSpec(L, boundary))
            assert rep.passed, (L, boundary, rep.failures())

    def test_symbolic_only_at_large_size(self):
        rep = cs.verify_stabilizer_algebra(LatticeSpec(15, "open"),
                                           numeric=False)
        assert rep.passed
        assert [e.name for e in rep.entries] == ["pairwise-commutation"]

    def test_entries_have_details(self):
        rep = cs.verify_stabilizer_algebra(LatticeSpec(6, "open"))
        assert all(e.detail for e in rep.entries)


class TestStringOrder:
    def test_equals_one_on_cluster_state(self):
        lat = LatticeSpec(9, "open")
        st = cs.build_cluster_state(lat, 0, 0)
        for a, b in ((2, 2), (2, 4), (2, 8), (3, 7)):
            assert cs.string_order(st, a, b, lat) == \
                pytest.approx(1.0, abs=1e-12), (a, b)

    def test_operator_is_telescoped_stabilizer_product(self):
        # Z_{a-1} X_a X_{a+2} ... X_b Z_{b+1} equals the product of
        # alternating stabilizers S_a S_{a+2} ... S_b, symbolically
        lat = LatticeSpec(9, "open")
        op = cs.string_order_operator(lat, 2, 8)
        prod = PauliString.identity(9)
        for i in (2, 4, 6, 8):
            prod = prod * cs.stabilizer(i, lat)
        assert op.allclose(OperatorSum.from_pauli(prod))

    def test_vanishes_on_product_states(self):
        lat = LatticeSpec(8, "open")
        zero = cs.StateVector.computational(8, 0)
        plus = cs.StateVector.plus_state(8)
        assert cs.string_order(zero, 2, 6, lat) == pytest.approx(0.0, abs=1e-12)
        assert cs.string_order(plus, 2, 6, lat) == pytest.approx(0.0, abs=1e-12)

    def test_domain_checks(self):
        lat = LatticeSpec(9, "open")
        st = cs.build_cluster_state(lat)
        with pytest.raises(DomainError):
            cs.string_order(st, 1, 5, lat)       # touches the edge
        with pytest.raises(DomainError):
            cs.string_order(st, 2, 9, lat)
        with pytest.raises(DomainError):
            cs.string_order(st, 2, 5, lat)       # odd separation

    def test_longest_sites(self):
        assert cs.longest_string_sites(9) == (2, 8)
        assert cs.longest_string_sites(12) == (2, 10)
        assert cs.longest_string_sites(8) == (2, 6)


class TestProtectionSuite:
    def test_global_protected_at_nine(self):
        rep = cs.certify_protection(LatticeSpec(9, "open"))
        assert rep.verdict == "protected"
        assert all(rep.algebra.values())
        assert rep.per_s_bulk == {1: True, 2: True}
        assert rep.sigma_all_excluded and rep.bulk_all_excluded
        assert rep.symmetric_probes_harmless
        assert [c["name"] for c in rep.cross_checks
                if not c["matches"]] == ["B2"]

    @pytest.mark.parametrize("length", [4, 9, 13])
    def test_probes_are_their_named_strings(self, length):
        # the probes are built from masks; each must equal the product of
        # the single-site letters its name lists
        probes = cs.analysis.default_probe_set(LatticeSpec(length))
        for name, op in probes.items():
            p = PauliString.identity(length)
            for letter, site in re.findall(r"([XYZ])(\d+)", name):
                p = p * PauliString.single(length, int(site), letter)
            assert op == OperatorSum.from_pauli(p), name

    def test_probe_census(self):
        rep = cs.certify_protection(LatticeSpec(9, "open"))
        singles = [p for p in rep.probes if len(p.name) <= 2]
        forbidden = [p for p in rep.probes if p.is_forbidden]
        assert len(rep.probes) == 27 + 54 + 15
        assert len(singles) == 27 and len(forbidden) == 15

    def test_splitting_dichotomy(self):
        rep = cs.certify_protection(LatticeSpec(9, "open"))
        by = {p.name: p for p in rep.probes}
        assert by["X5"].splitting == "zero"
        assert by["Z1"].splitting == "non-scalar" and by["Z1"].excluded
        for p in rep.probes:
            if not p.excluded and p.splitting is not None:
                assert p.splitting in ("zero", "scalar"), p.name

    def test_symbolic_only_at_fifteen(self):
        rep = cs.certify_protection(LatticeSpec(15, "open"), numeric=False)
        assert rep.verdict == "protected"
        assert not rep.numeric_splitting
        assert rep.per_s_bulk == {1: True, 2: True}

    def test_tamper_b2_fails(self):
        rep = cs.certify_protection(LatticeSpec(9, "open"), tamper="B2",
                                    numeric=False)
        assert rep.verdict == "not protected"
        failed = sorted(k for k, v in rep.algebra.items() if not v)
        assert failed == ["a2_b2_anticommute", "t1_t2_commute",
                          "t2_commutes_h", "t2_squares_to_identity"]

    def test_tamper_sign_flip_halves_still_pass(self):
        # the first three printed halves reconstruct up to sign, and a sign
        # flip leaves every algebra identity intact
        for t in ("A1", "B1", "A2"):
            rep = cs.certify_protection(LatticeSpec(9, "open"), tamper=t,
                                        numeric=False)
            assert all(rep.algebra.values()), t

    def test_local_suite(self):
        for L in (4, 6, 9):
            rep = cs.certify_protection(LatticeSpec(L, "open"),
                                        local_only=True)
            assert rep.mode == "local"
            assert rep.verdict == "protected", L
            assert all(rep.algebra.values())

    def test_local_rejects_tamper_and_tiny_chains(self):
        with pytest.raises(DomainError):
            cs.certify_protection(LatticeSpec(9, "open"), local_only=True,
                                  tamper="B2")
        with pytest.raises(DomainError):
            cs.certify_protection(LatticeSpec(3, "open"), local_only=True)

    def test_global_needs_admissible_length(self):
        with pytest.raises(DomainError):
            cs.certify_protection(LatticeSpec(12, "open"))

    def test_subsampling_is_seeded(self):
        r1 = cs.certify_protection(LatticeSpec(9, "open"), numeric=False,
                                   rng=np.random.default_rng(7), max_probes=20)
        r2 = cs.certify_protection(LatticeSpec(9, "open"), numeric=False,
                                   rng=np.random.default_rng(7), max_probes=20)
        assert [p.name for p in r1.probes] == [p.name for p in r2.probes]
        # forbidden products always stay in
        assert sum(p.is_forbidden for p in r1.probes) == 15


class TestPhaseScan:
    def test_unperturbed_point(self):
        # window wide enough to hold the full two-flip multiplet, so the
        # tracked gap resolves to its known value of 4
        scan = cs.phase_scan(LatticeSpec(6, "periodic"), [0.0], eig_count=24)
        assert scan.gap[0] == pytest.approx(2.0, abs=1e-9)
        assert scan.gap_sector[0] == pytest.approx(4.0, abs=1e-9)
        assert scan.string_order[0] == pytest.approx(1.0, abs=1e-10)
        assert scan.yy_correlator[0] == pytest.approx(0.0, abs=1e-10)
        assert scan.parity_expectation[0] == pytest.approx(1.0, abs=1e-9)
        assert scan.parity_commutes and scan.time_reversal_real

    def test_truncated_window_gives_nan_sector(self):
        scan = cs.phase_scan(LatticeSpec(6, "periodic"), [0.0], eig_count=12)
        assert math.isnan(scan.gap_sector[0])

    def test_sector_gap_matches_quasiparticle_pair_energy(self):
        # 4*sqrt(1 + lam^2 - 2 lam cos k*), k* = pi/L, or pi/4 when 6 | L.
        # Twelve sites put the matching excitation inside a fifteenfold
        # multiplet, so the window must be wide enough to contain it whole.
        for L, kstar, count in ((8, math.pi / 8, 12), (10, math.pi / 10, 12),
                                (12, math.pi / 4, 24)):
            scan = cs.phase_scan(LatticeSpec(L, "periodic"), [0.9],
                                 eig_count=count)
            want = 4.0 * math.sqrt(1 + 0.81 - 1.8 * math.cos(kstar))
            assert scan.gap_sector[0] == pytest.approx(want, abs=1e-9), L

    def test_observables_across_window(self):
        grid = np.round(np.arange(0.8, 1.2001, 0.05), 10)
        scan = cs.phase_scan(LatticeSpec(8, "periodic"), grid)
        assert np.all(np.diff(scan.string_order) < 0)
        assert np.all(scan.gap >= 0)
        assert np.all(scan.gs_parity == 1.0)
        assert scan.parity_commutes and scan.time_reversal_real
        assert scan.crossings == ()
        rows = scan.rows()
        assert len(rows) == grid.size
        assert rows[0]["lam"] == pytest.approx(0.8)

    def test_extra_probes_recorded(self):
        # a single X flips a neighbouring three-site generator, so its
        # ground expectation vanishes; the generator itself gives one
        scan = cs.phase_scan(LatticeSpec(6, "periodic"), [0.0],
                             probes={"mid_x": "X3", "gen": "Z2X3Z4"})
        assert scan.extras["mid_x"][0] == pytest.approx(0.0, abs=1e-9)
        assert scan.extras["gen"][0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("L,boundary", [(4, "open"), (8, "periodic"),
                                            (13, "periodic")])
    def test_tiny_coupling_counts_as_zero(self, L, boundary):
        # a coupling at or below the coefficient tolerance is dropped by the
        # operator sum, on the sector path (4, 8) and the full path (13)
        lat = LatticeSpec(L, boundary)
        zero = cs.phase_scan(lat, [0.0])
        tiny = cs.phase_scan(lat, [1e-12])
        for field in ("energy", "gap", "gap_sector", "gs_parity",
                      "parity_expectation", "exc_multiplicity"):
            np.testing.assert_array_equal(getattr(tiny, field),
                                          getattr(zero, field), field)
        assert tiny.exc_parities == zero.exc_parities
        assert tiny.parity_commutes and tiny.time_reversal_real
        assert tiny.grid[0] == 1e-12

    @pytest.mark.parametrize("L,boundary,method", [
        (8, "periodic", "auto"), (7, "open", "auto"),
        (10, "periodic", "iterative")])
    def test_parity_is_the_ground_state_expectation(self, monkeypatch, L,
                                                    boundary, method):
        # the scan reads the parity off the solve's label; the reference is
        # <gs|X...X|gs> of the solved ground state on the Kronecker oracle
        grounds = []

        def record(solve, at):
            def recording(*args, **kwargs):
                out = solve(*args, **kwargs)
                grounds.append(out[at][0])
                return out
            return recording

        monkeypatch.setattr(engine, "sector_low", record(engine.sector_low, 2))
        monkeypatch.setattr(engine, "sector_lanczos",
                            record(engine.sector_lanczos, 2))
        scan = cs.phase_scan(LatticeSpec(L, boundary), [0.3, 0.9, 1.2],
                             method=method)
        assert len(grounds) == 3
        flip = kron_from_letters("X" * L)
        want = [np.vdot(gs.amps, flip @ gs.amps).real for gs in grounds]
        np.testing.assert_allclose(scan.parity_expectation, want, rtol=0,
                                   atol=1e-12)

    def test_iterative_scan_matches_the_sector_path(self):
        lat = LatticeSpec(10, "periodic")
        grid = [0.3, 0.6, 0.8, 0.9, 1.0, 1.2]
        sector = cs.phase_scan(lat, grid)
        full = cs.phase_scan(lat, grid, method="iterative")
        np.testing.assert_allclose(full.energy, sector.energy, rtol=0,
                                   atol=1e-10)
        np.testing.assert_array_equal(full.gs_parity, sector.gs_parity)
        np.testing.assert_array_equal(full.exc_multiplicity,
                                      sector.exc_multiplicity)
        assert full.exc_parities == sector.exc_parities

    def test_grid_validation(self):
        lat = LatticeSpec(6, "periodic")
        with pytest.raises(DomainError):
            cs.phase_scan(lat, [])
        with pytest.raises(DomainError):
            cs.phase_scan(lat, [0.2, 0.1])
        with pytest.raises(DomainError):
            cs.phase_scan(lat, [0.1, float("inf")])


class TestCrossingDetection:
    def test_collision_at_grid_point(self):
        g = np.array([0.8, 0.85, 0.9, 0.95, 1.0])
        out = _detect_crossings(
            g, np.array([3, 3, 4, 1, 1]),
            [(-1, -1, -1)] * 2 + [(-1, -1, -1, -1)] + [(-1,)] * 2)
        assert out == [{"lam": 0.9, "kind": "collision", "multiplicity": 4}]

    def test_interval_crossing(self):
        g = np.array([0.8, 0.85, 0.9, 0.95, 1.0])
        out = _detect_crossings(g, np.array([1, 1, 3, 3, 3]),
                                [(-1,)] * 2 + [(-1, -1, -1)] * 3)
        assert len(out) == 1
        assert out[0]["kind"] == "interval"
        assert out[0]["lam"] == pytest.approx(0.875)

    def test_quiet_scan_has_no_crossings(self):
        g = np.array([0.8, 0.85, 0.9])
        assert _detect_crossings(g, np.array([1, 1, 1]), [(-1,)] * 3) == []


class TestTransitionEstimate:
    def test_parabola_recovered_exactly(self):
        grid = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        gap = (grid - 1.0) ** 2 + 0.3
        est = cs.transition_estimate(ScanResult.from_gap_series(grid, gap))
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert est.method == "interior-minimum" and not est.boundary

    def test_monotone_series_flags_boundary(self):
        grid = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        est = cs.transition_estimate(
            ScanResult.from_gap_series(grid, 2.0 - grid))
        assert est.boundary and est.method == "boundary"
        assert est.value == pytest.approx(1.5)

    def test_needs_five_points(self):
        with pytest.raises(DomainError):
            cs.transition_estimate(
                ScanResult.from_gap_series([0.9, 1.0, 1.1], [2, 1, 2]))

    def test_interior_crossing_wins(self):
        grid = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        gap = (grid - 0.7) ** 2 + 0.3   # minimum far from the crossing
        base = ScanResult.from_gap_series(grid, gap)
        scan = dataclasses.replace(
            base, crossings=({"lam": 1.0, "kind": "collision",
                              "multiplicity": 4},))
        est = cs.transition_estimate(scan)
        assert est.value == pytest.approx(1.0)
        assert est.method == "level-crossing"

    def test_boundary_crossing_ignored(self):
        grid = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        gap = (grid - 0.9) ** 2 + 0.1
        base = ScanResult.from_gap_series(grid, gap)
        scan = dataclasses.replace(
            base, crossings=({"lam": 0.5, "kind": "collision",
                              "multiplicity": 2},))
        est = cs.transition_estimate(scan)
        assert est.method == "interior-minimum"
        assert est.value == pytest.approx(0.9, abs=1e-9)

    def test_eight_site_scan_estimate(self):
        # the tracked-gap minimum drifts toward 1 as cos(pi/L); at L=8 the
        # parabolic refinement lands within 1e-4 of cos(pi/8)
        grid = np.round(np.arange(0.8, 1.2001, 0.05), 10)
        scan = cs.phase_scan(LatticeSpec(8, "periodic"), grid)
        est = cs.transition_estimate(scan)
        assert est.method == "interior-minimum"
        assert est.gap_used == "sector"
        assert est.value == pytest.approx(math.cos(math.pi / 8), abs=1e-4)

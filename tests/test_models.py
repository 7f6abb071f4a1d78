"""Model constructors: stabilizers, Hamiltonians, symmetry operators, and
the documented discrepancies between printed and reconstructed forms."""

import math

import numpy as np
import pytest

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, models
from clusterspt.errors import DomainError

from conftest import oracle_sum_matrix


class TestLattice:
    def test_validation(self):
        with pytest.raises(DomainError):
            LatticeSpec(2, "open")
        with pytest.raises(DomainError):
            LatticeSpec(5, "sideways")
        assert LatticeSpec(3, "open").is_open
        assert LatticeSpec(6, "periodic").is_periodic

    def test_stabilizer_sites(self):
        assert list(LatticeSpec(6, "open").stabilizer_sites()) == [2, 3, 4, 5]
        assert list(LatticeSpec(4, "periodic").stabilizer_sites()) == [1, 2, 3, 4]

    def test_bonds(self):
        assert list(LatticeSpec(4, "open").bonds()) == [(1, 2), (2, 3), (3, 4)]
        per = list(LatticeSpec(4, "periodic").bonds())
        assert len(per) == 4 and (4, 1) in per

    def test_global_symmetry_support(self):
        for L in (9, 15, 21):
            assert LatticeSpec(L, "open").supports_global_symmetry()
        for L in (3, 6, 8, 12):
            assert not LatticeSpec(L, "open").supports_global_symmetry()
        assert not LatticeSpec(9, "periodic").supports_global_symmetry()


class TestStabilizers:
    def test_bulk_form(self):
        lat = LatticeSpec(9, "open")
        assert cs.stabilizer(5, lat).letters == "IIIZXZIII"

    def test_open_edge_sites_rejected(self):
        lat = LatticeSpec(6, "open")
        with pytest.raises(DomainError):
            cs.stabilizer(1, lat)
        with pytest.raises(DomainError):
            cs.stabilizer(6, lat)

    def test_periodic_wraps(self):
        lat = LatticeSpec(6, "periodic")
        assert cs.stabilizer(1, lat).letters == "XZIIIZ"
        assert cs.stabilizer(6, lat).letters == "ZIIIZX"

    def test_term_counts_and_coefficients(self):
        for L in (4, 7, 10):
            h_open = cs.cluster_hamiltonian(LatticeSpec(L, "open"))
            assert h_open.term_count == L - 2
            h_per = cs.cluster_hamiltonian(LatticeSpec(L, "periodic"))
            assert h_per.term_count == L
            for coeff, p in h_open.iter_terms():
                assert coeff == pytest.approx(-1.0)
                assert p.weight == 3

    def test_minimal_open_chain(self):
        h = cs.cluster_hamiltonian(LatticeSpec(3, "open"))
        assert h.term_count == 1


class TestEdgeAlgebra:
    def test_generators(self):
        lat = LatticeSpec(9, "open")
        labels = [p.label() for p in cs.edge_generators(lat)]
        assert labels == ["+1 ZIIIIIIII", "+1 IIIIIIIIZ",
                          "+1 XZIIIIIII", "+1 IIIIIIIZX"]

    def test_generators_commute_with_h(self):
        lat = LatticeSpec(9, "open")
        h = cs.cluster_hamiltonian(lat)
        for g in cs.edge_generators(lat):
            assert cs.commutator(h, OperatorSum.from_pauli(g)).is_zero

    def test_generators_only_open(self):
        with pytest.raises(DomainError):
            cs.edge_generators(LatticeSpec(9, "periodic"))

    def test_forbidden_set_is_fifteen_hermitian(self):
        lat = LatticeSpec(9, "open")
        sigma = cs.forbidden_set(lat)
        assert len(sigma) == 15
        seen = set()
        for op in sigma:
            assert op.is_hermitian
            assert op.term_count == 1
            (coeff, p), = op.iter_terms()
            assert coeff == pytest.approx(1.0)
            assert not p.is_identity
            seen.add((p.x_mask, p.z_mask))
        assert len(seen) == 15

    @pytest.mark.parametrize("L", [3, 4, 9, 15, 21])
    def test_forbidden_set_matches_the_string_products(self, L):
        # the reference multiplies the generators of every subset as
        # PauliStrings and sorts by weight, then the letter string
        lat = LatticeSpec(L, "open")
        gens = cs.edge_generators(lat)
        seen = {}
        for subset in range(1, 16):
            prod = PauliString.identity(L)
            for b, g in enumerate(gens):
                if subset & (1 << b):
                    prod = prod * g
            n_y = (prod.x_mask & prod.z_mask).bit_count()
            canon = PauliString(L, n_y, prod.x_mask, prod.z_mask)
            seen[(canon.x_mask, canon.z_mask)] = canon
        want = sorted(seen.values(), key=lambda p: (p.weight, p.letters))
        got = cs.forbidden_set(lat)
        assert [op.items() for op in got] == \
            [OperatorSum.from_pauli(p).items() for p in want]

    def test_forbidden_set_contains_named_products(self):
        lat = LatticeSpec(9, "open")
        letters = {op.manifest_lines()[0].split()[-1]
                   for op in cs.forbidden_set(lat)}
        assert "ZIIIIIIIZ" in letters       # Z_1 Z_L
        assert "XZIIIIIZX" in letters       # X_1 Z_2 Z_{L-1} X_L

    def test_forbidden_set_commutes_with_h(self):
        lat = LatticeSpec(9, "open")
        h = cs.cluster_hamiltonian(lat)
        for op in cs.forbidden_set(lat):
            assert cs.commutator(h, op).is_zero


class TestLocalSymmetry:
    def test_pair_content(self):
        lat = LatticeSpec(9, "open")
        assert [p.label() for p in cs.local_symmetry_pair(1, lat)] == \
            ["+1 XZIIIIIZY", "+1 ZIIIIIIZY"]
        assert [p.label() for p in cs.local_symmetry_pair(2, lat)] == \
            ["+1 IIIIIIIZY", "+1 YZIIIIIIZ"]

    def test_algebra(self):
        for L in (4, 6, 9):
            lat = LatticeSpec(L, "open")
            h = cs.cluster_hamiltonian(lat)
            for s in (1, 2):
                t = cs.local_symmetry(s, lat)
                assert cs.commutator(h, t).is_zero
                assert (t @ t).allclose(OperatorSum.identity(L))
                a, b = cs.local_symmetry_pair(s, lat)
                assert not a.commutes_with(b)

    def test_needs_four_sites(self):
        with pytest.raises(DomainError):
            cs.local_symmetry(1, LatticeSpec(3, "open"))
        with pytest.raises(DomainError):
            cs.local_symmetry(1, LatticeSpec(6, "periodic"))

    def test_s_domain(self):
        with pytest.raises(DomainError):
            cs.local_symmetry(3, LatticeSpec(6, "open"))


class TestGlobalSymmetry:
    def test_printed_forms_at_nine_sites(self):
        lat = LatticeSpec(9, "open")
        assert cs.printed_global_string("A1", lat).letters == "YXXYZZYXX"
        assert cs.printed_global_string("B1", lat).letters == "ZZYXXYZZY"
        assert cs.printed_global_string("A2", lat).letters == "ZYXXYZZYX"
        assert cs.printed_global_string("B2", lat).letters == "YZXYXXYZZ"

    def test_canonical_halves_conjugate_to_singles_products(self):
        # in the rotated frame each half is a plain X/Y/Z pattern
        lat = LatticeSpec(9, "open")
        a1, _ = cs.global_symmetry_pair(1, lat)
        img = cs.conjugate_ucp(a1, lat)
        assert img.letters == "XXXXIIXXY"
        assert img.display_phase_exp == 0

    def test_cross_check_outcomes(self):
        lat = LatticeSpec(9, "open")
        rows = {c["name"]: c for c in cs.cross_check_global(lat)}
        assert rows["A1"]["matches"] and rows["A1"]["phase_exp_delta"] == 0
        assert rows["B1"]["matches"] and rows["B1"]["phase_exp_delta"] == 0
        # printed second half reconstructs only up to a sign
        assert rows["A2"]["matches"] and rows["A2"]["phase_exp_delta"] == 2
        # printed fourth half does not reconstruct at all; reported, not fixed
        assert not rows["B2"]["matches"]
        assert rows["B2"]["printed_conjugated"] != rows["B2"]["canonical_pattern"]

    def test_cross_check_at_fifteen_sites(self):
        rows = {c["name"]: c for c in
                cs.cross_check_global(LatticeSpec(15, "open"))}
        assert rows["A1"]["matches"] and rows["B1"]["matches"]
        assert rows["A2"]["matches"]
        assert not rows["B2"]["matches"]

    def test_symmetry_algebra(self):
        for L in (9, 15):
            lat = LatticeSpec(L, "open")
            h = cs.cluster_hamiltonian(lat)
            ident = OperatorSum.identity(L)
            t1 = cs.global_symmetry(1, lat)
            t2 = cs.global_symmetry(2, lat)
            assert cs.commutator(h, t1).is_zero
            assert cs.commutator(h, t2).is_zero
            assert (t1 @ t1).allclose(ident)
            assert (t2 @ t2).allclose(ident)
            assert cs.commutator(t1, t2).is_zero
            for s in (1, 2):
                a, b = cs.global_symmetry_pair(s, lat)
                assert cs.anticommutator(a, b).is_zero

    def test_requires_admissible_length(self):
        for L in (6, 8, 12):
            with pytest.raises(DomainError):
                cs.global_symmetry(1, LatticeSpec(L, "open"))
        with pytest.raises(DomainError):
            cs.global_symmetry(1, LatticeSpec(9, "periodic"))


class TestPerturbation:
    def test_term_count_and_coefficient(self):
        lat = LatticeSpec(6, "periodic")
        h = cs.ising_perturbation(lat, 0.7)
        assert h.term_count == 6
        for coeff, p in h.iter_terms():
            assert coeff == pytest.approx(0.7)
            assert p.weight == 2

    def test_open_has_one_fewer_bond(self):
        assert cs.ising_perturbation(LatticeSpec(6, "open"), 1.0).term_count == 5

    def test_zero_coupling_vanishes(self):
        lat = LatticeSpec(6, "periodic")
        assert cs.ising_perturbation(lat, 0.0).is_zero
        assert cs.perturbed_hamiltonian(lat, 0.0).allclose(
            cs.cluster_hamiltonian(lat))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            cs.ising_perturbation(LatticeSpec(6, "open"), float("nan"))


class TestConventionWitnesses:
    """The all-Z product anticommutes with every three-site term in this
    frame, so the protecting parity here is the all-X product; both are
    exposed and their behavior is pinned down."""

    def test_z_parity_anticommutes_with_stabilizers(self):
        lat = LatticeSpec(9, "open")
        pz, string_zy = cs.parity_and_timereversal(lat)
        (c, zp), = pz.iter_terms()
        for i in range(2, 9):
            assert not zp.commutes_with(cs.stabilizer(i, lat))
        h = cs.cluster_hamiltonian(lat)
        assert not cs.commutator(pz, h).is_zero

    def test_x_parity_commutes_with_everything(self):
        for boundary in ("open", "periodic"):
            lat = LatticeSpec(8, boundary)
            px, _ = cs.spin_flip_symmetries(lat)
            h = cs.cluster_hamiltonian(lat)
            hi = cs.ising_perturbation(lat, 0.3)
            assert cs.commutator(px, h).is_zero
            assert cs.commutator(px, hi).is_zero

    def test_edge_dressed_string_commutes_only_unperturbed(self):
        lat = LatticeSpec(8, "open")
        _, yx = cs.spin_flip_symmetries(lat)
        h = cs.cluster_hamiltonian(lat)
        hi = cs.ising_perturbation(lat, 0.3)
        assert cs.commutator(yx, h).is_zero
        assert not cs.commutator(yx, hi).is_zero


class TestModelSpec:
    def test_registry_contents_open_nine(self):
        model = cs.build_model(LatticeSpec(9, "open"))
        reg = model.registry
        for key in ("H_C", "parity_x", "T1", "T2", "A1", "B2", "T1_loc",
                    "Sigma_01", "Sigma_15", "S_2", "S_8"):
            assert key in reg, key
        assert "S_1" not in reg

    def test_registry_contents_periodic(self):
        model = cs.build_model(LatticeSpec(8, "periodic"), lam=0.4)
        reg = model.registry
        assert "S_1" in reg and "S_8" in reg
        assert "T1" not in reg and "T1_loc" not in reg
        assert not reg["H_I"].is_zero

    def test_registry_read_only(self):
        model = cs.build_model(LatticeSpec(6, "open"))
        with pytest.raises(TypeError):
            model.registry["H_C"] = OperatorSum.identity(6)

    def test_hamiltonian_matches_registry(self):
        reg = cs.build_model(LatticeSpec(6, "periodic"), lam=0.25).registry
        want = cs.perturbed_hamiltonian(LatticeSpec(6, "periodic"), 0.25)
        assert (reg["H_C"] + reg["H_I"]).allclose(want)

    def test_model_builds_no_perturbation(self, monkeypatch):
        # the registry builds H_I on its first read, and the symbolic
        # audit reads only H_C, the symmetry halves and the probes
        calls = []
        original = models.ising_perturbation
        monkeypatch.setattr(models, "ising_perturbation",
                            lambda *a: calls.append(a) or original(*a))
        model = cs.build_model(LatticeSpec(9), lam=0.3)
        cs.certify_protection(LatticeSpec(9), numeric=False)
        assert calls == []
        model.registry["H_I"]
        assert len(calls) == 1

    @pytest.mark.parametrize("lam", [1j, 0.3 - 1e-9j, float("inf"), 2e150])
    def test_rejects_a_coupling_it_cannot_take(self, lam):
        with pytest.raises(DomainError, match="coupling must be real"):
            cs.build_model(LatticeSpec(9), lam)
        with pytest.raises(DomainError, match="coupling must be real"):
            cs.ising_perturbation(LatticeSpec(9), lam)

    def test_dense_agreement_small(self):
        # model Hamiltonian matches the independent kron oracle
        lat = LatticeSpec(5, "open")
        h = cs.cluster_hamiltonian(lat)
        m = oracle_sum_matrix(h)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m, cs.dense_matrix(h), atol=1e-12)


def _eager_registry(lattice, lam=0.0):
    """Every registry entry built at once from the public constructors, in
    the key order of the registry: the reference for the lazy one."""
    reg = {f"S_{i}": OperatorSum.from_pauli(cs.stabilizer(i, lattice))
           for i in lattice.stabilizer_sites()}
    reg["H_C"] = cs.cluster_hamiltonian(lattice)
    reg["H_I"] = cs.ising_perturbation(lattice, lam)
    reg["parity_z"], reg["string_zy"] = cs.parity_and_timereversal(lattice)
    reg["parity_x"], reg["string_yx"] = cs.spin_flip_symmetries(lattice)
    if lattice.is_open:
        for k, g in enumerate(cs.edge_generators(lattice), start=1):
            reg[f"G_{k}"] = OperatorSum.from_pauli(g)
        for k, op in enumerate(cs.forbidden_set(lattice), start=1):
            reg[f"Sigma_{k:02d}"] = op
        if lattice.length >= 4:
            reg["T1_loc"] = cs.local_symmetry(1, lattice)
            reg["T2_loc"] = cs.local_symmetry(2, lattice)
    if lattice.supports_global_symmetry():
        for s in (1, 2):
            a, b = cs.global_symmetry_pair(s, lattice)
            reg[f"A{s}"] = OperatorSum.from_pauli(a)
            reg[f"B{s}"] = OperatorSum.from_pauli(b)
            reg[f"T{s}"] = (reg[f"A{s}"] + reg[f"B{s}"]) / math.sqrt(2.0)
    return reg


class TestLazyRegistry:
    """build_model's registry knows every name up front and builds each
    entry on its first read, memoized on that model only."""

    @pytest.mark.parametrize("lattice", [
        LatticeSpec(9, "open"), LatticeSpec(15, "open"),
        LatticeSpec(8, "periodic"), LatticeSpec(4, "open"),
        LatticeSpec(3, "open")],
        ids=["open9", "open15", "ring8", "open4", "open3"])
    def test_matches_eager_construction(self, lattice):
        model = cs.build_model(lattice, lam=0.3)
        eager = _eager_registry(lattice, lam=0.3)
        assert list(model.registry) == list(eager)
        assert len(model.registry) == len(eager)
        for name, op in eager.items():
            assert list(model.registry[name].items()) == list(op.items())

    def test_reading_h_c_builds_nothing_else(self, monkeypatch):
        calls = []
        for name in ("forbidden_set", "local_symmetry", "stabilizer",
                     "global_symmetry_pair"):
            original = getattr(models, name)
            monkeypatch.setattr(
                models, name,
                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        lattice = LatticeSpec(15, "open")
        model = cs.build_model(lattice)
        reg = model.registry
        assert reg["H_C"] is reg["H_C"]
        # one cluster Hamiltonian's stabilizers, and no S_i, T*_loc,
        # Sigma_* or global half
        assert calls == ["stabilizer"] * len(lattice.stabilizer_sites())
        calls.clear()
        assert "Sigma_07" in reg and "T2_loc" in reg and "S_3" in reg
        assert calls == []
        reg["Sigma_07"]
        assert calls == ["forbidden_set"]
        reg["Sigma_01"], reg["Sigma_15"]
        assert calls == ["forbidden_set"]
        reg["S_3"]
        reg["T1_loc"]
        assert calls == ["forbidden_set", "stabilizer", "local_symmetry"]

    def test_second_read_is_the_same_object(self):
        reg = cs.build_model(LatticeSpec(9)).registry
        for name in ("H_C", "Sigma_03", "A1", "T1", "T1_loc", "S_4"):
            assert reg[name] is reg[name]
        assert dict(reg.items())["B2"] is reg["B2"]

    def test_two_models_share_no_entry(self):
        a = cs.build_model(LatticeSpec(9)).registry
        b = cs.build_model(LatticeSpec(9)).registry
        assert list(a) == list(b)
        for name in a:
            assert a[name] is not b[name], name
            assert a[name] == b[name], name

    def test_model_spec_checks_a_registry_it_is_given(self):
        model = cs.build_model(LatticeSpec(9))
        other = cs.build_model(LatticeSpec(15)).registry
        with pytest.raises(DomainError, match="wrong length"):
            cs.ModelSpec(model.lattice, other)

    def test_mapping_behaviour(self):
        reg = cs.build_model(LatticeSpec(8, "periodic")).registry
        assert "H_C" in reg and "Sigma_01" not in reg and 3 not in reg
        assert reg.get("T1") is None
        with pytest.raises(KeyError):
            reg["T1"]
        with pytest.raises(TypeError):
            reg["H_C"] = OperatorSum.identity(8)
        with pytest.raises(TypeError):
            del reg["H_C"]

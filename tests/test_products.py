"""Operator-on-state products off the mask kernel: apply, expectations and
the batched splitting matrices against the CSR matrix of operator_matrix,
on random multi-term sums with complex coefficients and repeated x masks,
and their length checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine
from clusterspt.errors import LengthMismatchError

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def multi_term_sums(draw, length):
    """A random sum on `length` sites: 1-3 x masks, each carrying 1-3 z
    masks, so several terms share an x mask, with complex coefficients."""
    masks = st.integers(0, (1 << length) - 1)
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    terms = {}
    for x in draw(st.lists(masks, min_size=1, max_size=3, unique=True)):
        for z in draw(st.lists(masks, min_size=1, max_size=3, unique=True)):
            terms[(x, z)] = complex(draw(parts), draw(parts))
    return OperatorSum(length, terms)


@st.composite
def lattices(draw):
    return LatticeSpec(draw(st.integers(3, 10)),
                       draw(st.sampled_from(["open", "periodic"])))


def _random_states(seed, length, count):
    rng = np.random.default_rng(seed)
    vecs = (rng.normal(size=(1 << length, count))
            + 1j * rng.normal(size=(1 << length, count)))
    return vecs / np.linalg.norm(vecs, axis=0)


@PROPERTY
@given(st.data(), lattices(), st.integers(0, 2**32 - 1))
def test_state_products_match_the_csr_product(data, lattice, seed):
    L = lattice.length
    op = data.draw(multi_term_sums(L))
    tol = 1e-14 * max(1.0, op.norm_bound())
    m = cs.operator_matrix(op)
    # random states and the lattice's cluster state, stacked
    vecs = np.column_stack([_random_states(seed, L, 2),
                            cs.build_cluster_state(lattice).amps])
    for j in range(vecs.shape[1]):
        psi = cs.StateVector(L, vecs[:, j])
        want = m @ vecs[:, j]
        assert np.abs(cs.apply(op, psi).amps - want).max() <= tol
        assert abs(cs.expectation(psi, op) - np.vdot(vecs[:, j], want)) <= tol
    want = np.array([np.vdot(v, m @ v) for v in vecs.T])
    assert np.abs(engine.expectations(vecs, op) - want).max() <= tol


@pytest.mark.parametrize("L", [6, 8, 10])
def test_expectations_equal_the_csr_form_bit_for_bit(L):
    # np.vdot rounds a strided column otherwise than a contiguous one, so
    # the states go in as contiguous columns: each value is that of one
    # state's vdot with the CSR product, to the last bit
    op = cs.ising_perturbation(LatticeSpec(L, "periodic"), 1.0)
    m = cs.operator_matrix(op)
    vecs = _random_states(L, L, 5)
    states = [cs.StateVector(L, v) for v in vecs.T]
    want = np.array([np.vdot(psi.amps, m @ psi.amps) for psi in states])
    assert engine.expectations(states, op).tobytes() == want.tobytes()
    assert engine.expectations(vecs, op).tobytes() == want.tobytes()


@pytest.mark.parametrize("budget", [1 << 10, 5000, 1 << 16])
def test_products_in_row_ranges_equal_the_csr_form_bit_for_bit(
        monkeypatch, budget):
    # the rows formed a range at a time, down to ranges of a few rows,
    # ranges that do not divide 2^L, and a single range: every product and
    # expectation is still the CSR form's, to the last bit
    L = 10
    op = cs.ising_perturbation(LatticeSpec(L, "periodic"), 1.0) \
        + OperatorSum(L, {(5, 3): 0.3j, (5, 6): -0.2j})
    m = cs.operator_matrix(op)
    vecs = _random_states(L, L, 5)
    monkeypatch.setattr(engine, "_CHUNK_BYTES", budget)
    assert engine._act(op, vecs).tobytes() == (m @ vecs).tobytes()
    assert cs.apply(op, cs.StateVector(L, vecs[:, 0])).amps.tobytes() \
        == (m @ vecs[:, 0]).tobytes()
    columns = [np.ascontiguousarray(v) for v in vecs.T]
    want = np.array([np.vdot(v, m @ v) for v in columns])
    assert engine.expectations(vecs, op).tobytes() == want.tobytes()


def test_an_eighteen_site_expectation_forms_its_rows_in_ranges():
    # one YY expectation of an 18-site ring state (4.2 MB) peaked at
    # 75.5 MB with all 2^18 kernel rows at once
    L = 18
    op = cs.ising_perturbation(LatticeSpec(L, "periodic"), 1.0)
    psi = cs.StateVector(L, _random_states(L, L, 1)[:, 0])
    tracemalloc.start()
    try:
        value = engine.expectations([psi], op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    assert abs(value[0].imag) <= 1e-12


@PROPERTY
@given(st.data(), lattices(), st.sampled_from([0, 1, 4]),
       st.integers(0, 2**32 - 1))
def test_splitting_matrices_match_the_csr_projection(data, lattice, count,
                                                     seed):
    L = lattice.length
    probes = [data.draw(multi_term_sums(L)) for _ in range(count)]
    # the cluster ground space (four states on a chain, one on a ring) and
    # two random states
    ground = cs.eig_low(cs.cluster_hamiltonian(lattice), count=6).ground_basis
    basis = np.column_stack([psi.amps for psi in ground]
                            + [_random_states(seed, L, 2)])
    got = engine.splitting_matrices(basis, probes)
    d = basis.shape[1]
    assert got.shape == (count, d, d)
    for m, probe in zip(got, probes):
        want = basis.conj().T @ (cs.operator_matrix(probe) @ basis)
        assert np.abs(m - want).max() <= 1e-13


def _splitting_loop(basis, ops):
    """The reference: one product off each operator's rows (engine._act)
    and one V^H times it, operator by operator."""
    bra = basis.conj().T
    return [bra @ engine._act(op, basis) for op in ops]


@PROPERTY
@given(st.data(), lattices(), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_one_gather_is_the_per_operator_loop(data, lattice, count, seed):
    # the same sums in the same order: equal to the last bit, for sums
    # with shared x masks, complex coefficients and none at all
    L = lattice.length
    probes = [data.draw(multi_term_sums(L)) for _ in range(count)]
    probes.insert(data.draw(st.integers(0, count)), OperatorSum.zero(L))
    basis = np.column_stack(
        [psi.amps for psi in
         cs.eig_low(cs.cluster_hamiltonian(lattice), count=6).ground_basis]
        + [_random_states(seed, L, 2)])
    got = engine.splitting_matrices(basis, probes)
    for m, want in zip(got, _splitting_loop(basis, probes)):
        np.testing.assert_array_equal(m, want)


@pytest.mark.parametrize("L", [5, 9, 12])
def test_audit_splittings_are_the_per_operator_loop(L):
    # every probe of the audit, then its verdicts and norms against the
    # one-matrix rule, norms as np.linalg.norm gives them
    model = cs.build_model(LatticeSpec(L, "open"))
    probes = dict(cs.default_probe_set(model.lattice))
    probes.update((name, model.registry[name]) for name in model.registry
                  if name.startswith("Sigma_"))
    ops = [probes[name] for name in sorted(probes)]
    basis = np.column_stack([psi.amps for psi in cs.eig_low(
        model.registry["H_C"], count=6).ground_basis])
    got = engine.splitting_matrices(basis, ops)
    np.testing.assert_array_equal(got, _splitting_loop(basis, ops))
    classes, norms = engine.splitting_classes(got)
    for m, kind, norm in zip(got, classes, norms):
        d = m.shape[0]
        want = ("zero" if np.linalg.norm(m) <= 1e-10 else "scalar"
                if np.linalg.norm(m - np.trace(m) / d * np.eye(d)) <= 1e-10
                else "non-scalar")
        assert kind == want == cs.splitting_class(m)
        assert norm == np.linalg.norm(m)
    assert {"zero", "non-scalar"} <= set(classes)


def test_splitting_classes_at_the_tolerance():
    # a norm just inside tol is zero and just outside is not, and the
    # norm of the traceless part decides between scalar and non-scalar
    eye = np.eye(4, dtype=complex)
    stack = np.array([0.9e-10 * eye / 2, 1.1e-10 * eye / 2, 3.0 * eye,
                      3.0 * eye + np.diag([0.9e-10, 0, 0, 0]),
                      3.0 * eye + np.diag([2e-10, 0, 0, 0]),
                      np.zeros((4, 4))])
    classes, norms = engine.splitting_classes(stack)
    assert list(classes) == ["zero", "scalar", "scalar", "scalar",
                             "non-scalar", "zero"]
    np.testing.assert_array_equal(norms, [np.linalg.norm(m) for m in stack])
    assert engine.splitting_classes(np.zeros((0, 4, 4)))[0].size == 0


def test_ground_projector_is_the_one_operator_case():
    spect = cs.eig_low(cs.cluster_hamiltonian(LatticeSpec(7, "open")))
    ops = [OperatorSum.from_pauli(PauliString.from_compact(name, 7))
           for name in ("X1", "Z1Z7", "Y4")]
    # X1 + X1Z2: two terms of one operator on one x mask add
    ops.append(ops[0] + OperatorSum.from_pauli(
        PauliString.from_compact("X1Z2", 7), 0.5j))
    batch = engine.splitting_matrices(spect.ground_basis, ops)
    for m, op in zip(batch, ops):
        assert np.array_equal(cs.ground_projector(spect, op), m)
    assert np.abs(batch[3] - batch[0]).max() > 0.1


@pytest.mark.parametrize("length", [4, 6])
def test_audit_products_check_lengths(length):
    lattice = LatticeSpec(5, "open")
    spect = cs.eig_low(cs.cluster_hamiltonian(lattice))
    good = OperatorSum.from_pauli(PauliString.single(5, 1, "X"))
    probe = OperatorSum.from_pauli(PauliString.single(length, 1, "X"))
    parity, _ = cs.spin_flip_symmetries(LatticeSpec(length, "open"))
    with pytest.raises(LengthMismatchError):
        cs.ground_projector(spect, probe)
    with pytest.raises(LengthMismatchError):
        engine.splitting_matrices(spect.ground_basis, [good, probe])
    with pytest.raises(LengthMismatchError):
        cs.resolve_sectors(spect, parity)
    with pytest.raises(LengthMismatchError):
        engine.expectations(spect.states, probe)

"""Shared fixtures: an independent dense-matrix oracle built from literal
2x2 matrices via Kronecker products, plus random operator factories, and
the benchmark's free-fermion reference (`free_fermion`, bench/oracle.py
loaded by path) for spectra above the dense sizes.

Neither oracle touches the package's own matrix builders, so agreement
between them and the package is a real cross-check of the symbolic
algebra.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import hypothesis
import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

import clusterspt as cs
from clusterspt import engine


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# H_C + lam H_I solved exactly by Jordan-Wigner free fermions per spin-flip
# sector, in O(L^3): spectrum(L, periodic, lam, count) gives the lowest
# levels as (energy, parity) pairs
free_fermion = _load_by_path(
    "free_fermion",
    Path(__file__).resolve().parents[1] / "bench" / "oracle.py")

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}
PHASES = (1.0, 1j, -1.0, -1j)


def kron_from_letters(letters: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for ch in letters:
        m = np.kron(m, SINGLE[ch])
    return m


def oracle_matrix(p: cs.PauliString) -> np.ndarray:
    """Dense matrix from the printed form alone: prefix times letter kron."""
    return PHASES[p.display_phase_exp] * kron_from_letters(p.letters)


def oracle_sparse(p: cs.PauliString) -> scipy.sparse.csr_array:
    """oracle_matrix as a sparse CSR matrix: the sparse Kronecker product of
    the same literal 2x2 matrices, times the printed prefix."""
    term = scipy.sparse.csr_array([[1.0 + 0j]])
    for ch in p.letters:
        term = scipy.sparse.kron(term, SINGLE[ch], format="csr")
    return PHASES[p.display_phase_exp] * term


def oracle_sum_sparse(op: cs.OperatorSum) -> scipy.sparse.csr_array:
    """Sparse CSR matrix of a sum, each term its oracle_sparse."""
    dim = 1 << op.length
    m = scipy.sparse.csr_array((dim, dim), dtype=complex)
    for coeff, p in op.iter_terms():
        m = m + coeff * oracle_sparse(p)
    return m


def oracle_sum_matrix(op: cs.OperatorSum) -> np.ndarray:
    """Dense matrix of a sum, summed sparse (oracle_sum_sparse) and
    densified once."""
    return oracle_sum_sparse(op).toarray()


def random_pauli(rng, length: int, phase: bool = True) -> cs.PauliString:
    letters = "".join(rng.choice(list("IXYZ"), size=length))
    p = cs.PauliString.from_letters(letters)
    if phase:
        for _ in range(int(rng.integers(0, 4))):
            p = cs.PauliString(length, (p.phase_exp + 1) % 4,
                               p.x_mask, p.z_mask)
    return p


def random_hermitian_sum(rng, length: int, terms: int = 6) -> cs.OperatorSum:
    pairs = []
    for _ in range(terms):
        p = random_pauli(rng, length, phase=False)
        if not p.is_hermitian:
            p = cs.PauliString(length, (p.phase_exp + 1) % 4,
                               p.x_mask, p.z_mask)
        pairs.append((float(rng.normal()), p))
    op = cs.OperatorSum.from_terms(length, pairs)
    return op + op.adjoint()


def basis_matrix(basis) -> np.ndarray:
    """The dense d x d unitary U of a sector's real basis, from its rows
    (sigma, a, b), the sector's value in engine._real_bases: U[c, c] = a_c
    and U[c, sigma_c] = b_c (b_c = 0 where sigma_c = c)."""
    sigma, a, b = basis
    u = np.diag(a).astype(complex)
    u[np.arange(a.size), sigma] += b
    return u


def lanczos_row(h, count: int) -> tuple:
    """(vals, labels, states, max_residual) of engine.sector_lanczos for h,
    as family_low's one-row iterative call makes it: h charged, its
    sectors built (engine._sector_frame), then solved on them."""
    [[levels]] = engine.family_low([h], [[1.0]], count, "iterative")
    return levels


def sector_census(run):
    """Run `run()` with spies on the dense sector solve (engine.sector_low)
    and return what it did: `solves`, the (d, levels) of every LAPACK call
    (_subset_eigh); `certified`, every certificate call (_certify) as its
    (blocks, tops, verdicts); `checked`, the (rows, levels) of every
    residual check's stack (checked_residual); `merged`, per coupling row
    its per-sector solutions as _merge_levels receives them."""
    census = SimpleNamespace(solves=[], certified=[], checked=[], merged=[])
    eigh, certify = engine._subset_eigh, engine._certify
    residual, merge = engine.checked_residual, engine._merge_levels

    def solve(h, n):
        census.solves.append((h.shape[0], n))
        return eigh(h, n)

    def certificate(h, tops, atol, norm_h):
        above = certify(h, tops, atol, norm_h)
        census.certified.append((h.copy(), np.array(tops), above))
        return above

    def check(hv, vecs, vals, norm_h):
        census.checked.append((vecs.shape[0], vecs.shape[-1]))
        return residual(hv, vecs, vals, norm_h)

    def merging(table, solved, *args):
        census.merged.append(solved)
        return merge(table, solved, *args)

    with mock.patch.object(engine, "_subset_eigh", side_effect=solve), \
            mock.patch.object(engine, "_certify", side_effect=certificate), \
            mock.patch.object(engine, "checked_residual", side_effect=check), \
            mock.patch.object(engine, "_merge_levels", side_effect=merging):
        census.result = run()
    return census


def for_each_size(sizes: dict, strategy, check, examples=()):
    """check(L, *case) on n cases hypothesis draws from strategy(L), for
    each site count L and count n of `sizes`, then check(*case) on each
    explicit case of `examples`.

    The size is a loop, not a draw: the installed hypothesis mixes the
    literal constants of the local modules under test into its draws, so a
    drawn size moves with unrelated source edits, and a test's time with
    it.  Each size is seeded by L, so that the draws repeat from run to run
    and no size replays those of another.  Hypothesis tries the strategy's
    simplest draw first (lambda 0 and count 1, say), which would be one of
    the few cases of every size; so that draw is found once per size
    (hypothesis.find) and rejected, and another is drawn in its place."""
    for L, n in sizes.items():
        simplest = hypothesis.find(
            strategy(L), lambda _: True, settings=hypothesis.settings(
                database=None, derandomize=True, deadline=None,
                phases=[hypothesis.Phase.generate, hypothesis.Phase.shrink]))

        @hypothesis.seed(L)
        @hypothesis.settings(max_examples=n, derandomize=True, deadline=None)
        @given(st.data())
        def drawn(data):
            case = data.draw(strategy(L))
            hypothesis.assume(case != simplest)
            check(L, *case)

        drawn()
    for case in examples:
        check(*case)


@pytest.fixture(autouse=True)
def no_kept_projections():
    """Every test starts and ends with family_low's memo of projections
    (engine._KEPT) empty, so that no test takes another's projections and
    the spies on the projection's builders count every build."""
    engine._KEPT.clear()
    yield
    engine._KEPT.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or "::" not in nodeid:
                continue
            verdict = "PASS" if outcome == "passed" else "FAIL"
            took = getattr(rep, "duration", 0.0)
            rows.append((nodeid.split("::")[-1], verdict, took))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, verdict, took in sorted(rows):
            terminalreporter.write_line(f"{verdict}  {name}  ({took:.1f}s)")

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

import numpy as np
import pytest

import clusterspt as cs


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


def oracle_sum_matrix(op: cs.OperatorSum) -> np.ndarray:
    dim = 1 << op.length
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, p in op.iter_terms():
        m += coeff * oracle_matrix(p)
    return m


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

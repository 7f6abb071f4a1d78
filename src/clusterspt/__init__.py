"""Exact verification toolkit for cluster-chain stabilizer models.

Symbolic Pauli-group algebra over bitmask pairs, CZ-circuit Clifford
conjugation, sparse exact diagonalization, and verification suites for
the twofold Z2 symmetry protecting the fourfold edge degeneracy of the open
cluster chain, plus a coupling scan of the Ising-perturbed model.
"""

from .analysis import (AlgebraReport, CheckEntry, ProbeVerdict,
                       ProtectionReport, ScanResult, TransitionEstimate,
                       certify_protection, default_probe_set,
                       longest_string_sites, phase_scan, string_order,
                       string_order_operator, transition_estimate,
                       verify_stabilizer_algebra)
from .clifford import (CzCircuit, conjugate_circuit, conjugate_cz,
                       conjugate_ucp)
from .engine import (SpectrumResult, StateVector, apply, build_cluster_state,
                     cz_diagonal, dense_matrix, eig_low, expectation,
                     gram_matrix, ground_projector, has_real_matrix,
                     operator_matrix, resolve_sectors,
                     splitting_class, subspace_distance)
from .errors import (ConvergenceError, DomainError, LengthMismatchError,
                     ResourceLimitError)
from .models import (LatticeSpec, ModelSpec, build_model, cluster_hamiltonian,
                     cross_check_global, edge_generators, forbidden_set,
                     global_symmetry, global_symmetry_pair, ising_perturbation,
                     local_symmetry, local_symmetry_pair,
                     parity_and_timereversal, perturbed_hamiltonian,
                     printed_global_string, spin_flip_symmetries,
                     stabilizer)
from .pauli import (OperatorSum, PauliString, anticommutator, anticommutes,
                    commutator, commutes, multiply)

__version__ = "0.1.0"

__all__ = [
    "AlgebraReport", "CheckEntry", "ConvergenceError", "CzCircuit",
    "DomainError", "LatticeSpec", "LengthMismatchError", "ModelSpec",
    "OperatorSum", "PauliString", "ProbeVerdict", "ProtectionReport",
    "ResourceLimitError", "ScanResult", "SpectrumResult", "StateVector",
    "TransitionEstimate", "anticommutator", "anticommutes", "apply",
    "build_cluster_state", "build_model", "certify_protection",
    "cluster_hamiltonian", "commutator", "commutes", "conjugate_circuit",
    "conjugate_cz", "conjugate_ucp", "cross_check_global", "cz_diagonal",
    "default_probe_set", "dense_matrix", "edge_generators", "eig_low",
    "expectation", "forbidden_set", "global_symmetry",
    "global_symmetry_pair", "gram_matrix", "ground_projector",
    "has_real_matrix", "ising_perturbation", "local_symmetry",
    "local_symmetry_pair", "longest_string_sites", "multiply",
    "operator_matrix", "parity_and_timereversal",
    "perturbed_hamiltonian", "phase_scan", "printed_global_string",
    "resolve_sectors", "spin_flip_symmetries",
    "splitting_class", "stabilizer", "string_order", "string_order_operator",
    "subspace_distance", "transition_estimate", "verify_stabilizer_algebra",
]

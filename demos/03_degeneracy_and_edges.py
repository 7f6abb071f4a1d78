"""Fourfold ground degeneracy of the open cluster chain, and where it lives.

Open boundaries leave a fourfold-degenerate ground space with a gap of 2;
closing the ring removes the edge freedom and the ground state becomes
unique. The four simultaneous stabilizer eigenstates are built directly
as graph states, labeled by a Z flip on each end, and they span exactly
the numerical ground space. Projecting perturbations into that space
shows the protection mechanism at first order: bulk fields project to
zero, while an edge field splits the quadruplet. Last, the open chain's
Pauli integrals of motion: the strings that commute with every term of
H_C + lambda H_I, which the solvers use to split and pair the sectors.
"""

import numpy as np

from clusterspt import (LatticeSpec, PauliString, build_cluster_state,
                        cluster_hamiltonian, eig_low, engine, expectation,
                        gram_matrix, ground_projector, ising_perturbation,
                        pauli, subspace_distance)

for boundary in ("open", "periodic"):
    lat = LatticeSpec(8, boundary)
    res = eig_low(cluster_hamiltonian(lat), count=6, method="dense")
    print(f"{boundary:8s} 8 sites: E0 = {res.eigenvalues[0]:+.6f}, "
          f"degeneracy {res.ground_degeneracy}, gap {res.gap:.6f}")

lat = LatticeSpec(9, "open")
res = eig_low(cluster_hamiltonian(lat), count=6, method="dense")
print(f"\nopen 9 sites: E0 = {res.eigenvalues[0]:+.0f}, "
      f"degeneracy {res.ground_degeneracy}, gap {res.gap:.0f}")

# The four ground states, labeled by edge flips (k, l).
states = [build_cluster_state(lat, k, l) for k in (0, 1) for l in (0, 1)]
print("gram deviation from identity:",
      np.abs(gram_matrix(states) - np.eye(4)).max())
print("distance to the numerical ground space:",
      subspace_distance(states, res.states[:4]))

# The labels are eigenvalues of the two edge generators.
left = PauliString.from_sites(9, {1: "X", 2: "Z"})
right = PauliString.from_sites(9, {8: "Z", 9: "X"})
print("\n(k, l)   <X1 Z2>   <Z8 X9>")
for k in (0, 1):
    for l in (0, 1):
        psi = build_cluster_state(lat, k, l)
        print(f"({k}, {l})   {expectation(psi, left).real:+.0f}        "
              f"{expectation(psi, right).real:+.0f}")

# First-order splitting matrices: 4x4 projections into the ground space.
bulk = PauliString.single(9, 5, "X")
edge = PauliString.single(9, 1, "Z")
m_bulk = ground_projector(res, bulk)
m_edge = ground_projector(res, edge)
print("\n|P X5 P| =", np.linalg.norm(m_bulk), " (bulk field: invisible)")
print("eigenvalues of P Z1 P:",
      np.round(np.linalg.eigvalsh(m_edge), 10), " (edge field: splits)")

# The Pauli commutant of H_C + lambda H_I (lambda != 0) has dimension 3: P,
# a period-3 string Q and, when L != 0 mod 3, a string Q_a that
# anticommutes with P.  The solvers split each (r, p) sector by Q; Q_a maps
# sector (r, p, q) onto (r q, -p, q), so only four of the eight are solved.
for L in (7, 8, 9):
    lat = LatticeSpec(L, "open")
    ops = [cluster_hamiltonian(lat), ising_perturbation(lat, 0.5)]
    basis = [PauliString.from_vector(L, v).letters
             for v in pauli.commutant(ops)]
    q, qa = engine._integrals(ops, "RP")
    print(f"\nopen {L} sites: commutant {' '.join(basis)}")
    print(f"  Q = {q.letters}, Q_a = {qa.letters if qa else 'none'}")
    if qa is None:
        continue
    table = engine._sector_table(L, "RP", (q, qa))
    engine._check_table(table)
    for i, (k, p, s) in enumerate(table.keys):
        k2, p2, s2 = table.keys[table.twin[i]]
        if i < table.twin[i]:
            print(f"  (r, p, q) = ({(-1) ** k:+d}, {p:+d}, {s:+d}) <-> "
                  f"({(-1) ** k2:+d}, {p2:+d}, {s2:+d}), "
                  f"{table.dims[i]} states each")

"""Driving the cluster chain through its transition with an Ising coupling.

Adding +lam * sum Y_i Y_{i+1} to the periodic cluster Hamiltonian
preserves both the global spin-flip parity (checked symbolically for every
lam at once) and the fourfold structure hidden in the string order.
Scanning lam tracks the excitation gap restricted to the ground state's
parity sector, the nonlocal string order, and level crossings; the gap minimum
sharpens and moves toward lam = 1 as the ring grows, the finite-size
shadow of a phase transition there.
"""

import numpy as np

from clusterspt import LatticeSpec, phase_scan, transition_estimate

grid = np.round(np.arange(0.5, 1.51, 0.1), 12)

for n in (8, 10, 12):
    scan = phase_scan(LatticeSpec(n, "periodic"), grid)
    print(f"ring of {n} sites "
          f"(parity symmetric: {scan.parity_commutes}, "
          f"real Hamiltonian: {scan.time_reversal_real})")
    print("  lam    E0         sector gap   string order   crossings")
    for i, lam in enumerate(scan.grid):
        cross = "x" if any(abs(c["lam"] - lam) < 0.05 for c in scan.crossings) else ""
        print(f"  {lam:4.2f}   {scan.energy[i]:+9.5f}  "
              f"{scan.gap_sector[i]:10.6f}   {scan.string_order[i]:.8f}"
              f"      {cross}")
    est = transition_estimate(scan)
    print(f"  estimated transition: lam* = {float(est):.6f} "
          f"({est.method})\n")

print("string order starts at 1 for lam = 0 and decays smoothly;")
print("the sector gap minimum approaches lam = 1 with system size.")

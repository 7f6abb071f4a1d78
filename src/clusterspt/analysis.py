"""Verification suites and physics scans.

Four entry points:

* verify_stabilizer_algebra: pairwise commutation of all stabilizers plus
  numeric eigenstate and degeneracy checks at desk scale.
* certify_protection: symbolic commutation audit of every probe operator
  against the two global symmetries, with the first-order splitting matrices
  of all probes over the once-stacked ground basis.
* string_order / phase_scan: nonlocal order parameter and the coupling scan
  of the perturbed model, with parity-sector tracking and level-crossing
  detection.
* transition_estimate: the scan's transition-point estimate.

Transition estimation policy: at finite size the symmetric-sector gap
minimum drifts toward the critical coupling as cos(pi/L) except when the
chain length is a multiple of six, where the symmetric momentum grid misses
the soft mode and the scan instead shows an exact level crossing of the first
excitation at the critical point.  A detected interior crossing is a sharper,
size-exact signature than a smooth minimum, so it takes precedence; otherwise
the estimate is the parabolic refinement of the tracked-gap minimum, with
boundary minima flagged rather than interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import (StateVector, apply, build_cluster_state, eig_low,
                     expectation, expectations, splitting_class,
                     splitting_matrices, subspace_distance)
from .errors import DomainError, LengthMismatchError, ResourceLimitError
from .models import (LatticeSpec, ModelSpec, build_model, cluster_hamiltonian,
                     cross_check_global, ising_perturbation,
                     local_symmetry_pair, printed_global_string,
                     spin_flip_symmetries, stabilizer)
from .pauli import COEFF_TOL, OperatorSum, PauliString, anticommutes, commutes

_LETTERS = ("X", "Y", "Z")


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AlgebraReport:
    lattice: LatticeSpec
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]


def verify_stabilizer_algebra(lattice: LatticeSpec,
                              numeric: bool = True) -> AlgebraReport:
    """Check the stabilizer family: symbolic pairwise commutation, and (at
    desk scale) that the entangled reference states are +1 eigenstates with
    the expected ground-space dimension; each stabilizer is applied once to
    all reference states (engine.expectations)."""
    sites = list(lattice.stabilizer_sites())
    stabs = {i: stabilizer(i, lattice) for i in sites}
    entries = []

    bad = [(i, j) for a, i in enumerate(sites) for j in sites[a + 1:]
           if not commutes(stabs[i], stabs[j])]
    pair_count = len(sites) * (len(sites) - 1) // 2
    entries.append(CheckEntry(
        "pairwise-commutation", not bad,
        f"{pair_count} pairs" if not bad else f"failing pairs: {bad}"))

    if numeric and lattice.length <= engine.DENSE_SITE_CAP:
        labels = [(0, 0)] if lattice.is_periodic else \
            [(k, l) for k in (0, 1) for l in (0, 1)]
        states = [build_cluster_state(lattice, k, l) for (k, l) in labels]
        worst = max(float(np.abs(expectations(states, stabs[i]) - 1.0).max())
                    for i in sites)
        entries.append(CheckEntry(
            "eigenstate-plus-one", worst <= 1e-10,
            f"max |<S> - 1| = {worst:.2e} over {len(labels)} state(s)"))

        h = cluster_hamiltonian(lattice)
        spect = eig_low(h, count=6)
        want_deg = 4 if lattice.is_open else 1
        want_e0 = -(lattice.length - 2) if lattice.is_open else -lattice.length
        entries.append(CheckEntry(
            "ground-degeneracy", spect.ground_degeneracy == want_deg,
            f"degeneracy {spect.ground_degeneracy}, expected {want_deg}"))
        entries.append(CheckEntry(
            "ground-energy", abs(spect.ground_energy - want_e0) <= 1e-9,
            f"E0 = {spect.ground_energy:.12g}, expected {want_e0}"))

    return AlgebraReport(lattice=lattice, entries=tuple(entries))


@dataclass(frozen=True)
class ProbeVerdict:
    name: str
    commutes_with_h: bool
    commutes_with_t1: bool
    commutes_with_t2: bool
    is_bulk_local: bool
    is_forbidden: bool
    splitting: str | None = None
    splitting_norm: float | None = None

    @property
    def excluded(self) -> bool:
        """Fails to commute with at least one global symmetry."""
        return not (self.commutes_with_t1 and self.commutes_with_t2)


@dataclass(frozen=True)
class ProtectionReport:
    lattice: LatticeSpec
    probes: tuple
    algebra: dict
    per_s_bulk: dict
    numeric_splitting: bool
    cross_checks: tuple
    mode: str = "global"

    @property
    def sigma_all_excluded(self) -> bool:
        return all(p.excluded for p in self.probes if p.is_forbidden)

    @property
    def bulk_all_excluded(self) -> bool:
        return all(p.excluded for p in self.probes if p.is_bulk_local)

    @property
    def symmetric_probes_harmless(self) -> bool:
        if not self.numeric_splitting:
            return True
        return all(p.splitting in ("zero", "scalar")
                   for p in self.probes
                   if not p.excluded and p.splitting is not None)

    @property
    def verdict(self) -> str:
        # The edge-localized pair cannot see bulk sites, so only the global
        # suite demands that bulk singles be excluded.
        ok = (all(self.algebra.values()) and self.sigma_all_excluded
              and self.symmetric_probes_harmless)
        if self.mode == "global":
            ok = ok and self.bulk_all_excluded
        return "protected" if ok else "not protected"


def default_probe_set(lattice: LatticeSpec) -> dict:
    """Singles on every site, cross-edge two-site products, and the 15
    forbidden products: the finite proxy for arbitrary quasi-local probes."""
    L = lattice.length
    probes = {}
    for j in range(1, L + 1):
        bit = 1 << (L - j)   # site 1 is the most significant bit
        probes[f"X{j}"] = OperatorSum(L, {(bit, 0): 1 + 0j})
        probes[f"Y{j}"] = OperatorSum(L, {(bit, bit): 1j})   # Y = i X Z
        probes[f"Z{j}"] = OperatorSum(L, {(0, bit): 1 + 0j})
    edge_sites = sorted({1, 2, L - 1, L})
    for ii, i in enumerate(edge_sites):
        for j in edge_sites[ii + 1:]:
            for a in _LETTERS:
                for b in _LETTERS:
                    probes[f"{a}{i}{b}{j}"] = OperatorSum.from_pauli(
                        PauliString.from_sites(L, {i: a, j: b}))
    return probes


def symmetry_pair_algebra(model: ModelSpec, tamper: str | None = None,
                          local_only: bool = False) -> tuple:
    """The protecting pair T_s = (A_s + B_s) / sqrt(2) and its algebra:
    returns (t1, t2, {identity name: holds}) for seven identities.

    `local_only` takes the edge-localized halves (open chains of >= 4 sites)
    instead of the extensive ones; `tamper` swaps one extensive half for its
    literal printed form so the failure path can be exercised.
    """
    lattice = model.lattice
    L = lattice.length
    reg = model.registry
    if local_only:
        if tamper is not None:
            raise DomainError("tamper targets the extensive symmetry forms")
        if not (lattice.is_open and L >= 4):
            raise DomainError(
                "edge-localized audit needs an open chain with >= 4 sites")
        p1 = local_symmetry_pair(1, lattice)
        p2 = local_symmetry_pair(2, lattice)
        halves = {"A1": OperatorSum.from_pauli(p1[0]),
                  "B1": OperatorSum.from_pauli(p1[1]),
                  "A2": OperatorSum.from_pauli(p2[0]),
                  "B2": OperatorSum.from_pauli(p2[1])}
    else:
        if not lattice.supports_global_symmetry():
            raise DomainError(
                "the extensive symmetry pair needs an open chain with length "
                "in {9,15,21,...}")
        halves = {name: reg[name] for name in ("A1", "B1", "A2", "B2")}
        if tamper is not None:
            if tamper not in halves:
                raise DomainError("tamper target must be one of A1,B1,A2,B2")
            halves[tamper] = OperatorSum.from_pauli(
                printed_global_string(tamper, lattice))
    sqrt2 = np.sqrt(2.0)
    t1 = (halves["A1"] + halves["B1"]) / sqrt2
    t2 = (halves["A2"] + halves["B2"]) / sqrt2

    h = reg["H_C"]
    ident = OperatorSum.identity(L)
    algebra = {
        "t1_commutes_h": commutes(h, t1),
        "t2_commutes_h": commutes(h, t2),
        "t1_squares_to_identity": (t1 @ t1).allclose(ident),
        "t2_squares_to_identity": (t2 @ t2).allclose(ident),
        "a1_b1_anticommute": anticommutes(halves["A1"], halves["B1"]),
        "a2_b2_anticommute": anticommutes(halves["A2"], halves["B2"]),
        "t1_t2_commute": commutes(t1, t2),
    }
    return t1, t2, algebra


def certify_protection(model, probes: dict | None = None,
                       numeric: bool = True,
                       rng=None, max_probes: int | None = None,
                       tamper: str | None = None,
                       local_only: bool = False) -> ProtectionReport:
    """Audit every probe against a protecting symmetry pair.

    Symbolic part: commutation of each probe with H and with each T_s, and
    the symmetry algebra itself (symmetry_pair_algebra, which also reads
    `tamper` and `local_only`).  Numeric part (dense sizes only): the
    first-order splitting matrix of each probe over the fourfold ground
    space, all from one engine.splitting_matrices call on the stacked
    ground basis, straight off the mask kernel with no matrix built.
    """
    if max_probes is not None and max_probes < 0:
        raise DomainError(
            f"max_probes must be non-negative, got {max_probes}")
    if isinstance(model, LatticeSpec):
        model = build_model(model)
    lattice = model.lattice
    L = lattice.length
    h = model.registry["H_C"]
    t1, t2, algebra = symmetry_pair_algebra(model, tamper, local_only)

    if probes is None:
        probes = default_probe_set(lattice)
    probes = dict(probes)
    for name, op in model.registry.items():
        if name.startswith("Sigma_"):
            probes[name] = op
    if max_probes is not None and len(probes) > max_probes:
        rng = rng or np.random.default_rng(0)
        keep = {str(n) for n in
                rng.choice(sorted(probes), size=max_probes, replace=False)}
        keep |= {n for n in probes if n.startswith("Sigma_")}
        probes = {n: probes[n] for n in probes if n in keep}

    names = sorted(probes)
    numeric = numeric and L <= engine.DENSE_SITE_CAP
    splits = [None] * len(names)
    if numeric:
        splits = splitting_matrices(eig_low(h, count=6).ground_basis,
                                    [probes[name] for name in names])

    verdicts = []
    for name, m in zip(names, splits):
        op = probes[name]
        sites = op.supports()
        bulk_local = (len(sites) == 1
                      and all(2 <= s <= L - 1 for s in sites))
        verdicts.append(ProbeVerdict(
            name=name,
            commutes_with_h=commutes(h, op),
            commutes_with_t1=commutes(t1, op),
            commutes_with_t2=commutes(t2, op),
            is_bulk_local=bulk_local,
            is_forbidden=name.startswith("Sigma_"),
            splitting=None if m is None else splitting_class(m),
            splitting_norm=None if m is None else float(np.linalg.norm(m)),
        ))

    per_s = {}
    if not local_only:
        per_s = {
            1: all(not v.commutes_with_t1 for v in verdicts
                   if v.is_bulk_local),
            2: all(not v.commutes_with_t2 for v in verdicts
                   if v.is_bulk_local),
        }

    return ProtectionReport(
        lattice=lattice,
        probes=tuple(verdicts),
        algebra=algebra,
        per_s_bulk=per_s,
        numeric_splitting=numeric,
        cross_checks=() if local_only else tuple(cross_check_global(lattice)),
        mode="local" if local_only else "global",
    )


def string_order_operator(lattice: LatticeSpec, a: int, b: int) -> OperatorSum:
    """Z_{a-1} X_a X_{a+2} ... X_b Z_{b+1}: the telescoped product of
    alternating stabilizers, equal to 1 identically on the reference state."""
    L = lattice.length
    if not (2 <= a <= b <= L - 1):
        raise DomainError(f"string endpoints need 2 <= a <= b <= {L - 1}")
    if (b - a) % 2:
        raise DomainError("string endpoints must have even separation")
    letters = {a - 1: "Z", b + 1: "Z"}
    letters.update({j: "X" for j in range(a, b + 1, 2)})
    return OperatorSum.from_pauli(PauliString.from_sites(L, letters))


def string_order(psi: StateVector, a: int, b: int,
                 lattice: LatticeSpec | None = None) -> float:
    """Expectation of the nonlocal string between sites a and b."""
    lattice = lattice or LatticeSpec(psi.length, "open")
    return _real_string(expectation(psi, string_order_operator(lattice, a, b)))


def _real_string(val: complex) -> float:
    """A string-order expectation, which must come out real."""
    if abs(val.imag) > 1e-9:
        raise DomainError(f"string order came out complex: {val}")
    return float(val.real)


def longest_string_sites(L: int) -> tuple:
    """The longest valid (a, b) for string_order on an L-site chain."""
    a = 2
    b = L - 1 if (L - 1 - a) % 2 == 0 else L - 2
    return a, b


@dataclass(frozen=True)
class ScanResult:
    """Per-coupling observables of the perturbed model over a grid.

    gap is the raw first excitation energy; gap_sector tracks the lowest
    excitation in the ground state's parity sector (resolved inside exact
    degeneracies).  crossings lists detected changes of the first excitation's
    (multiplicity, parity) signature, the finite-size witness that a distinct
    branch has descended through the spectrum.
    """

    lattice: LatticeSpec
    grid: np.ndarray
    energy: np.ndarray
    gap: np.ndarray
    gap_sector: np.ndarray
    string_order: np.ndarray
    yy_correlator: np.ndarray
    parity_expectation: np.ndarray
    gs_parity: np.ndarray
    exc_multiplicity: np.ndarray
    exc_parities: tuple
    crossings: tuple
    parity_commutes: bool
    time_reversal_real: bool
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_gap_series(cls, grid, gap,
                        lattice: LatticeSpec | None = None) -> "ScanResult":
        """Minimal scan carrying only a gap curve (for estimation utilities)."""
        grid = np.asarray(grid, dtype=float)
        gap = np.asarray(gap, dtype=float)
        if grid.shape != gap.shape:
            raise DomainError("grid and gap must have matching shapes")
        _check_grid(grid)
        nan = np.full_like(grid, np.nan)
        return cls(lattice=lattice or LatticeSpec(3, "open"),
                   grid=grid, energy=nan, gap=gap, gap_sector=nan.copy(),
                   string_order=nan.copy(), yy_correlator=nan.copy(),
                   parity_expectation=nan.copy(), gs_parity=nan.copy(),
                   exc_multiplicity=np.zeros_like(grid, dtype=int),
                   exc_parities=tuple(() for _ in grid), crossings=(),
                   parity_commutes=True, time_reversal_real=True)

    def rows(self):
        """Per-coupling dict rows, CSV and JSON friendly."""
        out = []
        crossing_lams = {c["lam"] for c in self.crossings
                         if c.get("kind") == "collision"}
        for i, lam in enumerate(self.grid):
            row = {
                "lam": float(lam),
                "energy": float(self.energy[i]),
                "gap": float(self.gap[i]),
                "gap_sector": float(self.gap_sector[i]),
                "string_order": float(self.string_order[i]),
                "yy_correlator": float(self.yy_correlator[i]),
                "parity_expectation": float(self.parity_expectation[i]),
                "gs_parity": float(self.gs_parity[i]),
                "exc_multiplicity": int(self.exc_multiplicity[i]),
                "level_collision": bool(lam in crossing_lams),
            }
            for name, arr in self.extras.items():
                row[name] = float(arr[i])
            out.append(row)
        return out


def _check_grid(grid: np.ndarray):
    if grid.size == 0:
        raise DomainError("empty coupling grid")
    if not np.all(np.isfinite(grid)):
        raise DomainError("coupling grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("coupling grid must be strictly increasing")


def phase_scan(lattice: LatticeSpec, lam_grid, probes: dict | None = None,
               method: str = "auto", eig_count: int = 12,
               sector_atol: float = 1e-8) -> ScanResult:
    """Scan the perturbed model H_C + lam * H_I over a coupling grid.

    Per coupling: low spectrum, raw and parity-tracked gaps, string order,
    nearest-neighbour YY correlator and parity expectation in the ground
    state.  Once per scan, a symbolic audit that the spin-flip parity
    commutes with the Hamiltonian and that its matrix stays real
    (time-reversal witness); by linearity it covers H_C, and H_I when some
    coupling is nonzero.  Both paths solve H_C + lam * H_I as an OperatorSum
    keeps it, a |lam| <= COEFF_TOL counting as 0 (rows print the grid as
    given).  Up to the dense size cap (method auto or dense) H_C and H_I are
    projected once into the translation x spin-flip sectors and every
    coupling is a set of small dense solves (sector_low); otherwise each
    coupling is one Lanczos solve per spin-flip block (sector_lanczos).
    Either way the parity labels come by construction.  The matrices of the
    string order, H_I and probes are built once, after the first solve, so
    a size over its memory budget (project_sectors' or sector_lanczos')
    fails first; each coupling then takes one matrix-vector product per
    observable and reads the parity off the ground state's label.  Scan
    points are independent, assembled in grid order.
    """
    grid = np.asarray(lam_grid, dtype=float)
    _check_grid(grid)
    if int(eig_count) < 1:
        raise DomainError("count must be positive")
    if not (np.isfinite(sector_atol) and sector_atol > 0):
        raise DomainError(
            f"sector tolerance must be finite and positive, got {sector_atol}")
    L = lattice.length
    if method not in ("auto", "dense", "iterative"):
        raise DomainError(f"unknown method {method!r}")
    if method == "dense" and L > engine.DENSE_SITE_CAP:
        raise ResourceLimitError(
            f"dense diagonalization capped at {engine.DENSE_SITE_CAP} "
            f"sites, got {L}")
    count = int(min(eig_count, (1 << L) - 2))
    parity_op, _ = spin_flip_symmetries(lattice)
    a, b = longest_string_sites(L)
    so_op = string_order_operator(lattice, a, b)
    n_bonds = len(lattice.bonds())
    h_c = cluster_hamiltonian(lattice)
    yy_unit = ising_perturbation(lattice, 1.0)
    # the couplings h_c + lam * yy_unit keeps, the same on both paths
    couplings = np.where(np.abs(grid) > COEFF_TOL, grid, 0.0)
    parts = (h_c, yy_unit) if np.any(couplings != 0.0) else (h_c,)
    parity_ok = all(commutes(parity_op, op) for op in parts)
    treal_ok = all(engine.has_real_matrix(op) for op in parts)
    sectors = None
    if method in ("auto", "dense") and L <= engine.DENSE_SITE_CAP:
        sectors = engine.project_sectors((h_c, yy_unit), lattice.is_periodic)
        norm_c, norm_i = h_c.norm_bound(), yy_unit.norm_bound()

    probe_ops = {}
    if probes:
        for name, op in probes.items():
            if isinstance(op, str):
                op = OperatorSum.from_pauli(PauliString.from_compact(op, L))
            if op.length != L:
                raise LengthMismatchError(
                    f"probe {name!r} acts on {op.length} sites, not {L}")
            probe_ops[name] = op

    n = grid.size
    energy = np.zeros(n)
    gap = np.zeros(n)
    gap_sector = np.full(n, np.nan)
    so = np.zeros(n)
    yy = np.zeros(n)
    par = np.zeros(n)
    gsp = np.zeros(n)
    mult = np.zeros(n, dtype=int)
    exc_parities = []
    extras = {name: np.zeros(n) for name in probe_ops}

    for i, lam in enumerate(couplings):
        if sectors is not None:
            vals, labels, states, _ = engine.sector_low(
                sectors, (1.0, lam), count, norm_c + abs(lam) * norm_i,
                atol=sector_atol)
        else:
            vals, labels, states, _ = engine.sector_lanczos(
                h_c + float(lam) * yy_unit, count, atol=sector_atol)
        if i == 0:
            so_mat, yy_mat = map(engine.operator_matrix, (so_op, yy_unit))
            probe_mats = {name: engine.operator_matrix(op)
                          for name, op in probe_ops.items()}
        gs = states[0]

        energy[i] = vals[0]
        g = float(vals[1] - vals[0]) if vals.size > 1 else np.nan
        if g < -1e-9:
            raise DomainError(f"negative gap {g} at coupling {grid[i]}")
        gap[i] = max(g, 0.0)

        p0 = round(float(labels[0]))
        gsp[i] = p0
        # the trailing degenerate cluster may be cut by the eigenvalue
        # window, in which case its parity labels are unreliable; trust only
        # states strictly below the last computed level
        trusted = vals < vals[-1] - sector_atol
        same = [k for k in range(1, vals.size)
                if trusted[k] and round(float(labels[k])) == p0]
        if same:
            gap_sector[i] = max(float(vals[same[0]] - vals[0]), 0.0)

        if vals.size > 1:
            cluster = [k for k in range(1, vals.size)
                       if vals[k] - vals[1] <= sector_atol]
            mult[i] = len(cluster)
            exc_parities.append(
                tuple(sorted(round(float(labels[k])) for k in cluster)))
        else:
            mult[i] = 0
            exc_parities.append(())

        amps = gs.amps
        so[i] = _real_string(np.vdot(amps, so_mat @ amps))
        yy[i] = np.vdot(amps, yy_mat @ amps).real / n_bonds
        # <gs|P|gs>: the ground state's sector parity p
        par[i] = labels[0]
        for name, m in probe_mats.items():
            extras[name][i] = np.vdot(amps, m @ amps).real

    crossings = _detect_crossings(grid, mult, exc_parities)

    return ScanResult(
        lattice=lattice, grid=grid, energy=energy, gap=gap,
        gap_sector=gap_sector, string_order=so, yy_correlator=yy,
        parity_expectation=par, gs_parity=gsp,
        exc_multiplicity=mult, exc_parities=tuple(exc_parities),
        crossings=tuple(crossings), parity_commutes=parity_ok,
        time_reversal_real=treal_ok, extras=extras)


def _detect_crossings(grid, mult, parities):
    """Find couplings where the first excitation changes identity.

    A grid point whose degeneracy exceeds both neighbours is an exact
    collision (branches meet at that coupling); other signature changes are
    located at interval midpoints.
    """
    n = grid.size
    sig = [(int(mult[i]), parities[i]) for i in range(n)]
    out = []
    i = 1
    while i < n:
        if sig[i] == sig[i - 1]:
            i += 1
            continue
        if (i + 1 < n and mult[i] > mult[i - 1] and mult[i] > mult[i + 1]
                and sig[i + 1] != sig[i]):
            out.append({"lam": float(grid[i]), "kind": "collision",
                        "multiplicity": int(mult[i])})
            i += 2
        else:
            out.append({"lam": float(0.5 * (grid[i - 1] + grid[i])),
                        "kind": "interval",
                        "between": (float(grid[i - 1]), float(grid[i]))})
            i += 1
    return out


@dataclass(frozen=True)
class TransitionEstimate:
    value: float
    method: str          # level-crossing | interior-minimum | boundary
    boundary: bool
    gap_used: str        # sector | raw

    def __float__(self):
        return self.value


def transition_estimate(scan: ScanResult) -> TransitionEstimate:
    """Estimate the transition coupling from a scan.

    An interior level crossing of the first excitation wins outright: it is
    an exact finite-size nonanalyticity.  Otherwise the tracked (sector) gap
    curve is interpolated parabolically around its interior minimum; a
    minimum on the grid edge is reported as a boundary estimate with a flag,
    never interpolated.
    """
    grid = scan.grid
    interior = [c for c in scan.crossings
                if grid[0] < c["lam"] < grid[-1]]
    if interior:
        best = next((c for c in interior if c["kind"] == "collision"),
                    interior[0])
        return TransitionEstimate(value=float(best["lam"]),
                                  method="level-crossing", boundary=False,
                                  gap_used="sector")

    if np.all(np.isfinite(scan.gap_sector)):
        series, used = scan.gap_sector, "sector"
    else:
        series, used = scan.gap, "raw"
    if grid.size < 5:
        raise DomainError(
            "transition estimate needs at least 5 grid points")
    i = int(np.argmin(series))
    if i == 0 or i == grid.size - 1:
        return TransitionEstimate(value=float(grid[i]), method="boundary",
                                  boundary=True, gap_used=used)
    x0, x1, x2 = grid[i - 1:i + 2]
    y0, y1, y2 = series[i - 1:i + 2]
    denom = y0 - 2.0 * y1 + y2
    if abs(denom) < 1e-300:
        vertex = float(x1)
    else:
        vertex = float(x1 + 0.5 * (x2 - x1) * (y0 - y2) / denom)
    return TransitionEstimate(value=vertex, method="interior-minimum",
                              boundary=False, gap_used=used)

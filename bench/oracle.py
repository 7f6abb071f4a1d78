"""Independent references for every benchmark operation.

Nothing here imports clusterspt.  Operators are rebuilt from their Pauli
bit masks (site 1 is the most significant bit), and spectra come from an
exact free-fermion solution: under the Jordan-Wigner map with X as the
occupation axis, a_j = X_1..X_{j-1} Z_j and b_j = X_1..X_{j-1} Y_j, both
Z_{j-1} X_j Z_{j+1} and Y_j Y_{j+1} are Majorana bilinears, so
H(lam) = (i/4) g^T A g for a real antisymmetric 2L x 2L matrix A.  On a
ring the wrap-around terms carry the spin-flip parity P = X_1..X_L, so each
parity sector p has its own matrix A_p and keeps only the many-body states
of parity p.  The cost is O(L^3) per coupling, against O(8^L) for a dense
solve, so references never compete with the program for time or memory.
The audits (`protect`, `verify`) are recomputed with a separate operator-sum
algebra on the same masks, from the model's defining patterns.

    python3 bench/oracle.py    # checks the references against dense ED
"""

from __future__ import annotations

import heapq
import math
import re

import numpy as np
import scipy.linalg

# Same clustering rule as the program's documented contract: levels within
# rtol * max(1, |E0|) of a level belong to its multiplet.
CLUSTER_RTOL = 1e-8
# Every reported eigenvalue must agree with the reference to 1e-10.  Reports
# carry 12 significant digits, a rounding below 5e-11 for |E| < 100.
EIG_ATOL = 1e-10
# Default `scan --tol`: absolute width of the first-excitation multiplet.
SCAN_TOL = 1e-8


# -- Pauli strings as (phase exponent k, x mask, z mask): i^k X^x Z^z -------

def _bit(L, site):
    return 1 << (L - site)


def pauli(L, letters):
    """String from {site: letter}; Y = i X Z."""
    k = x = z = 0
    for site, ch in letters.items():
        b = _bit(L, site)
        if ch in "XY":
            x |= b
        if ch in "ZY":
            z |= b
        if ch == "Y":
            k += 1
    return (k % 4, x, z)


def mul(p, q):
    """Product of strings: the phases add, and moving Z^z1 past X^x2 costs
    (-1)^popcount(z1 & x2)."""
    k = p[0] + q[0] + 2 * bin(p[2] & q[1]).count("1")
    return (k % 4, p[1] ^ q[1], p[2] ^ q[2])


def parse_compact(name, L):
    """'X5' or 'Z1X2' -> string (letter then 1-based site)."""
    return pauli(L, {int(s): ch for ch, s in re.findall(r"([XYZ])(\d+)", name)})


def hamiltonian_terms(L, periodic, lam):
    """(coefficient, string) pairs of H = -sum ZXZ + lam sum YY."""
    terms = []
    centres = range(1, L + 1) if periodic else range(2, L)
    for i in centres:
        left, right = (i - 2) % L + 1, i % L + 1
        terms.append((-1.0, pauli(L, {left: "Z", i: "X", right: "Z"})))
    bonds = [(i, i + 1) for i in range(1, L)] + ([(L, 1)] if periodic else [])
    if lam != 0.0:
        for i, j in bonds:
            terms.append((lam, pauli(L, {i: "Y", j: "Y"})))
    return terms


# -- free-fermion spectrum -------------------------------------------------

def _majoranas(L):
    out = []
    for j in range(1, L + 1):
        string = (0, sum(_bit(L, l) for l in range(1, j)), 0)
        out.append(mul(string, pauli(L, {j: "Z"})))
        out.append(mul(string, pauli(L, {j: "Y"})))
    return out


def _bilinear_table(L):
    """masks -> (m, n, s, phase) with P^s g_m g_n = i^phase X^x Z^z."""
    gam = _majoranas(L)
    parity = (0, (1 << L) - 1, 0)
    table = {}
    for m in range(2 * L):
        for n in range(m + 1, 2 * L):
            prod = mul(gam[m], gam[n])
            for s, op in ((0, prod), (1, mul(parity, prod))):
                table[(op[1], op[2])] = (m, n, s, op[0])
    return table


def _quadratic_form(L, terms, p):
    """A_p with H = (i/4) g^T A_p g inside the parity-p sector."""
    table = _bilinear_table(L)
    A = np.zeros((2 * L, 2 * L))
    for c, (k, x, z) in terms:
        m, n, s, k0 = table[(x, z)]
        # term = c i^(k-k0) P^s g_m g_n = -i C g_m g_n with C real
        C = (1j * c * (1j ** ((k - k0) % 4)) * (p if s else 1))
        if abs(C.imag) > 1e-12:
            raise ValueError("term is not a Hermitian Majorana bilinear")
        A[m, n] -= 2 * C.real
        A[n, m] += 2 * C.real
    return A


def _pfaffian_sign(A):
    T, Z = scipy.linalg.schur(A, output="real")
    sign = np.sign(np.linalg.det(Z))
    i = 0
    while i < A.shape[0]:
        if i + 1 < A.shape[0] and abs(T[i + 1, i]) > 1e-300:
            sign *= np.sign(T[i, i + 1])
            i += 2
        else:
            return 1.0  # exact zero mode: both parities are degenerate
    return float(sign) or 1.0


def _lowest_subset_sums(eps, count, want_parity):
    """Lowest `count` sums over subsets S of eps with (-1)^|S| = want_parity
    (None: any), in ascending order, as (sum, (-1)^|S|)."""
    e = sorted(eps)
    out = []
    if want_parity in (None, 1):
        out.append((0.0, 1))
    heap = [(e[0], 0, -1)] if e else []
    while heap and len(out) < count:
        total, last, par = heapq.heappop(heap)
        if want_parity is None or par == want_parity:
            out.append((total, par))
        if last + 1 < len(e):
            heapq.heappush(heap, (total + e[last + 1], last + 1, -par))
            heapq.heappush(heap, (total - e[last] + e[last + 1], last + 1, par))
    return out


def spectrum(L, periodic, lam, count=64):
    """Lowest `count` levels as an ascending list of (energy, P label)."""
    terms = hamiltonian_terms(L, periodic, lam)
    levels = []
    for p in ((1, -1) if periodic else (None,)):
        A = _quadratic_form(L, terms, p if p is not None else 1)
        eps = np.linalg.eigvalsh(1j * A)[L:]
        eps = np.clip(eps, 0.0, None)
        vacuum = (-1) ** L * _pfaffian_sign(A)
        want = None if p is None else p * vacuum
        for total, par in _lowest_subset_sums(eps, count, want):
            levels.append((float(-0.5 * eps.sum() + total), int(vacuum * par)))
    levels.sort()
    return levels[:count]


def multiplet(energies, start=0, width=None):
    """Size of the multiplet beginning at energies[start]; by default the
    width is the degeneracy rule of eig_low, rtol * max(1, |E|)."""
    if width is None:
        width = CLUSTER_RTOL * max(1.0, abs(energies[start]))
    return sum(1 for e in energies[start:] if e - energies[start] <= width)


def close(a, b):
    return a is not None and abs(a - b) <= EIG_ATOL


# -- checks per operation kind ---------------------------------------------
# Each returns a list of problems (empty when the output is right) plus the
# quality counts the benchmark aggregates.

class Oracle:
    """Caches spectra per (L, boundary, lambda) for one benchmark process."""

    def __init__(self):
        self._spectra = {}
        self._audits = {}
        self._probes = {}

    def levels(self, L, periodic, lam):
        key = (L, periodic, round(lam, 12))
        if key not in self._spectra:
            self._spectra[key] = spectrum(L, periodic, lam)
        return self._spectra[key]

    def audit(self, L, tamper, local):
        """(H_C, T1, T2, failing identities) of one audit configuration."""
        key = (L, tamper, local)
        if key not in self._audits:
            h, halves = _audit_operators(L, tamper, local)
            t1, t2 = _symmetry_pair(halves)
            self._audits[key] = (h, t1, t2, _failing_identities(h, halves))
        return self._audits[key]

    def probe(self, L, tamper, local, name):
        """Expected flags of one probe row in an audit report."""
        key = (L, tamper, local, name)
        if key not in self._probes:
            if name.startswith("Sigma_"):
                # products of edge generators: commute with H, and the
                # protecting pair must exclude every one of them
                want = {"forbidden": True, "excluded": True,
                        "commutes_with_h": True, "bulk_local": False}
            else:
                h, t1, t2, _ = self.audit(L, tamper, local)
                p = op_sum((1.0, parse_compact(name, L)))
                sites = re.findall(r"\d+", name)
                c1 = is_zero(commutator(t1, p))
                c2 = is_zero(commutator(t2, p))
                want = {"forbidden": False,
                        "commutes_with_h": is_zero(commutator(h, p)),
                        "commutes_with_t1": c1, "commutes_with_t2": c2,
                        "excluded": not (c1 and c2),
                        "bulk_local": len(sites) == 1
                        and 2 <= int(sites[0]) <= L - 1}
            self._probes[key] = want
        return self._probes[key]

    def check(self, op, rc, payload):
        kind = op["kind"]
        if kind == "scan":
            return self._check_scan(op, rc, payload)
        if kind == "spectrum":
            return self._check_spectrum(op, rc, payload)
        if kind == "protect":
            return self._check_protect(op, rc, payload)
        return self._check_verify(op, rc, payload)

    # scan: every grid point against the parity-resolved spectrum
    def _check_scan(self, op, rc, out):
        bad, quality = [], {"scan_points": 0, "null_sector_gaps": 0}
        if rc != 0 or out["verdict"] != "pass":
            return [f"exit {rc}, verdict {out['verdict']}"], quality
        res = out["results"]
        rows = res["rows"]
        if len(rows) != len(op["grid"]):
            bad.append(f"{len(rows)} rows for {len(op['grid'])} couplings")
        window = min(12, (1 << op["L"]) - 2)
        for row, lam in zip(rows, op["grid"]):
            quality["scan_points"] += 1
            lv = self.levels(op["L"], True, lam)
            e = [x for x, _ in lv]
            if abs(row["lam"] - lam) > 1e-9:
                bad.append(f"row lambda {row['lam']} != {lam}")
            if not close(row["energy"], e[0]):
                bad.append(f"lam {lam}: E0 {row['energy']} != {e[0]}")
            if not close(row["gap"], max(e[1] - e[0], 0.0)):
                bad.append(f"lam {lam}: gap {row['gap']} != {e[1] - e[0]}")
            # the scan groups the first excitation with the absolute --tol
            full = multiplet(e, 1, SCAN_TOL)
            if not min(full, window - 1) <= row["exc_multiplicity"] <= full:
                bad.append(f"lam {lam}: excited multiplicity "
                           f"{row['exc_multiplicity']}, true {full}")
            if multiplet(e, 0) == 1:
                p0 = lv[0][1]
                if row["gs_parity"] != p0:
                    bad.append(f"lam {lam}: ground parity {row['gs_parity']}")
                same = [x for x, par in lv[1:] if par == p0]
                if row["gap_sector"] is None:
                    quality["null_sector_gaps"] += 1
                elif not close(row["gap_sector"], same[0] - e[0]):
                    bad.append(f"lam {lam}: sector gap {row['gap_sector']} "
                               f"!= {same[0] - e[0]}")
            elif row["gap_sector"] is None:
                quality["null_sector_gaps"] += 1
        trans = res["transition"]
        if (trans is None) != (len(op["grid"]) < 5):
            bad.append("transition estimate present iff >= 5 couplings")
        elif trans is not None and not (
                op["grid"][0] <= trans["value"] <= op["grid"][-1]):
            bad.append(f"transition {trans['value']} outside the grid")
        return bad, quality

    # spectrum: every eigenvalue is a true level; ground level exact
    def _check_spectrum(self, op, rc, out):
        quality = {"solves": 1, "window_exact": 0}
        if rc != 0 or out["verdict"] != "pass":
            return [f"exit {rc}, verdict {out['verdict']}"], quality
        res = out["results"]
        vals = res["eigenvalues"]
        e = [x for x, _ in self.levels(op["L"], op["periodic"], op["lam"])]
        bad = []
        if len(vals) != op["count"] or res["method"] != "iterative":
            bad.append(f"{len(vals)} eigenvalues by {res['method']}")
        for v in vals:
            if not any(close(v, ref) for ref in e):
                bad.append(f"{v} is not an eigenvalue")
        if not close(res["ground_energy"], e[0]):
            bad.append(f"E0 {res['ground_energy']} != {e[0]}")
        want = min(multiplet(e, 0), op["count"])
        if res["ground_degeneracy"] != want:
            bad.append(f"ground multiplicity {res['ground_degeneracy']} "
                       f"!= {want}")
        if len(vals) == op["count"] and all(
                close(v, ref) for v, ref in zip(vals, e)):
            quality["window_exact"] = 1
        return bad, quality

    # protect: verdict per kind, and each probe's commutation recomputed
    def _check_protect(self, op, rc, out):
        res = out["results"]
        L, tamper, local = op["L"], op.get("tamper"), op.get("local", False)
        fails = self.audit(L, tamper, local)[3]
        want_rc = 1 if fails else 0
        bad = []
        if rc != want_rc:
            bad.append(f"exit {rc}, expected {want_rc}")
        if res["verdict"] != ("not protected" if fails else "protected"):
            bad.append(f"verdict {res['verdict']}")
        failed = {k for k, v in res["algebra"].items() if not v}
        if failed != fails:
            bad.append(f"failing identities {sorted(failed)}, "
                       f"expected {sorted(fails)}")
        if res["mode"] != ("local" if local else "global"):
            bad.append(f"mode {res['mode']}")
        if not local and res["cross_check_mismatches"] != ["B2"]:
            bad.append(f"cross-check mismatches "
                       f"{res['cross_check_mismatches']}")
        sigma = [r for r in res["probes"] if r["probe"].startswith("Sigma_")]
        if len(sigma) != 15:
            bad.append(f"{len(sigma)} forbidden operators, expected 15")
        others = len(res["probes"]) - len(sigma)
        if op.get("max_probes") is not None and others > op["max_probes"]:
            bad.append(f"{others} probes above --max-probes")
        for r in res["probes"]:
            name = r["probe"]
            want = self.probe(L, tamper, local, name)
            got = {k: r[k] for k in want}
            if got != want:
                bad.append(f"probe {name}: {got} != {want}")
            if op.get("numeric") and not r["excluded"] and \
                    r["splitting"] not in ("zero", "scalar"):
                bad.append(f"symmetric probe {name} splits: {r['splitting']}")
        return bad, {}

    # verify: algebra suite, numeric ground level against the reference
    def _check_verify(self, op, rc, out):
        res = out["results"]
        fails = self.audit(op["L"], op.get("tamper"), False)[3]
        want_rc = 1 if fails else 0
        bad = []
        if rc != want_rc or out["verdict"] != ("fail" if fails else "pass"):
            bad.append(f"exit {rc}, verdict {out['verdict']}")
        checks = {c["name"]: c for c in res["checks"]}
        if not all(c["passed"] for c in checks.values()):
            bad.append(f"failed checks {sorted(checks)}")
        if op.get("numeric"):
            e = [x for x, _ in self.levels(op["L"], False, 0.0)]
            m = re.search(r"E0 = (\S+),", checks["ground-energy"]["detail"])
            d = re.search(r"degeneracy (\d+),",
                          checks["ground-degeneracy"]["detail"])
            if not (m and close(float(m.group(1)), e[0])):
                bad.append(f"ground energy {checks['ground-energy']['detail']}")
            if not (d and int(d.group(1)) == multiplet(e, 0)):
                bad.append(checks["ground-degeneracy"]["detail"])
        sym = res["global_symmetry"]
        failed = {k for k, v in sym["algebra"].items() if not v}
        if failed != fails:
            bad.append(f"failing identities {sorted(failed)}, "
                       f"expected {sorted(fails)}")
        mism = [c["name"] for c in sym["cross_checks"] if not c["matches"]]
        if mism != ["B2"]:
            bad.append(f"cross-check mismatches {mism}")
        return bad, {}


# -- operator sums: {(x, z): c} meaning sum c X^x Z^z ------------------------

def op_sum(*terms):
    acc = {}
    for c, (k, x, z) in terms:
        acc[(x, z)] = acc.get((x, z), 0j) + c * 1j ** k
    return acc


def compose(a, b):
    acc = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            sign = -1 if bin(z1 & x2).count("1") % 2 else 1
            key = (x1 ^ x2, z1 ^ z2)
            acc[key] = acc.get(key, 0j) + sign * c1 * c2
    return acc


def combine(a, b, sign=1):
    acc = dict(a)
    for k, c in b.items():
        acc[k] = acc.get(k, 0j) + sign * c
    return acc


def commutator(a, b):
    return combine(compose(a, b), compose(b, a), -1)


def is_zero(a, tol=1e-10):
    return all(abs(c) <= tol for c in a.values())


# Canonical conjugated-basis patterns of the global halves (L = 6m + 3) and
# the literal printed products, as given with the model.
def _tau_patterns(L):
    m = (L - 3) // 6
    return {"A1": "XXXXII" * m + "XXY",
            "B1": "ZIXXXX" + "IIXXXX" * (m - 1) + "IIY",
            "A2": "IXXXXI" * m + "IXY",
            "B2": "YIIXXX" + "XIIXXX" * (m - 1) + "XIZ"}


_PRINTED = {"A1": ("YXXYZZ", "YXX"), "B1": ("ZZYXXY", "ZZY"),
            "A2": ("ZYXXYZ", "ZYX"), "B2": ("YZXYXX", "YZZ")}


def _letters(text):
    return pauli(len(text), {j: ch for j, ch in enumerate(text, 1)
                             if ch != "I"})


def _cz_chain(p, L):
    """U p U^dagger for U the CZ gates on every open-chain bond: each X_s
    picks up Z on the neighbours of s, Z letters are fixed."""
    k, x, z = p
    out = (k, 0, 0)
    for s in range(1, L + 1):
        if x & _bit(L, s):
            nbrs = {t: "Z" for t in (s - 1, s + 1) if 1 <= t <= L}
            out = mul(out, mul(pauli(L, {s: "X"}), pauli(L, nbrs)))
    return mul(out, (0, 0, z))


def _audit_operators(L, tamper, local):
    """H_C and the halves {A1, B1, A2, B2} an audit checks against."""
    h = op_sum(*hamiltonian_terms(L, False, 0.0))
    if local:
        halves = {"A1": pauli(L, {1: "X", 2: "Z", L - 1: "Z", L: "Y"}),
                  "B1": pauli(L, {1: "Z", L - 1: "Z", L: "Y"}),
                  "A2": pauli(L, {L - 1: "Z", L: "Y"}),
                  "B2": pauli(L, {1: "Y", 2: "Z", L: "Z"})}
    else:
        pats = _tau_patterns(L)
        halves = {n: _cz_chain(_letters(pats[n]), L) for n in pats}
        if tamper:
            block, tail = _PRINTED[tamper]
            halves[tamper] = _letters(block * ((L - 3) // 6) + tail)
    return h, {n: op_sum((1.0, p)) for n, p in halves.items()}


def _symmetry_pair(halves):
    r = 1 / math.sqrt(2.0)
    return (combine({k: r * c for k, c in halves["A1"].items()},
                    {k: r * c for k, c in halves["B1"].items()}),
            combine({k: r * c for k, c in halves["A2"].items()},
                    {k: r * c for k, c in halves["B2"].items()}))


def _failing_identities(h, halves):
    """Names of the seven symmetry-algebra identities that do not hold."""
    t1, t2 = _symmetry_pair(halves)
    ident = {(0, 0): 1.0}

    def anti(a, b):
        return combine(compose(a, b), compose(b, a))

    holds = {
        "t1_commutes_h": is_zero(commutator(h, t1)),
        "t2_commutes_h": is_zero(commutator(h, t2)),
        "t1_squares_to_identity": is_zero(combine(compose(t1, t1), ident, -1)),
        "t2_squares_to_identity": is_zero(combine(compose(t2, t2), ident, -1)),
        "a1_b1_anticommute": is_zero(anti(halves["A1"], halves["B1"])),
        "a2_b2_anticommute": is_zero(anti(halves["A2"], halves["B2"])),
        "t1_t2_commute": is_zero(commutator(t1, t2)),
    }
    return {name for name, ok in holds.items() if not ok}


def dense_levels(L, periodic, lam):
    """Dense spectrum of each spin-flip sector, {+1: levels, -1: levels}, for
    validating the free-fermion solution at small sizes
    (python3 bench/oracle.py)."""
    dim = 1 << L
    idx = np.arange(dim)
    H = np.zeros((dim, dim), dtype=complex)
    for c, (k, x, z) in hamiltonian_terms(L, periodic, lam):
        sign = 1 - 2 * (np.array([bin(v).count("1") for v in idx & z]) & 1)
        H[idx ^ x, idx] += c * (1j ** k) * sign
    reps = idx[: dim // 2]
    same, flipped = H[np.ix_(reps, reps)], H[np.ix_(reps, reps ^ (dim - 1))]
    return {s: np.linalg.eigvalsh(same + s * flipped) for s in (1, -1)}


if __name__ == "__main__":
    worst = 0.0
    for L in range(3, 11):
        for periodic in (False, True):
            for lam in (0.0, 0.3, 0.5, 1.0, 1.3):
                want = dense_levels(L, periodic, lam)
                ref = spectrum(L, periodic, lam, count=1 << L)
                for s in (1, -1):
                    got = np.array(sorted(x for x, p in ref if p == s))
                    if got.shape != want[s].shape:
                        raise SystemExit(f"sector {s} size differs: L={L} "
                                         f"periodic={periodic} lam={lam}")
                    worst = max(worst, float(np.max(np.abs(got - want[s]))))
    if worst > 1e-11:
        raise SystemExit(f"free-fermion spectra differ by {worst:.2e}")
    print(f"free-fermion spectra match dense ED in both spin-flip sectors "
          f"for L <= 10: max |dE| = {worst:.2e}")
    for L in (9, 15, 21):
        fails = _failing_identities(*_audit_operators(L, "B2", False))
        print(f"printed B2 at L = {L} breaks: {', '.join(sorted(fails))}")

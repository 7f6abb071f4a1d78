"""The three benchmark workloads as seeded cycles of CLI invocations.

Cycle i of a workload holds the same multiset of op classes (size, boundary,
grid length, coupling stratum, command variant) for every seed; the seed
only shuffles their order and draws the free parameters (couplings inside
their stratum, lattice sizes within a class, probe samples, tamper
targets).  Runs on different seeds therefore do the same amount of work,
which keeps the run-to-run spread of the end-to-end metrics small while the
inputs still change with the seed.
"""

from __future__ import annotations

GLOBAL_SIZES = (9, 15, 21)


def _scan(rng, L, n):
    """Periodic ring scan with n couplings on the 0.05 lattice in [0.5, 1.5]."""
    steps = [s for s in (1, 2) if (n - 1) * s <= 20]
    step = rng.choice(steps)
    start = rng.randint(10, 30 - (n - 1) * step)
    grid = [round(0.05 * (start + step * i), 12) for i in range(n)]
    text = f"{0.05 * start:.2f}:{grid[-1]:.2f}:{0.05 * step:.2f}"
    return {"kind": "scan", "cls": f"scan-L{L}", "L": L, "grid": grid,
            "argv": ["scan", "--size", str(L), "--boundary", "periodic",
                     "--lambda", text]}


def ring_scan(rng, cycle):
    # One L = 12 point (~98% dense eigh) per cycle, about a quarter of the
    # cycle's time; the shorter L = 8/10 scans (>= 5 couplings, so
    # transition_estimate runs) make up the rest and give the latency
    # percentiles their samples.  Of 34 ops, the median falls in the middle
    # of the six 6-point L = 10 scans and the tail rank (the 11th slowest)
    # in the middle of the six 7-point ones, not on the edge between two
    # grid lengths.  More L = 12 points would make the run follow the
    # host's slow spells, which move a 4096 x 4096 eigensolve about twice
    # as much as a 1024 x 1024 one (see run.py).
    ops = [_scan(rng, 12, 1)]
    ops += [_scan(rng, 10, n) for n in (5, 5, 6, 6, 7, 7, 8, 8) * 3]
    ops += [_scan(rng, 8, n) for n in (5, 7, 9) * 3]
    rng.shuffle(ops)
    return ops


def _spectrum(rng, L, boundary, stratum):
    # the stratum midpoint, jittered by at most 0.005
    lam = round((stratum + 0.5 + rng.uniform(-0.02, 0.02)) * LAMBDA_STEP, 3)
    return {"kind": "spectrum", "cls": f"spectrum-L{L}", "L": L,
            "periodic": boundary == "periodic", "lam": lam, "count": 8,
            "argv": ["spectrum", "--size", str(L), "--boundary", boundary,
                     "--lambda", f"{lam:.3f}", "--method", "iterative",
                     "--count", "8"]}


# ARPACK's work depends strongly on the coupling (from ~200 to ~650 matvecs
# on an open L = 13 chain), and its start vector is random, so a single
# solve says little.  Each cycle therefore solves in five slots (sizes and
# boundaries), slot j of cycle i at coupling stratum (i + j) mod 5 of
# [0, 1.5]: five cycles give every slot every stratum once, so each block of
# five cycles does the same mix of sizes and couplings whatever the seed.
LAMBDA_STRATA = 5
LAMBDA_STEP = 1.5 / LAMBDA_STRATA


def lanczos_spectrum(rng, cycle):
    slots = [(12, "open"), (12, "periodic"), (13, "open"), (13, "periodic"),
             (14, ("open", "periodic")[cycle % 2])]
    ops = [_spectrum(rng, L, b, (cycle + j) % LAMBDA_STRATA)
           for j, (L, b) in enumerate(slots)]
    rng.shuffle(ops)
    return ops


def _protect(L, cls, *extra, **meta):
    return {"kind": "protect", "cls": cls, "L": L, **meta,
            "argv": ["protect", "--size", str(L), *extra]}


def _verify(L, cls, *extra, **meta):
    return {"kind": "verify", "cls": cls, "L": L, **meta,
            "argv": ["verify", "--size", str(L), "--global-symmetry", *extra]}


def protection_audit(rng, cycle):
    ops = [_protect(L, "protect-symbolic", "--symbolic-only")
           for L in GLOBAL_SIZES]
    for _ in range(2):
        n, seed = rng.randint(5, 60), rng.randint(0, 10 ** 6)
        ops.append(_protect(rng.choice(GLOBAL_SIZES), "protect-sampled",
                            "--symbolic-only", "--max-probes", str(n),
                            "--seed", str(seed), max_probes=n))
    ops.append(_protect(9, "protect-numeric", numeric=True))
    for _ in range(3):
        ops.append(_protect(rng.randint(4, 24), "protect-local",
                            "--local-only", "--symbolic-only", local=True))
    ops.append(_verify(9, "verify-numeric", numeric=True))
    ops.append(_verify(rng.choice(GLOBAL_SIZES[1:]), "verify-symbolic",
                       "--symbolic-only"))
    # B2 is the one printed half that is wrong, so it is in every cycle;
    # one of the three correct halves rides along.
    for target in ("B2", rng.choice(("A1", "B1", "A2"))):
        L = rng.choice(GLOBAL_SIZES)
        ops.append(_verify(L, "verify-tamper", "--tamper", target,
                           tamper=target, numeric=L <= 12))
        ops.append(_protect(rng.choice(GLOBAL_SIZES), "protect-tamper",
                            "--symbolic-only", "--tamper", target,
                            tamper=target))
    rng.shuffle(ops)
    return ops


# A block is the shortest run of whole cycles that does the same mix of
# work whatever the seed: (cycles per block, seconds per block at the
# baseline on a 2-core box with one BLAS thread).  A run does
# round(seconds / block seconds) blocks, at least one, so every run at one
# --seconds does the same ops in number and mix.  A ring-scan or
# lanczos-spectrum block is 26-29 s, so those runs measure at least that
# long.
BLOCKS = {
    "ring-scan": (1, 26.0),
    "lanczos-spectrum": (LAMBDA_STRATA, 29.0),
    "protection-audit": (30, 6.0),
}

WORKLOADS = {
    "ring-scan": ring_scan,
    "lanczos-spectrum": lanczos_spectrum,
    "protection-audit": protection_audit,
}

# Small ops of each kind a workload uses, run once in a fresh process before
# anything is timed: the first dense eigh or ARPACK call in a process pays a
# one-time cost that every CLI invocation also pays.  The warm-up coupling
# is nonzero because at lambda = 0 the open chain is massively degenerate.
WARMUP = {
    "ring-scan": [["scan", "--size", "8", "--lambda", "1.0:1.0:0.05"]],
    "lanczos-spectrum": [["spectrum", "--size", "10", "--lambda", "0.5",
                          "--method", "iterative", "--count", "8"]],
    "protection-audit": [["protect", "--size", "9"],
                         ["verify", "--size", "9", "--global-symmetry"]],
}

#!/usr/bin/env python3
"""Benchmark of the clusterspt command line, driven in-process.

    python3 bench/run.py --workload ring-scan --seed 1 --seconds 30 --trace 0

Each op is one `clusterspt.cli.main(argv)` call with its output captured and
checked against the independent references in oracle.py, outside the timed
region.  One process generates the load as a closed loop (the next op starts
when the previous one returns) with one BLAS thread: on a shared 2-core box
a second BLAS thread made the same L = 12 eigensolve take anywhere from 3.9
to 6.0 s, against 7.6-7.7 s single-threaded.  A run does a fixed number of
whole workload cycles (workloads.BLOCKS), about `--seconds` of op time at
the baseline and never less than one block.  Set-up time is measured in
fresh processes (see measure_setup).

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs every cycle once untraced and once traced and prints the per-layer
metrics from spans.py.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The program is imported
from `src/` next to this directory; without it the run exits 1 before
measuring anything.

On a shared host the program runs up to 1.5x slower, and at times 2x,
for spells of seconds to minutes, which moved the raw throughput of
protection-audit by 12-26%, that of ring-scan by up to 40% and that of
lanczos-spectrum by up to 20% (interquartile range over median) between
runs on different seeds.  So op times are reported at a reference host
speed: a fixed kernel shaped like the workload's hot path is timed beside
the ops (outside the timed region), and each op's seconds are scaled by
the kernel's reference seconds over its time around that op.

- protection-audit: a pure-Python kernel shaped like Pauli-term
  composition.  Over 8 windows of 7 s this cut the spread of its op times
  from 9-21% to 1.4-2.8%; over ten runs the spread of its throughput fell
  from 15% to 2.4%, and its scaled median stayed within 4% while the raw
  throughput halved in a slow spell.
- ring-scan: its time is dense eigh.  Slow spells moved a 4096 x 4096
  eigensolve by up to 1.9x and a 1024 x 1024 one about half as much, and
  neither pure-Python nor BLAS-2 (dsymv) kernels followed them.  The
  kernel is the LAPACK call of one L = 10 ring point, and the
  workload keeps the L = 12 point at about a quarter of its time (see
  workloads.ring_scan).  Over ten seeds this gave a 3.8% spread in
  throughput where the raw one was 9.8%.
- lanczos-spectrum: its time is compiled code too (apply's numpy passes
  and ARPACK), and the LAPACK kernel followed it best: over eight runs in
  a spell-prone hour it cut the throughput spread from 13% to 5.7%,
  against 6.1% for the pure-Python kernel and 7.5% for one shaped like
  its matvec.  Here the kernel's matrix is 512 x 512, because the
  workload's own peak memory is only ~10 MB above the interpreter's and
  the 1024 x 1024 kernel's transient 16 MB set peak_rss_mb in every run.

Set-up time and memory are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_BEYOND = 10


def limit_blas_threads() -> int:
    """Pin BLAS to one thread before numpy loads; returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_cli():
    if not (SRC / "clusterspt" / "cli.py").is_file():
        raise SystemExit(f"error: clusterspt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from clusterspt import cli
    if Path(cli.__file__).resolve().parent != SRC / "clusterspt":
        raise SystemExit(f"error: imported clusterspt from {cli.__file__}")
    return cli


def run_op(cli, argv):
    """One CLI invocation: (exit code or None on a crash, seconds, stdout)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a dead benchmark
        rc = None
        out.write(f"{type(exc).__name__}: {exc}")
    return rc, time.perf_counter() - t0, out.getvalue()


def environment(nproc):
    """Library versions, BLAS builds and the BLAS threads actually in use."""
    import ctypes

    import numpy
    import scipy
    blas = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                blas[Path(path).name] = {
                    "config": config().decode().strip(),
                    "threads": int(threads())}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas, "nproc": nproc,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload):
    """Median wall time of fresh processes that import the program and run
    the workload's warm-up ops: what every CLI invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload], cwd=ROOT, capture_output=True,
            text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr}")
    return statistics.median(times)


def warm_up(cli, workload):
    from workloads import WARMUP
    for argv in WARMUP[workload]:
        rc, _, _ = run_op(cli, argv)
        if rc != 0:
            raise SystemExit(f"error: warm-up {argv} exited {rc}")


def interpreter_kernel_s():
    """Median seconds of three runs of a fixed pure-Python kernel shaped
    like Pauli-term composition: mask products, parity signs and a dict of
    complex coefficients."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = {}
        for x1 in range(0, 3000, 7):
            for x2 in range(0, 154, 11):
                sign = -1.0 if (x1 & x2).bit_count() & 1 else 1.0
                key = (x1 ^ x2, x1 & x2)
                acc[key] = acc.get(key, 0j) + sign * 0.5j
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def lapack_kernel_s(dim=1024):
    """Median seconds of three runs of the LAPACK call that one L = 10 ring
    point makes: scipy.linalg.eigh, lowest 6 pairs, of a fixed real
    symmetric dim x dim matrix (1024 for an L = 10 point).  The matrix is
    made afresh each time so that it does not count in peak_rss_mb."""
    import numpy as np
    import scipy.linalg
    a = np.random.default_rng(0).standard_normal((dim, dim))
    a += a.T
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        scipy.linalg.eigh(a, subset_by_index=[0, 5])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# Workloads whose op times are scaled to a reference host speed: workload ->
# (speed kernel, its seconds on the baseline 2-core box outside slow spells,
# op seconds between two speed samples).  The reference seconds fix the
# reference speed, so they must never change.
SCALED = {"protection-audit": (interpreter_kernel_s, 0.0019, 0.25),
          "ring-scan": (lapack_kernel_s, 0.1, 2.0),
          "lanczos-spectrum": (functools.partial(lapack_kernel_s, 512),
                               0.015, 1.0)}


class Run:
    """Op records of one benchmark run, plus the output checks.  `speed` is
    None, or (kernel, its reference seconds, op seconds between samples)
    when op times are scaled to the reference host speed."""

    def __init__(self, cli, oracle, speed=None):
        self.cli = cli
        self.oracle = oracle
        self.scaled = speed is not None
        self.kernel, self.kernel_ref_s, self.speed_every_s = \
            speed or (None, None, None)
        self.times = {False: [], True: []}    # traced? -> op seconds
        self.samples = []                     # (ops done, kernel seconds)
        self.since_sample = float("inf")      # a sample precedes op 0
        self.classes = {}                     # op class -> untraced seconds
        self.attempted = 0
        self.failed = 0
        self.quality = {"scan_points": 0, "null_sector_gaps": 0,
                        "solves": 0, "window_exact": 0}
        self.untraced_points = 0

    def op(self, op, traced):
        if self.scaled and not traced and \
                self.since_sample >= self.speed_every_s:
            self.sample_speed()
        rc, dt, text = run_op(self.cli, op["argv"])
        self.attempted += 1
        self.times[traced].append(dt)
        if not traced:
            self.since_sample += dt
            self.classes.setdefault(op["cls"], []).append(dt)
        try:
            bad, quality = self.oracle.check(op, rc, json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad, quality = [f"unreadable output ({exc}): {text[:200]}"], {}
        for key, value in quality.items():
            self.quality[key] += value
        if not traced:
            self.untraced_points += quality.get("scan_points", 0)
        if bad:
            self.failed += 1
            print(f"FAILED {' '.join(op['argv'])}: {'; '.join(bad[:3])}",
                  file=sys.stderr)

    def sample_speed(self):
        self.samples.append((len(self.times[False]), self.kernel()))
        self.since_sample = 0.0

    def scaled_times(self):
        """Untraced op seconds, at the reference speed when scaled: op i is
        scaled by the mean of the last kernel sample before it and the
        first after it."""
        if not self.scaled:
            return list(self.times[False])
        out = []
        j = 0
        for i, dt in enumerate(self.times[False]):
            while self.samples[j + 1][0] <= i:
                j += 1
            k = 0.5 * (self.samples[j][1] + self.samples[j + 1][1])
            out.append(dt * self.kernel_ref_s / k)
        return out

    def busy(self):
        return sum(self.times[False]) + sum(self.times[True])


def measure(run, workload, seed, seconds, tracer=None):
    """Run the workload's blocks of cycles; with a tracer, each cycle runs
    once untraced and once traced, alternating which goes first."""
    from workloads import BLOCKS, WORKLOADS
    rng = random.Random(seed)
    per_block, block_s = BLOCKS[workload]
    blocks = max(1, round(seconds / block_s))
    for cycle in range(blocks * per_block):
        ops = WORKLOADS[workload](rng, cycle)
        passes = [False] if tracer is None else \
            ([False, True] if cycle % 2 == 0 else [True, False])
        for traced in passes:
            if traced:
                tracer.install()
            try:
                for op in ops:
                    if tracer is not None:
                        tracer.op_class = op["cls"]
                    run.op(op, traced)
            finally:
                if traced:
                    tracer.uninstall()
    if run.scaled:
        run.sample_speed()
    return blocks


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    s = sorted(times)
    n = len(s)
    k = max(0, n - TAIL_BEYOND - 1)
    return s[k], 100.0 * k / (n - 1) if n > 1 else 100.0


def end_to_end(run, setup_s):
    times = run.scaled_times()
    n = len(times)
    p_tail, q_tail = tail(times)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_op_ratio": (run.attempted - run.failed) / run.attempted,
    }
    raw = run.times[False]
    notes = [f"op_s_tail is p{q_tail:.1f} of {n} ops",
             f"raw ops_per_s {n / sum(raw):.6g}, op_s_p50 "
             f"{statistics.median(raw):.6g} s, op_s_tail {tail(raw)[0]:.6g} s"]
    if run.scaled:
        kernel = [k for _, k in run.samples]
        notes.append(f"times scaled to the reference host speed: kernel "
                     f"median {statistics.median(kernel):.6g} s over "
                     f"{len(kernel)} samples, reference {run.kernel_ref_s} s")
    notes.append(f"failed_op_ratio {run.failed / run.attempted:.6g} "
                 f"({run.failed}/{run.attempted})")
    notes.append(f"scan_points_per_s {run.untraced_points / sum(raw):.6g} "
                 f"({run.untraced_points} points)")
    for cls, ts in sorted(run.classes.items()):
        notes.append(f"class {cls}: {len(ts)} ops, median "
                     f"{statistics.median(ts):.6g} s")
    return values, notes


def per_layer(run, tracer):
    traced = run.times[True]
    n = len(traced)
    from spans import FUNCTIONS, LAYERS
    values = {}
    for layer, names in FUNCTIONS.items():
        for name in names + ("eigh", "eigsh") * (layer == "engine"):
            key = f"{layer}.{name.split('.')[-1]}"
            values[f"{key}.self_s"] = values[f"{key}.calls"] = 0.0
    for (cls, name), st in tracer.stats.items():
        if cls == "all" and "#" not in name:
            values[f"{name}.self_s"] = st.self / n
            values[f"{name}.calls"] = st.calls / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self(layer) / n
    apply = tracer.stat("engine.apply")
    apply12 = tracer.stat("engine.apply#L12")
    values["engine.apply.s_per_call"] = apply.total / apply.calls \
        if apply.calls else 0.0
    values["engine.apply.s_per_call_L12"] = apply12.total / apply12.calls \
        if apply12.calls else 0.0
    values["engine.apply.amp_updates"] = apply.work / n
    values["engine.apply.amp_updates_per_s"] = apply.work / apply.total \
        if apply.total else 0.0
    values["engine.eigh.dim_cubed"] = tracer.stat("engine.eigh").work / n
    values["pauli.compose.term_pairs"] = tracer.stat("pauli.compose").work / n
    med, iqr = tracer.matvec_summary()
    values["engine.eigsh.matvecs_per_solve"] = med
    values["engine.eigsh.matvecs_per_solve_iqr"] = iqr
    q = run.quality
    values["analysis.scan.null_sector_gap_ratio"] = \
        q["null_sector_gaps"] / q["scan_points"] if q["scan_points"] else 0.0
    values["engine.eigsh.window_exact_ratio"] = \
        q["window_exact"] / q["solves"] if q["solves"] else 0.0
    untraced = run.times[False]
    values["analysis.phase_scan.points_per_s"] = \
        run.untraced_points / sum(untraced)
    values["trace.overhead_ratio"] = \
        (n / sum(traced)) / (len(untraced) / sum(untraced))
    values["trace.uncovered_s"] = \
        (sum(traced) - tracer.stat("cli.main").total) / n

    notes = [f"{n} traced ops, {len(untraced)} untraced ops",
             f"scan points {q['scan_points']}, null sector gaps "
             f"{q['null_sector_gaps']}; eigsh solves {q['solves']}, exact "
             f"windows {q['window_exact']}",
             f"apply calls per eigsh solve: {tracer.matvecs}"]
    total = sum(tracer.layer_self(layer) for layer in LAYERS)
    notes.append("layer self-time shares: " + ", ".join(
        f"{layer} {tracer.layer_self(layer) / total:.1%}"
        for layer in LAYERS))
    classes = sorted({cls for cls, _ in tracer.stats if cls != "all"})
    for cls in classes:
        top = tracer.self_shares(cls)[:5]
        notes.append(f"class {cls} self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in top))
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ring-scan", "lanczos-spectrum",
                                 "protection-audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    cli = import_cli()
    sys.path.insert(0, str(HERE))
    warm_up(cli, args.workload)
    if args.probe:
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup_s = measure_setup(args.workload)

    from oracle import Oracle
    from spans import Tracer
    run = Run(cli, Oracle(), SCALED.get(args.workload))
    tracer = Tracer() if args.trace else None
    blocks = measure(run, args.workload, args.seed, args.seconds, tracer)

    if args.trace:
        values, notes = per_layer(run, tracer)
    else:
        values, notes = end_to_end(run, setup_s)
    print(f"env {json.dumps(environment(nproc), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {blocks} blocks, "
          f"{run.attempted} ops, {run.busy():.3f} s of op time")
    for note in notes:
        print(note)
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Solver census: how often the sector solvers' layers run in one block of
each benchmark workload.

    python3 tools/census.py --src src
    python3 tools/census.py --src src --seed 4

Imports clusterspt from the given `src/` tree and the workloads from
`bench/workloads.py` next to this tool (read only, no bytecode written),
then runs one block of whole cycles of each workload (`workloads.BLOCKS`,
the cycles of `workloads.WORKLOADS` drawn from random.Random(seed), as
bench/run.py draws them) in-process through `clusterspt.cli.main` with one
BLAS thread.  Per workload it prints the calls of:

- solve: the `solve` each sector solver hands `engine._sector_counts`;
- subset_eigh: `engine._subset_eigh`, one dense LAPACK block solve each;
- certify rows / certified: the row-blocks `engine._certify` receives and
  how many of them it puts above the window;
- checked_residual: `engine.checked_residual`, one stack of pairs each;
- checked_low: `engine._checked_low`, one Lanczos-path block solve each;
- frame: `engine._frame_low`, one iterative solve of a Hamiltonian whose
  terms decouple, in its Clifford frame, each: into paths (an open chain)
  or into cycles too (a ring), whose chains are solved per sector of the
  cycles' central signs; every chain solve counts under subset_eigh and
  checked_residual, none under solve;

(a column whose function the tree does not have reads 0), and the ops
that did not exit 0 (an audit of a tampered symmetry half
that the audit finds broken exits 1, as it should).  Counts, not times:
two trees that make the same solves print the same numbers on any host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

# BLAS threads change the rounding of the solvers; fix one before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
COLUMNS = ("solve", "subset_eigh", "certify rows", "certified",
           "checked_residual", "checked_low", "frame", "nonzero exits")


def load_workloads():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spies(engine, counts: Counter) -> list:
    """Patches of engine that count into `counts`, each calling the real
    function."""
    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return spy

    sector_counts, certify = engine._sector_counts, engine._certify

    def scheduled(solve, *args, **kwargs):
        return sector_counts(counted("solve", solve), *args, **kwargs)

    def certificate(h, *args):
        above = certify(h, *args)
        counts["certify rows"] += len(above)
        counts["certified"] += int(above.sum())
        return above

    return [mock.patch.object(engine, "_sector_counts", scheduled),
            mock.patch.object(engine, "_certify", certificate)] + [
        mock.patch.object(engine, name, counted(column,
                                                getattr(engine, name)))
        for name, column in (("_subset_eigh", "subset_eigh"),
                             ("checked_residual", "checked_residual"),
                             ("_checked_low", "checked_low"),
                             ("_frame_low", "frame"))
        if hasattr(engine, name)]


def census(main, engine, workloads, name: str, seed: int) -> Counter:
    """The counts of one block of workload `name` on `seed`."""
    counts = Counter()
    rng = random.Random(seed)
    with contextlib.ExitStack() as stack:
        for patch in spies(engine, counts):
            stack.enter_context(patch)
        for cycle in range(workloads.BLOCKS[name][0]):
            for op in workloads.WORKLOADS[name](rng, cycle):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(op["argv"])
                counts["nonzero exits"] += code != 0
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="src/ tree to import clusterspt from")
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from clusterspt import cli, engine
    workloads = load_workloads()
    width = max(map(len, workloads.WORKLOADS))
    print(f"seed {args.seed}, one block per workload")
    print(f"{'workload':{width}}  " + "  ".join(COLUMNS))
    for name in workloads.WORKLOADS:
        counts = census(cli.main, engine, workloads, name, args.seed)
        print(f"{name:{width}}  " + "  ".join(
            f"{counts[c]:{len(c)}d}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

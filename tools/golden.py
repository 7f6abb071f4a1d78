#!/usr/bin/env python3
"""Golden CLI reports: run a fixed list of commands and compare two runs.

    python3 tools/golden.py --src src --out /tmp/golden-new
    python3 tools/golden.py --compare /tmp/golden-old /tmp/golden-new

The first form imports clusterspt from the given `src/` tree, runs every
command of COMMANDS in-process through `clusterspt.cli.main` with one BLAS
thread, and writes each report to `NN-<command>.json` in the output
directory exactly as the CLI printed it, except that the `total_s` timing
is replaced by "<masked>"; a `--format csv` report goes to `NN-<command>.csv`
as printed.  A command that prints no report is recorded as its exit code
and error message.

The second form prints every field that differs between two such
directories, with |delta| for floats, and says which files are identical
byte for byte, so a change of the CLI's JSON formatting shows too.  A
CSV report is compared cell by cell: a cell that parses as a float, and
not as an integer, on both sides is a float field, while a header,
row-count, row-length, integer-cell or text-cell difference is not.
Any other report that is not JSON is compared byte for byte only, and a
difference in it counts as one non-float difference.  It exits 1 when
anything other than a float differs: an integer, boolean, string, null
or the structure, a CSV header, integer or text cell, a non-JSON report,
or a missing file.  To compare a
change with its parent, run the first form once on each tree (for
example on a `git archive` of the parent commit).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
from pathlib import Path

# BLAS threads change the rounding of the solvers; fix one before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

COMMANDS = [
    "scan --size 8 --boundary periodic --lambda 0.5:1.5:0.05",
    "scan --size 10 --boundary periodic --lambda 0.5:1.5:0.1 --probe X1",
    "scan --size 11 --boundary periodic --lambda 0.6:1.2:0.15 --probe Z1Z2 "
    "--probe X3",
    "scan --size 12 --boundary periodic --lambda 0.9:1.1:0.1",
    "scan --size 12 --lambda 0:0:1",
    "scan --size 12 --lambda 0:0.1:0.05",
    "scan --size 6 --lambda 0:0.5:0.25",
    "scan --size 7 --boundary open --lambda 0:1:0.25",
    "scan --size 9 --boundary open --lambda 0.5:1.5:0.25",
    "scan --size 12 --boundary open --lambda 0:1:0.5",
    "scan --size 10 --lambda 0.8:1.0:0.1 --method iterative",
    "scan --size 13 --lambda 0.9:0.9:0.1",
    "spectrum --size 9 --lambda 0.3",
    "spectrum --size 10 --boundary periodic --lambda 0.7",
    "spectrum --size 13 --lambda 0.5 --method iterative",
    "verify --size 9 --global-symmetry",
    "protect --size 9",
    "protect --size 9 --local-only",
    "protect --size 21 --symbolic-only",
    "protect --size 15 --symbolic-only --tamper B2",
    "protect --size 16 --local-only --symbolic-only",
    "verify --size 15 --global-symmetry --tamper B2",
    "spectrum --size 12 --boundary periodic --lambda 0.7",
    "spectrum --size 11 --boundary open --lambda 1.2 --count 12",
    "verify --size 12",
    "scan --size 13 --boundary open --lambda 0.4:0.8:0.4",
    "spectrum --size 3 --boundary periodic --lambda 0.7 --count 6",
    "spectrum --size 4 --boundary periodic --lambda 0.7",
    "protect --size 9 --max-probes 20 --seed 5",
    "protect --size 9 --probe X1Z9 --probe Y5",
    "verify --size 9 --global-symmetry --tamper B2",
    "spectrum --size 14 --boundary open --lambda 0.15 --method iterative",
    "scan --size 13 --boundary periodic --lambda 0.9:1.1:0.1 --method "
    "iterative",
    "protect --size 21 --symbolic-only --tamper A1",
    "verify --size 21 --global-symmetry --symbolic-only",
    "protect --size 24 --local-only --symbolic-only",
    "protect --size 15 --symbolic-only --max-probes 7 --seed 3",
    "protect --size 15 --symbolic-only --tamper A2",
    "verify --size 15 --global-symmetry --symbolic-only --tamper A2",
    "spectrum --size 12 --boundary open --lambda 0.001 --method iterative "
    "--count 8",
    "spectrum --size 14 --boundary periodic --lambda 1.05 --method iterative",
    "scan --size 11 --boundary open --lambda 0:0.6:0.3",
    "spectrum --size 9 --boundary periodic --lambda 1.3 --count 12",
    "spectrum --size 11 --boundary periodic --lambda 0.45 --method dense "
    "--count 16",
    "scan --size 12 --boundary periodic --lambda 0.5:1.5:0.05",
    "spectrum --size 12 --boundary periodic --lambda 1.0 --count 40",
    "scan --size 10 --boundary periodic --lambda 0:0.2:0.1 --count 30",
    "spectrum --size 6 --boundary periodic --lambda 0.5 --count 60",
    "scan --size 12 --boundary periodic --lambda 0.95:1.05:0.05 --count 24",
    "spectrum --size 14 --boundary periodic --lambda 1.35 --method iterative",
    "spectrum --size 16 --boundary periodic --lambda 1.0 --method iterative "
    "--count 12",
    "scan --size 10 --boundary periodic --lambda 0.5:1.5:0.01",
    "scan --size 8 --boundary open --lambda 0:1.5:0.05",
    "scan --size 8 --boundary periodic --lambda 0:2:0.05 --probe X1 --probe "
    "Z1Z2",
    "scan --size 13 --boundary periodic --lambda 0.9:1.0:0.1 --probe X1 "
    "--probe Z1Z2",
    "scan --size 12 --boundary open --lambda 0.2:0.6:0.2 --probe X1 --probe "
    "Z1X2",
    # warm repeats: lattices an earlier command already projected
    "scan --size 8 --boundary periodic --lambda 0.5:1.5:0.05",
    "scan --size 10 --boundary periodic --lambda 0.55:0.85:0.05",
    "protect --size 9",
    "verify --size 9 --global-symmetry",
    # exactly fourfold ground clusters, dense and iterative
    "spectrum --size 10 --lambda 0 --count 8",
    "spectrum --size 14 --lambda 0 --method iterative --count 8",
    # open-chain Lanczos first passes of half the count, the lambda = 0
    # point of the scan solved again in every block
    "spectrum --size 13 --boundary open --lambda 0.75 --method iterative "
    "--count 12",
    "spectrum --size 13 --boundary open --lambda 1.2 --method iterative "
    "--count 6",
    "scan --size 13 --boundary open --lambda 0:1:0.5",
    # amplitudes read on a ring's Lanczos levels in real bases, on an
    # iterative chain scan, and warm on a chain projected above
    "scan --size 14 --boundary periodic --lambda 0.8:0.8:0.1 --probe X1 "
    "--probe Z1Z2",
    "scan --size 13 --boundary open --lambda 0.3:0.6:0.3 --probe X1 --probe "
    "Z1X2",
    "scan --size 9 --boundary open --lambda 0.5:1.5:0.25 --probe X1 --probe "
    "Y5",
    # a multi-coupling ring scan whose (k, p) blocks take ARPACK in real
    # bases, all couplings on one set of sectors
    "scan --size 14 --boundary periodic --lambda 0.9:1.1:0.1",
    # CSV reports: numeric and symbolic probe rows, and scan rows
    "protect --size 9 --format csv",
    "protect --size 16 --local-only --symbolic-only --format csv",
    "scan --size 8 --boundary periodic --lambda 0.5:1.5:0.25 --format csv",
    # crossings that mix a collision and an interval (two key sets), and
    # an open-chain scan CSV with a probe column
    "scan --size 6 --boundary periodic --lambda 0:1.5:0.1",
    "scan --size 9 --boundary open --lambda 0:1.5:0.1 --probe X1 --format "
    "csv",
    # ring scans whose chunks start from the sectors of the last window:
    # six chunks of couplings, and one-coupling chunks across the lambda =
    # 1 collision
    "scan --size 10 --boundary periodic --lambda 0.5:1.5:0.025",
    "scan --size 12 --boundary periodic --lambda 0.9:1.1:0.02",
    # open chains split by their Pauli integral Q: iterative spectra that
    # take the chain's Clifford frame at 14 and 12 sites, and a dense scan
    # on eight (r, p, q) blocks; the last two commands pin the Lanczos path
    # on the four (r, p) blocks of a chain Q_a does not pair
    "spectrum --size 14 --boundary open --lambda 1.05 --method iterative "
    "--count 8",
    "spectrum --size 12 --boundary open --lambda 0.45 --method iterative "
    "--count 8",
    "scan --size 10 --boundary open --lambda 0:1.5:0.25 --probe X1",
    # open-chain scans whose certificates hold, so that Q_a twins take the
    # empty solutions of their certified sources
    "scan --size 11 --boundary open --lambda 0.5:1.5:0.05 --count 4",
    "scan --size 10 --boundary open --lambda 0.2:1.4:0.05 --count 2",
    # iterative spectra of Hamiltonians whose terms decouple, solved in
    # their Clifford frame: 24- and 18-site open chains, and the 24-site
    # ring of H_C alone
    "spectrum --size 24 --boundary open --lambda 0.37 --method iterative "
    "--count 12",
    "spectrum --size 18 --boundary open --lambda 1.0 --method iterative",
    "spectrum --size 24 --boundary periodic --lambda 0 --method iterative",
    # verify runs where the pairwise stabilizer commutation is the only
    # check: a 22-site ring past the numeric checks, and a 24-site chain
    "verify --size 22 --boundary periodic",
    "verify --size 24 --symbolic-only",
    # open chains of L = 0 mod 3, which Q_a does not pair: Lanczos on their
    # four (r, p) blocks, iterative at 12 sites and above the dense size
    # at 15
    "scan --size 12 --boundary open --lambda 0.3:0.9:0.3 --method iterative",
    "scan --size 15 --boundary open --lambda 0.6:0.6:0.1",
    # rings of 3k sites solved in their Clifford frame: each of their
    # three cycles opened into a chain, per sector of the cycles' central
    # signs; the 24-site ring ran out of its charge on the (k, p) sectors
    "spectrum --size 12 --boundary periodic --lambda 0.45 --method "
    "iterative",
    "spectrum --size 18 --boundary periodic --lambda 1.0 --method iterative",
    "spectrum --size 24 --boundary periodic --lambda 0.37 --method "
    "iterative",
]


# the one value of a report that changes from run to run
_TOTAL_S = re.compile(r'("total_s": )[-+.0-9eE]+')


def capture(src: Path, out: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    from clusterspt.cli import main

    out.mkdir(parents=True, exist_ok=True)
    for i, command in enumerate(COMMANDS, 1):
        argv = command.split()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        text = stdout.getvalue()
        if text.strip():
            text = _TOTAL_S.sub(r'\1"<masked>"', text)
        else:
            text = json.dumps({"exit": code, "stderr": stderr.getvalue()},
                              sort_keys=True, indent=2) + "\n"
        suffix = ".csv" if "--format csv" in command else ".json"
        name = f"{i:02d}-{re.sub(r'[^A-Za-z0-9.]+', '_', command)}{suffix}"
        (out / name).write_text(text)
        print(f"{name}: exit {code}")


def _walk(a, b, path: str, floats: list, others: list) -> None:
    """Collect (path, a, b) of every differing leaf: float pairs in
    `floats`, everything else in `others`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                others.append((f"{path}.{key}", a.get(key, "<missing>"),
                               b.get(key, "<missing>")))
            else:
                _walk(a[key], b[key], f"{path}.{key}", floats, others)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            others.append((f"{path}.length", len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", floats, others)
    elif type(a) is float and type(b) is float:
        if a != b:
            floats.append((path, a, b))
    elif type(a) is not type(b) or a != b:
        others.append((path, a, b))


def _float_cell(x: str) -> float | None:
    """A CSV cell as a float, None for text and for an int (a count, which
    _walk does not count as a float either); the reports write every float
    with a point or an exponent."""
    try:
        int(x)
    except ValueError:
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _cells(a: list, b: list, floats: list, others: list) -> None:
    """_walk for two CSV reports read as rows of cells, the first row the
    header: a differing cell past the header that is a float on both sides
    (_float_cell) goes to `floats`, as floats; every other difference to
    `others`."""
    if len(a) != len(b):
        others.append(("rows", len(a), len(b)))
    header = a[0] if a else []
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        if len(row_a) != len(row_b):
            others.append((f"[{i}].length", len(row_a), len(row_b)))
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            path = f"[{i}].{header[j] if j < len(header) else j}"
            pair = _float_cell(x), _float_cell(y)
            if i and None not in pair:
                floats.append((path, *pair))
            else:
                others.append((path, x, y))


def compare(dir_a: Path, dir_b: Path) -> int:
    names = sorted({p.name for p in dir_a.glob("*.*")}
                   | {p.name for p in dir_b.glob("*.*")})
    bad = 0
    worst = 0.0
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if not (fa.exists() and fb.exists()):
            print(f"{name}: only in {dir_a if fa.exists() else dir_b}")
            bad += 1
            continue
        if fa.read_bytes() == fb.read_bytes():
            print(f"{name}: identical")
            continue
        floats, others = [], []
        if fa.suffix == ".csv":
            _cells(*(list(csv.reader(io.StringIO(f.read_text())))
                     for f in (fa, fb)), floats, others)
        else:
            try:
                docs = json.loads(fa.read_text()), json.loads(fb.read_text())
            except ValueError:
                print(f"{name}: differs (not JSON, compared byte for byte)")
                bad += 1
                continue
            _walk(*docs, "", floats, others)
        print(f"{name}: {len(floats)} float and {len(others)} other fields "
              f"differ")
        for path, a, b in floats:
            worst = max(worst, abs(a - b))
            print(f"  {path}: {a!r} -> {b!r}  |delta| = {abs(a - b):.3g}")
        for path, a, b in others:
            print(f"  {path}: {a!r} -> {b!r}  (not a float)")
        bad += len(others)
    print(f"{len(names)} files; largest float |delta| {worst:.3g}; "
          f"{bad} non-float differences")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--src", type=Path,
                       help="src/ tree to import clusterspt from")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                       help="two output directories to compare")
    parser.add_argument("--out", type=Path,
                        help="directory for the reports (with --src)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--src needs --out")
    capture(args.src, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

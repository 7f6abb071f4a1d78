#!/usr/bin/env python3
"""Golden CLI reports: run a fixed list of commands and compare two runs.

    python3 tools/golden.py --src src --out /tmp/golden-new
    python3 tools/golden.py --compare /tmp/golden-old /tmp/golden-new

The first form imports clusterspt from the given `src/` tree, runs every
command of COMMANDS in-process through `clusterspt.cli.main` with one BLAS
thread, and writes each report to `NN-<command>.json` in the output
directory exactly as the CLI printed it, except that the `total_s` timing
is replaced by "<masked>".  A command that prints no report is recorded as
its exit code and error message.

The second form prints every field that differs between two such
directories, with |delta| for floats, and says which files are identical
byte for byte, so a change of the CLI's JSON formatting shows too.  It
exits 1 when anything other than a float differs: an integer, boolean,
string, null or the structure, or a missing file.  To compare a change
with its parent, run the first form once on each tree (for example on a
`git archive` of the parent commit).
"""

from __future__ import annotations

import argparse
import contextlib
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
        name = f"{i:02d}-{re.sub(r'[^A-Za-z0-9.]+', '_', command)}.json"
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


def compare(dir_a: Path, dir_b: Path) -> int:
    names = sorted({p.name for p in dir_a.glob("*.json")}
                   | {p.name for p in dir_b.glob("*.json")})
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
        _walk(json.loads(fa.read_text()), json.loads(fb.read_text()), "",
              floats, others)
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

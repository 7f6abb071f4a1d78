"""Command-line front end.

Four subcommands: `verify` (stabilizer algebra and symmetry certification),
`spectrum` (low eigenvalues), `protect` (probe audit), `scan` (coupling
sweep).  Output is JSON, or CSV for tabular results, with a fixed schema and
12-significant-digit float formatting so identical configurations produce
byte-identical reports apart from the timings block.

The JSON writer `_json` prints what `json.dumps(sort_keys=True, indent=2)`
prints in one walk: scalars are written by a writer looked up on their exact
type.  Every report table (the scan rows, the probe rows of `protect`,
verify's checks and cross-checks) travels as columns from the report that
holds it to the writer (`_Rows`, from ScanResult.columns and
ProtectionReport.columns): `_json` writes it as the list of dicts it stands
for (`_columns_text`: each column's values to text at once, by one writer
when they share one scalar type, then every row from one template of the
sorted keys), and `_csv_text` as csv.DictWriter would.  Any other value,
a list of dicts included, takes the recursive walk.

`main` may be called any number of times in one process: the argument
parser is built on the first call and reused, and each call dispatches to
the module's `cmd_<command>` function as it is bound at that moment.

Exit codes: 0 all checks passed, 1 a verified check failed, 2 usage or
resource error, an unwritable --out included.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import engine
from .analysis import (certify_protection, phase_scan, symmetry_pair_algebra,
                       transition_estimate, verify_stabilizer_algebra)
from .errors import (ConvergenceError, DomainError, LengthMismatchError,
                     ResourceLimitError)
from .models import (LatticeSpec, build_model, cross_check_global,
                     perturbed_hamiltonian)
from .pauli import OperatorSum, PauliString

SCHEMA_VERSION = 1
SIZE_CAP = 24
GRID_CAP = 10**6    # couplings in one --lambda grid


def _round12(x) -> float | None:
    """The report's float rule: 12 significant digits, -0.0 as 0.0, and
    NaN or an infinity as None (null in JSON, an empty CSV cell)."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return float(f"{x:.12g}") + 0.0   # -0.0 + 0.0 is 0.0


def _float_text(x) -> str:
    x = _round12(x)
    return "null" if x is None else float.__repr__(x)


def _bool_text(b) -> str:
    return "true" if b else "false"


# writers of the scalar types a report holds, looked up by exact type (the
# bool and None writers are lookups, so a column of them maps without a
# Python call per value)
_SCALARS = {
    str: encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: _float_text,
    type(None): {None: "null"}.__getitem__,
}


class _Rows:
    """Report rows held as columns: `columns` maps each key, in the rows'
    own order (the CSV header's), to its values, one per row.  `_json`
    writes them as the list of dicts they stand for, and `_csv_text` as
    one line per row."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _json(obj, pad: str = "") -> str:
    """JSON text of obj as `json.dumps(sort_keys=True, indent=2)` writes it,
    with floats through `_round12`, keys through `str`, numpy scalars,
    arrays and tuples written as Python scalars and lists, and `_Rows` as
    the list of dicts it holds, in one walk."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (bool, np.bool_)):
        return _bool_text(obj)
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): v for k, v in obj.items()}
        body = f",\n{inner}".join(
            f"{encode_basestring_ascii(k)}: {_json(items[k], inner)}"
            for k in sorted(items))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, _Rows):
        if not obj:
            return "[]"
        return f"[\n{inner}{_columns_text(obj.columns, inner)}\n{pad}]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = f",\n{inner}".join(_json(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{pad}]"
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _columns_text(columns: dict, pad: str) -> str:
    """Rows given as columns (str key -> one value per row), written as
    `_json` writes a list of dicts at `pad`: each column's values to text
    at once, by one writer when they share one scalar type, then every
    row from the key set's one template (`_row_template`)."""
    inner = pad + "  "
    order, template = _row_template(tuple(columns), pad)
    texts = []
    for key in order:
        values = columns[key]
        kinds = set(map(type, values))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        texts.append(list(map(write, values)) if write is not None
                     else [_json(v, inner) for v in values])
    return f",\n{pad}".join(map(template.__mod__, zip(*texts)))


@functools.lru_cache(maxsize=64)
def _row_template(keys: tuple, pad: str) -> tuple:
    """(sorted keys, %-template of one row at `pad` with one %s per value
    in that order) for rows with these str keys: a report has a handful of
    key sets, so each template is built once per process."""
    inner = pad + "  "
    order = tuple(sorted(keys))
    return order, "{" + ",".join(
        f"\n{inner}{encode_basestring_ascii(k).replace('%', '%%')}: %s"
        for k in order) + f"\n{pad}}}"


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"--lambda expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"--lambda expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError("--lambda values must be finite")
    if stop < start:
        raise DomainError(f"--lambda range is reversed: {text!r}")
    if start == stop:
        return np.array([start])
    if step <= 0:
        raise DomainError("--lambda step must be positive")
    span = (stop - start) / step + 1e-9
    if span >= GRID_CAP:   # checked before anything is allocated
        raise DomainError(
            f"--lambda {text!r} asks for {span + 1:.7g} couplings, more than "
            f"the {GRID_CAP} a scan allows")
    n = int(math.floor(span)) + 1
    return np.round(start + step * np.arange(n), 12)


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        v = _round12(v)
    return "" if v is None else v


def _csv_text(rows: _Rows) -> str:
    """CSV text of report rows, a header of the keys in row order and one
    line per row, as csv.DictWriter writes them, floats through
    `_round12`."""
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows.columns)
        writer.writerows(zip(*(map(_csv_cell, values)
                               for values in rows.columns.values())))
    return buf.getvalue()


def _emit(payload: dict, args, csv_rows=None) -> None:
    # only protect and scan give rows, and only they take --format
    if csv_rows is not None and args.format == "csv":
        text = _csv_text(csv_rows)
    else:
        text = _json(payload) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lattice(args) -> LatticeSpec:
    if args.size > SIZE_CAP:
        raise ResourceLimitError(
            f"--size {args.size} exceeds the {SIZE_CAP}-site cap")
    return LatticeSpec(args.size, args.boundary)


def _config_dict(args, keys) -> dict:
    out = {"command": args.command}
    for key in keys:
        out[key] = getattr(args, key)
    return out


def cmd_verify(args):
    lattice = _lattice(args)
    report = verify_stabilizer_algebra(lattice, numeric=not args.symbolic_only)
    results = {
        "checks": _Rows({key: [getattr(e, key) for e in report.entries]
                         for key in ("name", "passed", "detail")}),
    }
    ok = report.passed

    if args.global_symmetry or args.tamper:
        algebra = symmetry_pair_algebra(build_model(lattice), args.tamper)[2]
        cross = cross_check_global(lattice)
        results["global_symmetry"] = {
            "algebra": algebra,
            "tamper": args.tamper,
            "cross_checks": _Rows({key: [c[key] for c in cross] for key in (
                "name", "matches", "printed", "printed_conjugated",
                "canonical_pattern")}),
        }
        ok = ok and all(algebra.values())

    payload = {
        "config": _config_dict(args, ("size", "boundary", "global_symmetry",
                                      "tamper", "symbolic_only")),
        "results": results,
    }
    return payload, ok, None


def cmd_spectrum(args):
    lattice = _lattice(args)
    h = perturbed_hamiltonian(lattice, args.lam)
    spectrum = engine.eig_low(h, count=args.count, method=args.method)
    results = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "ground_energy": float(spectrum.ground_energy),
        "ground_degeneracy": spectrum.ground_degeneracy,
        "gap": float(spectrum.gap),
        "max_residual": float(spectrum.max_residual),
        "method": spectrum.method,
    }
    payload = {
        "config": _config_dict(args, ("size", "boundary", "lam", "count",
                                      "method")),
        "results": results,
    }
    return payload, True, None


def cmd_protect(args):
    lattice = _lattice(args)
    probes = None
    if args.probe:
        probes = {}
        for name in args.probe:
            probes[name] = OperatorSum.from_pauli(
                PauliString.from_compact(name, lattice.length))
    rng = np.random.default_rng(args.seed)
    report = certify_protection(
        lattice, probes=probes, numeric=not args.symbolic_only, rng=rng,
        max_probes=args.max_probes, tamper=args.tamper,
        local_only=args.local_only)
    rows = _Rows(report.columns())
    results = {
        "mode": report.mode,
        "algebra": report.algebra,
        "per_s_bulk": {str(k): v for k, v in report.per_s_bulk.items()},
        "sigma_all_excluded": report.sigma_all_excluded,
        "bulk_all_excluded": report.bulk_all_excluded,
        "symmetric_probes_harmless": report.symmetric_probes_harmless,
        "numeric_splitting": report.numeric_splitting,
        "cross_check_mismatches": [c["name"] for c in report.cross_checks
                                   if not c["matches"]],
        "probes": rows,
        "verdict": report.verdict,
    }
    payload = {
        "config": _config_dict(args, ("size", "boundary", "local_only",
                                      "tamper", "symbolic_only", "max_probes",
                                      "seed")),
        "results": results,
    }
    return payload, report.verdict == "protected", rows


def cmd_scan(args):
    lattice = _lattice(args)
    grid = _parse_grid(args.lam)
    probes = {}
    for name in args.probe or ():
        probes[name] = PauliString.from_compact(name, lattice.length)
    scan = phase_scan(lattice, grid, probes=probes or None,
                      method=args.method, eig_count=args.count,
                      sector_atol=args.tol)
    rows = _Rows(scan.columns())
    results = {
        "rows": rows,
        "crossings": list(scan.crossings),
        "parity_commutes": scan.parity_commutes,
        "time_reversal_real": scan.time_reversal_real,
        "transition": None,
    }
    if grid.size >= 5:
        est = transition_estimate(scan)
        results["transition"] = {
            "value": est.value,
            "method": est.method,
            "boundary": est.boundary,
            "gap_used": est.gap_used,
        }
    ok = scan.parity_commutes and scan.time_reversal_real
    payload = {
        "config": _config_dict(args, ("size", "boundary", "lam", "method",
                                      "count", "tol", "seed")),
        "results": results,
    }
    return payload, ok, rows


def _seed(text: str) -> int:
    """--seed of protect: an integer numpy's default_rng accepts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="clusterspt",
        description="Verification suites and scans for cluster-chain "
                    "stabilizer models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, size_default, boundary_default):
        p.add_argument("--size", type=int, default=size_default,
                       help="number of sites")
        p.add_argument("--boundary", choices=("open", "periodic"),
                       default=boundary_default)
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("verify", help="stabilizer algebra suite")
    common(p, 9, "open")
    p.add_argument("--global-symmetry", action="store_true",
                   dest="global_symmetry",
                   help="also certify the extensive symmetry pair")
    p.add_argument("--tamper", choices=("A1", "B1", "A2", "B2"), default=None,
                   help="swap one symmetry half for its literal printed form")
    p.add_argument("--symbolic-only", action="store_true",
                   dest="symbolic_only")

    p = sub.add_parser("spectrum", help="low eigenvalues")
    common(p, 9, "open")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="perturbation coupling")
    p.add_argument("--count", type=int, default=8,
                   help="lowest levels to report")
    p.add_argument("--method", choices=("auto", "dense", "iterative"),
                   default="auto",
                   help="dense: every symmetry sector densely, up to 12 "
                   "sites; iterative: a Hamiltonian whose terms decouple "
                   "(an open chain, a ring at lambda 0, a ring of 4-9 or "
                   "3k sites) as small dense chains in its Clifford "
                   "frame, per sector of its cycles' signs, any other "
                   "sector by sector; auto: dense up to 12 sites, "
                   "iterative above")

    p = sub.add_parser("protect", help="probe audit against the symmetries")
    common(p, 9, "open")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv gives one row per probe")
    p.add_argument("--local-only", action="store_true", dest="local_only",
                   help="audit against the edge-localized pair")
    p.add_argument("--tamper", choices=("A1", "B1", "A2", "B2"), default=None)
    p.add_argument("--symbolic-only", action="store_true",
                   dest="symbolic_only")
    p.add_argument("--probe", action="append", default=None,
                   help="probe name like X3 or Z1X9 (repeatable)")
    p.add_argument("--max-probes", type=int, default=None, dest="max_probes",
                   help="audit a seeded sample of this many probe names, "
                   "drawn from all of them; the 15 Sigma_ products are "
                   "always audited on top")
    p.add_argument("--seed", type=_seed, default=0,
                   help="probe sample seed (non-negative)")

    p = sub.add_parser("scan", help="coupling sweep of the perturbed model")
    common(p, 12, "periodic")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv gives one row per grid point")
    p.add_argument("--lambda", dest="lam", default="0.5:1.5:0.05",
                   help="grid as start:stop:step (inclusive); a grid that "
                   "starts below zero takes the = form, --lambda=-1:1:0.5, "
                   "since argparse reads -1:1:0.5 as an option")
    p.add_argument("--count", type=int, default=12,
                   help="eigenvalues per grid point")
    p.add_argument("--method", choices=("auto", "dense", "iterative"),
                   default="auto")
    p.add_argument("--probe", action="append", default=None,
                   help="extra expectation to record (compact Pauli name)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="energy window that groups levels into multiplets")
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in the config; a scan draws no random numbers")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    t0 = time.perf_counter()
    try:
        # looked up per call, so a rebound cmd_* (a tracer's wrapper) is used
        payload, ok, csv_rows = globals()[f"cmd_{args.command}"](args)
    except (DomainError, LengthMismatchError, ResourceLimitError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": payload["config"],
        "results": payload["results"],
        "verdict": "pass" if ok else "fail",
        "timings": {"total_s": round(time.perf_counter() - t0, 6)},
    }
    try:
        _emit(payload, args, csv_rows)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

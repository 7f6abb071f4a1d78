"""The CLI's report tables against per-row dicts rebuilt from the reports.

Every table a report prints (the scan rows, the probe rows of `protect`,
verify's checks and cross-checks) leaves its report as columns
(`cli._Rows`).  Here each table is rebuilt row by row from the report's own
arrays and entries, and the text `cli._json` and `cli._csv_text` write from
the columns must equal what `json.dumps(sort_keys=True, indent=2)` and
`csv.DictWriter` write from those rows.
"""

import csv
import io
import json

import numpy as np
import pytest

import clusterspt as cs
from clusterspt import LatticeSpec, cli
from clusterspt.cli import _csv_text, _json, _round12


def _expected(obj):
    """obj as plain JSON values, floats through the report's float rule."""
    if isinstance(obj, dict):
        return {str(k): _expected(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_expected(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return _round12(obj) if type(obj) is float else obj


def _dict_writer_text(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "" if v is None else
                         _round12(v) if type(v) is float else v
                         for k, v in row.items()})
    return buf.getvalue()


def check_table(table, rows):
    """The columns `table` print, as JSON and as CSV, what the rows do, and
    hold their keys in the rows' order (the CSV header's)."""
    assert isinstance(table, cli._Rows)
    assert list(table.columns) == list(rows[0])
    assert _json(table) == json.dumps(_expected(rows), sort_keys=True,
                                      indent=2)
    text = _csv_text(table)
    assert text == _dict_writer_text(rows)
    assert text.split("\n", 1)[0] == ",".join(rows[0])


def run(argv):
    """(payload, ok, csv rows) of one CLI command, before it is written."""
    args = cli.build_parser().parse_args(argv)
    return getattr(cli, f"cmd_{args.command}")(args)


def scan_rows(scan):
    """One dict per coupling, read off the ScanResult's arrays."""
    collisions = {c["lam"] for c in scan.crossings
                  if c["kind"] == "collision"}
    rows = []
    for i, lam in enumerate(scan.grid):
        row = {"lam": float(lam), "energy": float(scan.energy[i]),
               "gap": float(scan.gap[i]),
               "gap_sector": float(scan.gap_sector[i]),
               "string_order": float(scan.string_order[i]),
               "yy_correlator": float(scan.yy_correlator[i]),
               "parity_expectation": float(scan.parity_expectation[i]),
               "gs_parity": float(scan.gs_parity[i]),
               "exc_multiplicity": int(scan.exc_multiplicity[i]),
               "level_collision": bool(lam in collisions)}
        for name, values in scan.extras.items():
            row[name] = float(values[i])
        rows.append(row)
    return rows


@pytest.mark.parametrize("argv", [
    # a probe column, a collision at 1.0 and no same-parity excitation in
    # the 12-level window: a null gap_sector at every coupling
    "scan --size 12 --boundary periodic --lambda 0.9:1.1:0.1 --count 12 "
    "--probe X1",
    # crossings that mix a collision and an interval, two probe columns
    "scan --size 6 --boundary periodic --lambda 0:1.5:0.1 --probe X1 "
    "--probe Z2X3Z4",
    "scan --size 9 --boundary open --lambda 0:1.5:0.25 --probe Y5",
])
def test_scan_rows(argv):
    payload, _, table = run(argv.split())
    args = cli.build_parser().parse_args(argv.split())
    lattice = LatticeSpec(args.size, args.boundary)
    scan = cs.phase_scan(lattice, cli._parse_grid(args.lam),
                         probes={name: name for name in args.probe},
                         eig_count=args.count)
    rows = scan_rows(scan)
    assert payload["results"]["rows"] is table
    check_table(table, rows)
    check_table(cli._Rows(scan.columns()), rows)
    if args.size == 12:
        assert [row["level_collision"] for row in rows] == \
            [False, True, False]
        assert all(np.isnan(row["gap_sector"]) for row in rows)
        assert "null" in _json(table) and ",," in _csv_text(table)
    if args.size == 6:
        assert {c["kind"] for c in scan.crossings} == \
            {"collision", "interval"}
    # the whole report, crossings written by the recursive walk
    whole = dict(payload["results"], rows=rows)
    assert _json(payload["results"]) == json.dumps(
        _expected(whole), sort_keys=True, indent=2)


def _scalar(value):
    return value.item() if isinstance(value, np.generic) else value


def probe_rows(report):
    """One dict per probe, read off the ProtectionReport's columns."""
    return [{"probe": report.names[k],
             "commutes_with_h": bool(report.commutes_with_h[k]),
             "commutes_with_t1": bool(report.commutes_with_t1[k]),
             "commutes_with_t2": bool(report.commutes_with_t2[k]),
             "excluded": not (report.commutes_with_t1[k]
                              and report.commutes_with_t2[k]),
             "bulk_local": bool(report.is_bulk_local[k]),
             "forbidden": bool(report.is_forbidden[k]),
             "splitting": _scalar(report.splitting[k]),
             "splitting_norm": _scalar(report.splitting_norm[k])}
            for k in range(len(report.names))]


@pytest.mark.parametrize("numeric", [True, False])
def test_probe_rows(numeric):
    argv = ["protect", "--size", "9"] + ([] if numeric else
                                         ["--symbolic-only"])
    payload, _, table = run(argv)
    report = cs.certify_protection(LatticeSpec(9), numeric=numeric)
    rows = probe_rows(report)
    assert payload["results"]["probes"] is table
    check_table(table, rows)
    check_table(cli._Rows(report.columns()), rows)
    kinds = {row["splitting"] for row in rows}
    assert kinds >= {"zero", "non-scalar"} if numeric else kinds == {None}


def test_verify_checks_and_cross_checks():
    payload, _, csv_rows = run(
        ["verify", "--size", "9", "--global-symmetry"])
    assert csv_rows is None
    lattice = LatticeSpec(9)
    entries = cs.verify_stabilizer_algebra(lattice).entries
    check_table(payload["results"]["checks"],
                [{"name": e.name, "passed": e.passed, "detail": e.detail}
                 for e in entries])
    keys = ("name", "matches", "printed", "printed_conjugated",
            "canonical_pattern")
    check_table(payload["results"]["global_symmetry"]["cross_checks"],
                [{k: c[k] for k in keys}
                 for c in cs.cross_check_global(lattice)])

"""Command-line driver: exit codes, report schema, determinism, formats."""

import csv
import io
import json
import math
import time
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterspt import LatticeSpec, certify_protection, cli, engine, phase_scan
from clusterspt.cli import _json, _round12, main
from clusterspt.errors import DomainError


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestVerify:
    def test_passes_on_open_nine(self, capsys):
        code, doc = run_json(capsys, "verify", "--size", "9",
                             "--boundary", "open")
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "pass"
        names = [c["name"] for c in doc["results"]["checks"]]
        assert "pairwise-commutation" in names

    def test_symbolic_only_skips_numeric(self, capsys):
        code, doc = run_json(capsys, "verify", "--size", "15",
                             "--symbolic-only")
        assert code == 0
        assert [c["name"] for c in doc["results"]["checks"]] == \
            ["pairwise-commutation"]

    def test_global_symmetry_certification(self, capsys):
        code, doc = run_json(capsys, "verify", "--size", "9",
                             "--global-symmetry")
        assert code == 0
        alg = doc["results"]["global_symmetry"]["algebra"]
        assert all(alg.values())
        mism = [c["name"]
                for c in doc["results"]["global_symmetry"]["cross_checks"]
                if not c["matches"]]
        assert mism == ["B2"]

    def test_global_symmetry_needs_admissible_size(self, capsys):
        assert main(["verify", "--size", "5", "--boundary", "open",
                     "--global-symmetry"]) == 2

    def test_tamper_flags_failure(self, capsys):
        code, doc = run_json(capsys, "verify", "--size", "9",
                             "--tamper", "B2")
        assert code == 1
        assert doc["verdict"] == "fail"
        alg = doc["results"]["global_symmetry"]["algebra"]
        assert not alg["t2_commutes_h"]

    def test_tamper_sign_flip_passes(self, capsys):
        code, doc = run_json(capsys, "verify", "--size", "9",
                             "--tamper", "A2")
        assert code == 0


class TestSpectrum:
    def test_open_nine(self, capsys):
        code, doc = run_json(capsys, "spectrum", "--size", "9",
                             "--boundary", "open")
        assert code == 0
        r = doc["results"]
        assert r["ground_energy"] == pytest.approx(-7.0)
        assert r["ground_degeneracy"] == 4
        assert r["gap"] == pytest.approx(2.0)

    def test_periodic_eight(self, capsys):
        code, doc = run_json(capsys, "spectrum", "--size", "8",
                             "--boundary", "periodic")
        assert code == 0
        assert doc["results"]["ground_degeneracy"] == 1
        assert doc["results"]["ground_energy"] == pytest.approx(-8.0)

    def test_zero_levels_print_unsigned(self, capsys):
        # exact-zero sector eigenvalues may come out of LAPACK as -0.0
        assert math.copysign(1.0, _round12(np.float64(-0.0))) == 1.0
        assert _json(np.float64(-0.0)) == "0.0"
        code, doc = run_json(capsys, "spectrum", "--size", "4",
                             "--boundary", "periodic", "--count", "16")
        assert code == 0
        vals = doc["results"]["eigenvalues"]
        assert 0.0 in vals
        assert all(math.copysign(1.0, v) == 1.0 for v in vals if v == 0.0)

    def test_size_cap(self, capsys):
        assert main(["spectrum", "--size", "30"]) == 2

    def test_rejects_grid_syntax(self, capsys):
        assert main(["spectrum", "--size", "6",
                     "--lambda", "0:1:0.1"]) == 2


class TestProtect:
    def test_protected_at_nine(self, capsys):
        code, doc = run_json(capsys, "protect", "--size", "9")
        assert code == 0
        r = doc["results"]
        assert r["verdict"] == "protected"
        assert r["per_s_bulk"] == {"1": True, "2": True}
        assert r["cross_check_mismatches"] == ["B2"]
        assert len(r["probes"]) == 96

    def test_local_only(self, capsys):
        code, doc = run_json(capsys, "protect", "--size", "6",
                             "--local-only")
        assert code == 0
        assert doc["results"]["mode"] == "local"

    def test_tamper_exits_one(self, capsys):
        code, doc = run_json(capsys, "protect", "--size", "9",
                             "--tamper", "B2", "--symbolic-only")
        assert code == 1
        assert doc["results"]["verdict"] == "not protected"

    def test_malformed_probe(self, capsys):
        assert main(["protect", "--size", "9", "--probe", "Q5"]) == 2

    def test_explicit_probes(self, capsys):
        code, doc = run_json(capsys, "protect", "--size", "9",
                             "--probe", "X5", "--probe", "Z1")
        assert code == 0
        names = {p["probe"] for p in doc["results"]["probes"]}
        # requested probes plus the forbidden products
        assert {"X5", "Z1"} <= names
        assert sum(p["forbidden"] for p in doc["results"]["probes"]) == 15


class TestScan:
    def test_single_point(self, capsys):
        code, doc = run_json(capsys, "scan", "--size", "6",
                             "--lambda", "0:0:1")
        assert code == 0
        row = doc["results"]["rows"][0]
        assert row["lam"] == 0.0
        assert row["string_order"] == pytest.approx(1.0, abs=1e-10)
        assert row["gap"] == pytest.approx(2.0, abs=1e-9)
        assert doc["results"]["transition"] is None

    def test_reversed_range(self, capsys):
        assert main(["scan", "--size", "6", "--lambda", "1.2:0.8:0.05"]) == 2

    def test_bad_range_syntax(self, capsys):
        assert main(["scan", "--size", "6", "--lambda", "abc"]) == 2
        assert main(["scan", "--size", "6", "--lambda", "0:1:-0.1"]) == 2

    def test_estimate_in_json(self, capsys):
        code, doc = run_json(capsys, "scan", "--size", "8",
                             "--lambda", "0.8:1.2:0.05")
        assert code == 0
        t = doc["results"]["transition"]
        assert t["method"] == "interior-minimum"
        assert t["value"] == pytest.approx(0.9239, abs=5e-3)
        assert doc["results"]["parity_commutes"]
        assert doc["results"]["time_reversal_real"]

    def test_csv_output(self, capsys):
        code = main(["scan", "--size", "6", "--lambda", "0.9:1.1:0.1",
                     "--format", "csv"])
        assert code == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert "string_order" in rows[0]
        assert float(rows[0]["lam"]) == pytest.approx(0.9)

    def test_deterministic_modulo_timings(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for argv in (["scan", "--size", "6", "--lambda", "0.9:1.1:0.1"],
                     ["spectrum", "--size", "10", "--lambda", "0.3",
                      "--method", "iterative"]):
            for path in (a, b):
                assert main(argv + ["--out", str(path)]) == 0
            da, db = json.loads(a.read_text()), json.loads(b.read_text())
            da.pop("timings"), db.pop("timings")
            assert json.dumps(da, sort_keys=True) == \
                json.dumps(db, sort_keys=True)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        assert main(["scan", "--size", "6", "--lambda", "0:0:1",
                     "--format", "csv", "--out", str(path)]) == 0
        assert path.read_text().startswith("lam,")

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        assert main(["verify", "--size", "5", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_floats_have_twelve_significant_digits(self, capsys):
        code, doc = run_json(capsys, "scan", "--size", "6",
                             "--lambda", "0.9:0.9:1")
        text = json.dumps(doc)
        for token in text.replace(",", " ").replace("}", " ").split():
            try:
                float(token)
            except ValueError:
                continue
            digits = token.lstrip("-0.").replace(".", "").rstrip("0")
            assert len(digits) <= 12, token


def _expected(obj):
    """What a report holds for obj, built without the writer: str keys,
    lists for tuples and arrays, Python scalars, and floats rounded to 12
    significant digits, zero unsigned, and NaN and infinities as None."""
    if isinstance(obj, dict):
        return {str(k): _expected(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_expected(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return float(f"{x:.12g}") or 0.0   # 0.0 for -0.0
    return obj


_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9", "\u03bb\u2192\u221e",
                     "\n\t", "\U0001f600", ""]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    _TEXT,
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.integers(-3, 3) | _TEXT, kids, max_size=4)),
    max_leaves=30)


def _floats(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for v in doc:
            yield from _floats(v)
    elif isinstance(doc, float):
        yield doc


class TestJsonWriter:
    """The one-pass writer prints what json.dumps(sort_keys=True, indent=2)
    prints for the normalized payload, byte for byte."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_PAYLOADS)
    def test_bytes_match_json_dumps(self, payload):
        text = _json(payload) + "\n"
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"
        assert text == json.dumps(_expected(payload), sort_keys=True,
                                  indent=2, allow_nan=False) + "\n"
        assert text.isascii()
        for x in _floats(json.loads(text)):
            assert x == float(f"{x:.12g}")
            assert math.copysign(1.0, x) == 1.0 or x != 0.0

    def test_float_rule(self):
        assert _json(-0.0) == "0.0"
        assert _json([math.nan, math.inf, -math.inf]) == \
            "[\n  null,\n  null,\n  null\n]"
        assert _json(np.float64(1 / 3)) == "0.333333333333"
        assert _json(2.5e-300) == "2.5e-300"
        assert _json({}) == "{}" and _json(()) == "[]"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="complex"):
            _json({"a": 1j})


class TestParserReuse:
    """main() called again in one process reuses the parser and still
    sees each call's own arguments and the current cmd_* bindings."""

    def test_probe_list_does_not_stick(self, capsys):
        code, doc = run_json(capsys, "protect", "--size", "9",
                             "--probe", "X3")
        assert code == 0
        names = {r["probe"] for r in doc["results"]["probes"]}
        assert "X3" in names and "Z1" not in names
        code, doc = run_json(capsys, "protect", "--size", "9")
        assert code == 0
        census = {v.name for v in certify_protection(
            LatticeSpec(9), numeric=False).probes}
        assert {r["probe"] for r in doc["results"]["probes"]} == census
        assert len(census) == 9 * 3 + 6 * 9 + 15

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["protect", "--size", "nine"]) == 2
        assert "invalid int value" in capsys.readouterr().err
        code, doc = run_json(capsys, "protect", "--size", "9",
                             "--symbolic-only")
        assert code == 0 and doc["verdict"] == "pass"

    def test_rebound_command_is_honoured(self, capsys, monkeypatch):
        assert main(["protect", "--size", "9", "--symbolic-only"]) == 0
        capsys.readouterr()
        calls = []
        original = cli.cmd_protect

        def spy(args):
            calls.append(args.size)
            return original(args)

        monkeypatch.setattr(cli, "cmd_protect", spy)
        code, doc = run_json(capsys, "protect", "--size", "15",
                             "--symbolic-only")
        assert code == 0 and calls == [15]
        assert cli.build_parser() is cli.build_parser()


class TestMemoryBudget:
    def test_oversized_run_fails_early(self, capsys, monkeypatch):
        # the two 2^23-state parity blocks' solve phase: 24 x masks at 12
        # bytes plus the table, 28 Lanczos vectors and the kept sector
        # vectors, and 8 complex states with the ground cluster's copies
        monkeypatch.setattr(engine, "_physical_memory", lambda: 7 << 30)
        t0 = time.perf_counter()
        assert main(["spectrum", "--size", "24", "--boundary", "periodic",
                     "--method", "iterative"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "needs about 19.3 GB" in capsys.readouterr().err
        assert main(["spectrum", "--size", "14", "--method",
                     "iterative"]) == 0

    def test_dense_budget_counts_sector_blocks(self, capsys, monkeypatch):
        # 64 MiB holds the 24 blocks of about 171 states of the 12-site
        # ring, not the two 2048 x 2048 float64 parity blocks of the chain
        monkeypatch.setattr(engine, "_physical_memory", lambda: 64 << 20)
        assert main(["spectrum", "--size", "12", "--boundary", "periodic",
                     "--method", "dense"]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--size", "12", "--boundary", "open",
                     "--method", "dense"]) == 2
        assert "needs about 0.1 GB (2 sector blocks plus row tables)" in \
            capsys.readouterr().err

    def test_scan_sector_path_checks_the_budget(self, capsys, monkeypatch):
        # the two-operator projection of the 12-site chain is charged in
        # project_sectors, before its kernel runs
        monkeypatch.setattr(engine, "_physical_memory", lambda: 64 << 20)
        with mock.patch.object(engine, "_mask_rows",
                               wraps=engine._mask_rows) as spy:
            assert main(["scan", "--size", "12", "--boundary", "open",
                         "--lambda", "0:1:0.5"]) == 2
        assert spy.call_count == 0
        assert "sector blocks plus row tables" in capsys.readouterr().err

    def test_scan_checks_the_budget_before_its_observables(self, capsys,
                                                           monkeypatch):
        # 14 sites take eig_low per coupling; its estimate must fail before
        # the scan builds its observables' matrices
        monkeypatch.setattr(engine, "_physical_memory", lambda: 1 << 20)
        with mock.patch.object(engine, "operator_matrix",
                               wraps=engine.operator_matrix) as spy:
            assert main(["scan", "--size", "14", "--lambda", "1:1:1"]) == 2
        assert spy.call_count == 0
        assert "needs about" in capsys.readouterr().err


class TestScanValidation:
    """Bad scan settings exit 2 with one message before any work."""

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_checked_on_both_paths(self, capsys, count):
        # 8 sites take the sector path, 13 the full-space one
        errors = []
        for size in ("8", "13"):
            assert main(["scan", "--size", size, "--lambda", "0.5:0.5:1",
                         "--count", count]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: count must be positive\n"] * 2

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_rejected(self, capsys, tol):
        assert main(["scan", "--size", "8", "--lambda", "0.5:0.5:1",
                     "--tol", tol]) == 2
        assert "sector tolerance must be finite and positive" in \
            capsys.readouterr().err

    def test_bad_tolerance_rejected_in_the_library(self):
        with pytest.raises(DomainError, match="finite and positive"):
            phase_scan(LatticeSpec(6, "periodic"), [0.5], sector_atol=-1.0)

    def test_huge_grid_refused_before_allocating(self, capsys):
        t0 = time.perf_counter()
        assert main(["scan", "--size", "8", "--lambda", "0:1:1e-13"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "asks for 1e+13 couplings" in err
        assert "1000000" in err


class TestFlagScope:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", "-5"],
        ["spectrum", "--size", "6", "--tol", "nan"],
        ["protect", "--tol", "1e-3", "--symbolic-only"],
        ["verify", "--seed", "5"],
        ["spectrum", "--size", "6", "--seed", "5"],
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["protect", "--size", "9", "--probe", "X99"],
        ["scan", "--size", "6", "--probe", "X0", "--lambda", "0:0:1"],
    ])
    def test_probe_site_out_of_range(self, capsys, argv):
        assert main(argv) == 2
        assert "outside 1.." in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "--size", "6", "--lambda", "0.5:0.5:1", "--probe", "X1Z1"],
        ["protect", "--size", "6", "--local-only", "--probe", "X1Z1"],
    ])
    def test_probe_repeating_a_site(self, capsys, argv):
        # X1Z1 would name -iY1, which is not Hermitian
        assert main(argv) == 2
        assert "probe 'X1Z1' names site 1 twice" in capsys.readouterr().err


class TestProbeBudget:
    """--max-probes must be a count: a negative one exits 2 by name."""

    def test_negative_is_a_usage_error(self, capsys):
        assert main(["protect", "--max-probes", "-1",
                     "--symbolic-only"]) == 2
        assert capsys.readouterr().err == \
            "error: max_probes must be non-negative, got -1\n"

    def test_negative_rejected_in_the_library(self):
        with pytest.raises(DomainError, match="-3"):
            certify_protection(LatticeSpec(9), numeric=False, max_probes=-3)

    def test_zero_keeps_only_the_forbidden_set(self, capsys):
        code, doc = run_json(capsys, "protect", "--max-probes", "0",
                             "--symbolic-only")
        assert code == 0
        names = [row["probe"] for row in doc["results"]["probes"]]
        assert len(names) == 15
        assert all(n.startswith("Sigma_") for n in names)

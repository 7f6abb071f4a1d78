"""The protection audit's column report against a per-probe recomputation.

certify_protection packs every probe once as one TermTable and keeps its
verdicts as columns.  Here each verdict is recomputed probe by probe from
the public pieces alone: pauli.commutes on the default_probe_set
OperatorSums and the registry's Sigma_ entries, each probe's support from
OperatorSum.supports, and the summary flags by the per-probe rules.
"""

import csv
import io
import json

import numpy as np
import pytest

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine
from clusterspt.analysis import ProbeVerdict, symmetry_pair_algebra
from clusterspt.cli import _round12, main
from clusterspt.pauli import commutes


def audited_probes(model, probes=None, rng=None, max_probes=None):
    """The probe set certify_protection audits, by name: `probes` (the
    default set when None) and the registry's Sigma_ products, sampled as
    max_probes asks with every Sigma_ product kept."""
    reg = model.registry
    probes = dict(cs.default_probe_set(model.lattice) if probes is None
                  else probes)
    sigma = {name: reg[name] for name in reg if name.startswith("Sigma_")}
    probes.update(sigma)
    if max_probes is not None and len(probes) > max_probes:
        drawn = rng.choice(sorted(probes), size=max_probes, replace=False)
        probes = {n: probes[n] for n in probes
                  if n in set(map(str, drawn)) | set(sigma)}
    return probes


def reference_verdicts(model, probes, tamper=None, local_only=False,
                       numeric=False):
    """One ProbeVerdict per probe, in sorted name order, each decided on
    its own."""
    L = model.lattice.length
    t1, t2, _ = symmetry_pair_algebra(model, tamper, local_only)
    h = model.registry["H_C"]
    names = sorted(probes)
    kinds = norms = [None] * len(names)
    if numeric:
        basis = cs.eig_low(h, count=6).ground_basis
        kinds, norms = engine.splitting_classes(engine.splitting_matrices(
            basis, [probes[name] for name in names]))
    out = []
    for name, kind, norm in zip(names, kinds, norms):
        op = probes[name]
        sites = op.supports()
        out.append(ProbeVerdict(
            name=name,
            commutes_with_h=commutes(h, op),
            commutes_with_t1=commutes(t1, op),
            commutes_with_t2=commutes(t2, op),
            is_bulk_local=len(sites) == 1 and 2 <= min(sites) <= L - 1,
            is_forbidden=name.startswith("Sigma_"),
            splitting=None if kind is None else str(kind),
            splitting_norm=None if norm is None
            else 0.0 if kind == "zero" else float(norm)))
    return tuple(out)


def check_report(rep, want, local_only=False):
    """The report's columns, derived flags and probes against the
    per-probe verdicts."""
    assert rep.probes == want
    assert rep.names == tuple(v.name for v in want)
    for column in ("commutes_with_h", "commutes_with_t1",
                   "commutes_with_t2", "is_bulk_local", "is_forbidden"):
        assert getattr(rep, column).tolist() == \
            [getattr(v, column) for v in want], column
    assert rep.excluded.tolist() == [v.excluded for v in want]
    assert rep.sigma_all_excluded == all(v.excluded for v in want
                                         if v.is_forbidden)
    assert rep.bulk_all_excluded == all(v.excluded for v in want
                                        if v.is_bulk_local)
    assert rep.symmetric_probes_harmless == all(
        v.splitting in ("zero", "scalar") for v in want
        if not v.excluded and v.splitting is not None)
    assert rep.per_s_bulk == ({} if local_only else {
        1: all(not v.commutes_with_t1 for v in want if v.is_bulk_local),
        2: all(not v.commutes_with_t2 for v in want if v.is_bulk_local)})
    for v in rep.probes:
        assert type(v.commutes_with_h) is bool and type(v.name) is str
        assert v.splitting_norm is None or type(v.splitting_norm) is float


@pytest.mark.parametrize("L", range(4, 25))
def test_local_only(L):
    model = cs.build_model(LatticeSpec(L, "open"))
    rep = cs.certify_protection(model, numeric=False, local_only=True)
    want = reference_verdicts(model, audited_probes(model), local_only=True)
    check_report(rep, want, local_only=True)
    assert rep.verdict == "protected"


@pytest.mark.parametrize("tamper", [None, "A1", "B1", "A2", "B2"])
@pytest.mark.parametrize("L", [9, 15, 21])
def test_global_pair(L, tamper):
    model = cs.build_model(LatticeSpec(L, "open"))
    rep = cs.certify_protection(model, numeric=False, tamper=tamper)
    check_report(rep, reference_verdicts(model, audited_probes(model),
                                         tamper))


@pytest.mark.parametrize("L, max_probes, seed, numeric",
                         [(9, 20, 5, True), (15, 7, 3, False),
                          (21, 60, 11, False), (9, 0, 1, True)])
def test_max_probes_sample(L, max_probes, seed, numeric):
    model = cs.build_model(LatticeSpec(L, "open"))
    rep = cs.certify_protection(model, numeric=numeric, max_probes=max_probes,
                                rng=np.random.default_rng(seed))
    probes = audited_probes(model, rng=np.random.default_rng(seed),
                            max_probes=max_probes)
    check_report(rep, reference_verdicts(model, probes, numeric=numeric))
    assert sum(rep.is_forbidden) == 15


@pytest.mark.parametrize("L, numeric", [(9, True), (21, False)])
def test_explicit_probes(L, numeric):
    model = cs.build_model(LatticeSpec(L, "open"))
    probes = {name: OperatorSum.from_pauli(PauliString.from_compact(name, L))
              for name in ("X1Z9", "Y5", "Z1", "X3Y4Z5")}
    rep = cs.certify_protection(model, probes=probes, numeric=numeric)
    check_report(rep, reference_verdicts(model, audited_probes(model, probes),
                                         numeric=numeric))


def test_nine_site_splittings_bit_for_bit():
    # the report's classes and norms are splitting_classes of
    # splitting_matrices on the OperatorSums themselves, to the last bit
    model = cs.build_model(LatticeSpec(9, "open"))
    rep = cs.certify_protection(model)
    probes = audited_probes(model)
    want = reference_verdicts(model, probes, numeric=True)
    check_report(rep, want)
    basis = cs.eig_low(model.registry["H_C"], count=6).ground_basis
    classes, norms = engine.splitting_classes(engine.splitting_matrices(
        basis, [probes[name] for name in rep.names]))
    assert rep.splitting.tolist() == classes.tolist()
    norms = np.where(classes == "zero", 0.0, norms)
    assert rep.splitting_norm.view(np.uint64).tolist() == \
        norms.view(np.uint64).tolist()
    assert {"zero", "scalar", "non-scalar"} >= set(classes) >= \
        {"zero", "non-scalar"}


def _rows(report):
    """The protect rows as dicts, one per ProbeVerdict."""
    return [{"probe": v.name, "commutes_with_h": v.commutes_with_h,
             "commutes_with_t1": v.commutes_with_t1,
             "commutes_with_t2": v.commutes_with_t2,
             "excluded": v.excluded, "bulk_local": v.is_bulk_local,
             "forbidden": v.is_forbidden, "splitting": v.splitting,
             "splitting_norm": v.splitting_norm} for v in report.probes]


@pytest.mark.parametrize("argv", [
    ["protect", "--size", "9"],
    ["protect", "--size", "9", "--probe", "X1Z9", "--probe", "Y5"],
    ["protect", "--size", "16", "--local-only", "--symbolic-only"],
])
def test_cli_rows_are_the_verdicts(capsys, argv):
    # the JSON and CSV rows written from the columns hold what the
    # per-probe rows held, in the same order
    L = int(argv[2])
    probes = None
    if "--probe" in argv:
        probes = {name: OperatorSum.from_pauli(
            PauliString.from_compact(name, L)) for name in ("X1Z9", "Y5")}
    report = cs.certify_protection(
        LatticeSpec(L), probes=probes, numeric="--symbolic-only" not in argv,
        local_only="--local-only" in argv)
    rows = _rows(report)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["probes"] == json.loads(json.dumps(
        [{k: _round12(v) if type(v) is float else v for k, v in row.items()}
         for row in rows]))
    assert main(argv + ["--format", "csv"]) == 0
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "" if v is None else
                         _round12(v) if type(v) is float else v
                         for k, v in row.items()})
    assert capsys.readouterr().out == buf.getvalue()

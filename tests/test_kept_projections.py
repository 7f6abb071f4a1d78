"""family_low's memo of sector projections (engine._KEPT): a later solve
of the same operators takes the kept projection, bit for bit what a
rebuild gives, and the memo holds at most engine._KEEP_BYTES."""

import dataclasses
import re
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import clusterspt as cs
from clusterspt import LatticeSpec, OperatorSum, PauliString, engine
from clusterspt.cli import main
from clusterspt.errors import DomainError

SCAN_FIELDS = ("energy", "gap", "gap_sector", "string_order",
               "yy_correlator", "parity_expectation", "gs_parity",
               "exc_multiplicity")

# every step of a projection's build a kept one skips
BUILDERS = ("project_sectors", "_sector_table", "_check_table",
            "_real_bases", "_sector_entries", "_symmetry_group")


def spies(stack: ExitStack) -> dict:
    return {name: stack.enter_context(mock.patch.object(
        engine, name, wraps=getattr(engine, name))) for name in BUILDERS}


def kept_bytes() -> int:
    return sum(p.nbytes for p in engine._KEPT.values())


def cli_report(capsys, argv) -> str:
    """The CLI's JSON report with its one run-dependent value masked."""
    assert main(argv) == 0
    return re.sub(r'("total_s": )[-+.0-9eE]+', r"\1null",
                  capsys.readouterr().out)


@pytest.mark.parametrize("L", [8, 10])
def test_a_repeated_ring_scan_builds_nothing(capsys, L):
    check_repeated_scan(capsys, LatticeSpec(L, "periodic"))


def test_a_repeated_chain_scan_builds_nothing(capsys):
    # the 10-site chain's (H_C, H_I) projection counts 2.033 MiB in its
    # eight (r, p, q) sectors, within _KEEP_BYTES (4.021 MiB in the four
    # (r, p) sectors it had before Q split them)
    check_repeated_scan(capsys, LatticeSpec(10, "open"))


def check_repeated_scan(capsys, lat):
    """A second scan of `lat` takes the kept projection and builds nothing,
    bit for bit the first; so does the CLI's report, cold and warm."""
    L = lat.length
    grid = [0.6, 0.9, 1.0, 1.3]
    first = cs.phase_scan(lat, grid, probes={"X1": "X1"})
    assert len(engine._KEPT) == 1
    with ExitStack() as stack:
        built = spies(stack)
        again = cs.phase_scan(lat, grid, probes={"X1": "X1"})
    assert {name: spy.call_count for name, spy in built.items()} \
        == dict.fromkeys(BUILDERS, 0)
    for name in SCAN_FIELDS:
        assert getattr(again, name).tobytes() \
            == getattr(first, name).tobytes(), name
    assert again.extras["X1"].tobytes() == first.extras["X1"].tobytes()
    assert again.exc_parities == first.exc_parities
    assert again.crossings == first.crossings

    # the CLI's report, cold (an emptied memo) and warm
    argv = ["scan", "--size", str(L), "--boundary", lat.boundary,
            "--lambda", "0.5:1.5:0.25", "--probe", "Z1Z2"]
    engine._KEPT.clear()
    cold = cli_report(capsys, argv)
    with ExitStack() as stack:
        built = spies(stack)
        warm = cli_report(capsys, argv)
    assert built["project_sectors"].call_count == 0
    assert warm == cold


def test_a_repeated_chain_solve_builds_nothing():
    h = cs.perturbed_hamiltonian(LatticeSpec(9, "open"), 0.3)
    first = cs.eig_low(h, count=6)
    with ExitStack() as stack:
        built = spies(stack)
        again = cs.eig_low(h, count=6)
    # eig_low's own test of h, which picks the sector path
    assert {name: spy.call_count for name, spy in built.items()} \
        == {**dict.fromkeys(BUILDERS, 0), "_symmetry_group": 1}
    assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()
    assert again.ground_degeneracy == first.ground_degeneracy
    for a, b in zip(again.states, first.states):
        assert a.amps.tobytes() == b.amps.tobytes()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_twelve_site_projections_are_not_kept(boundary):
    # 10.9 MiB on the ring, 64.1 MiB on the chain, both above _KEEP_BYTES
    lat = LatticeSpec(12, boundary)
    cs.phase_scan(lat, [1.0])
    assert len(engine._KEPT) == 0
    with mock.patch.object(engine, "project_sectors",
                           wraps=engine.project_sectors) as spy:
        cs.phase_scan(lat, [1.0])
    assert spy.call_count == 1 and len(engine._KEPT) == 0


def test_the_memo_stays_within_its_bytes():
    # kept sizes in MiB: 10-site ring scan 0.853, 9-site chain scan 0.511,
    # 8-site ring scan 0.079, 10-site chain Hamiltonian 1.029, 10-site
    # chain scan 2.033 (3.994 in all, the 9-site chain scan evicted),
    # 9-site chain Hamiltonian 0.259 (the 8- and then the 10-site ring
    # evicted); a 12-site ring (10.861) is never kept.  The 10-site ring,
    # used again, outlives the 9-site chain scan
    ring, chain = LatticeSpec(10, "periodic"), LatticeSpec(9, "open")
    calls = [lambda: cs.phase_scan(ring, [0.8]),
             lambda: cs.phase_scan(chain, [0.8]),
             lambda: cs.phase_scan(LatticeSpec(8, "periodic"), [0.8]),
             lambda: cs.phase_scan(ring, [1.1]),
             lambda: cs.eig_low(cs.perturbed_hamiltonian(
                 LatticeSpec(10, "open"), 0.3), count=6),
             lambda: cs.phase_scan(LatticeSpec(10, "open"), [0.8]),
             lambda: cs.eig_low(cs.perturbed_hamiltonian(chain, 0.3),
                                count=6),
             lambda: cs.phase_scan(LatticeSpec(12, "periodic"), [1.0])]
    kept = []
    for call in calls:
        call()
        assert kept_bytes() <= engine._KEEP_BYTES
        kept.append([(p.table.length, p.table.group)
                     for p in engine._KEPT.values()])
    assert kept[5] == [(8, "TP"), (10, "TP"), (10, "RP"), (10, "RP")]
    assert kept[-1] == [(10, "RP"), (10, "RP"), (9, "RP")]


def test_shared_arrays_are_read_only():
    lat = LatticeSpec(8, "periodic")
    cs.phase_scan(lat, [0.9])
    [projected] = engine._KEPT.values()
    table = projected.table
    _, _, blocks = projected.sectors[1]
    arrays = [blocks[0], blocks[1], table.orbit, table.elem, table.chars,
              table.cols, table.reps, table.dims, table.first,
              *next(iter(projected.bases.values()))]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_another_term_order_is_another_entry():
    # _mask_rows adds a row's terms in insertion order, so the same sum
    # built in another order may round otherwise: it is kept on its own
    L = 8
    pairs = [(1.0, PauliString.from_sites(L, {j: "Z", j % L + 1: "X",
                                              (j + 1) % L + 1: "Z"}))
             for j in range(1, L + 1)]
    pairs += [(0.4, PauliString.from_sites(L, {j: "Y", j % L + 1: "Y"}))
              for j in range(1, L + 1)]
    forward = OperatorSum.from_terms(L, pairs)
    backward = OperatorSum.from_terms(L, pairs[::-1])
    assert forward == backward
    with mock.patch.object(engine, "project_sectors",
                           wraps=engine.project_sectors) as spy:
        cs.eig_low(forward, count=4)
        cs.eig_low(backward, count=4)
        cs.eig_low(forward, count=4)
    assert spy.call_count == 2
    assert len(engine._KEPT) == 2


def test_complex_rows_without_imaginary_parts_solve_real_blocks():
    # coefficient rows of complex dtype with zero imaginary parts are the
    # float rows: the same levels to the last bit, from float64 solves
    # alone and the float rows' chunks
    lat = LatticeSpec(10, "periodic")
    ops = (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0))
    rows = np.column_stack([np.ones(9), np.linspace(0.6, 1.4, 9)])
    want = [row for chunk in engine.family_low(ops, rows, 12)
            for row in chunk]
    with mock.patch.object(engine, "_subset_eigh",
                           wraps=engine._subset_eigh) as eigh, \
            mock.patch.object(engine, "sector_low",
                              wraps=engine.sector_low) as solve:
        got = [row for chunk in engine.family_low(
            ops, rows.astype(complex), 12) for row in chunk]
    assert eigh.call_count > 0
    assert all(c.args[0].dtype == np.float64 for c in eigh.call_args_list)
    assert solve.call_count == 2   # 8 rows, then 1
    for (vals, labels, states, _), (v, lab, s, _) in zip(got, want):
        assert vals.tobytes() == v.tobytes()
        assert labels.tobytes() == lab.tobytes()
        assert states[0].amps.tobytes() == s[0].amps.tobytes()


def test_complex_rows_raise():
    # a coupling row with an imaginary part is no Hermitian family member
    lat = LatticeSpec(8, "periodic")
    ops = (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0))
    for method in ("dense", "iterative"):
        with pytest.raises(DomainError, match="coupling rows must be real"):
            next(engine.family_low(ops, [[1.0, 0.5], [1.0, 0.5 + 1e-9j]], 4,
                                   method))


def snapshot(obj, seen: dict):
    """A copy of obj, every list, tuple, dict, array and dataclass under it
    copied too (a dataclass as its attributes, cached ones included), with
    every object met recorded in `seen` by id."""
    seen[id(obj)] = obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if dataclasses.is_dataclass(obj):
        return {k: snapshot(v, seen) for k, v in vars(obj).items()}
    if isinstance(obj, dict):
        return {k: snapshot(v, seen) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [snapshot(v, seen) for v in obj]
    return obj


def assert_same(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def test_a_kept_projection_is_never_written():
    # states of later calls expand from the kept table and write nothing
    # into the projection: it keeps its fields, values and objects
    lat = LatticeSpec(10, "periodic")
    cs.phase_scan(lat, [0.8, 1.2])
    [projected] = engine._KEPT.values()
    before_ids = {}
    before = snapshot(projected, before_ids)
    ops = (cs.cluster_hamiltonian(lat), cs.ising_perturbation(lat, 1.0))
    for grid in ([0.5, 0.9, 1.0], [1.1, 1.4]):
        for chunk in engine.family_low(
                ops, np.column_stack([np.ones(len(grid)), grid]), 12):
            for _, _, states, _ in chunk:
                for psi in states:
                    psi.amps
    [taken] = engine._KEPT.values()
    assert taken is projected
    for psi in cs.eig_low(cs.perturbed_hamiltonian(lat, 0.7), count=6).states:
        psi.amps
    assert any(p is projected for p in engine._KEPT.values())
    after_ids = {}
    assert_same(snapshot(projected, after_ids), before)
    assert after_ids.keys() == before_ids.keys()

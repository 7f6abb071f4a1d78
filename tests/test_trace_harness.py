"""The benchmark's span tracer (bench/spans.py) wraps functions by name, so a
rename or removal in the package silently drops a span or breaks a traced
run.  These tests load the tracer by path and hold it to the package."""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from clusterspt import cli

from conftest import _load_by_path

spans = _load_by_path(
    "spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")


@pytest.mark.parametrize("layer", sorted(spans.FUNCTIONS))
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"clusterspt.{layer}")
    for qual in spans.FUNCTIONS[layer]:
        owner = module
        for part in qual.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"clusterspt.{layer}.{qual}"
        assert callable(owner), f"clusterspt.{layer}.{qual}"


def test_traced_audit_sees_lazy_registry_entries():
    # entries built on first read still call the traced constructors
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["protect", "--size", "9", "--symbolic-only"]) == 0
    finally:
        tracer.uninstall()
    for name in ("cli.main", "models.build_model", "models.forbidden_set",
                 "models.global_symmetry_pair", "models.cross_check_global",
                 "clifford.conjugate_ucp", "analysis.default_probe_set"):
        assert tracer.stat(name).calls >= 1, name
    assert tracer.stat("models.local_symmetry_pair").calls == 0
    assert not hasattr(cli.main, "__wrapped__")

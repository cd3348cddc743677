"""Every job script and benchmark module imports: a stale import of a
deleted module fails here rather than at the next exhibit run. Only the
modules are loaded; no ``main`` runs."""
import glob
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY_POINTS = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("jobs/*.py", "benchmarks/bench_*.py")
    for p in glob.glob(os.path.join(ROOT, pattern)))


def test_entry_points_found():
    assert any(p.startswith("jobs") for p in ENTRY_POINTS)
    assert any(p.startswith("benchmarks") for p in ENTRY_POINTS)


@pytest.mark.parametrize("path", ENTRY_POINTS)
def test_imports(path):
    name = "entry_" + path[:-3].replace(os.sep, "_")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, path))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))

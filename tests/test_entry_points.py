"""Every job script and benchmark module imports: a stale import of a
deleted module fails here rather than at the next exhibit run. Only the
modules are loaded; no ``main`` runs. Every module, attribute, class,
source path and job or benchmark script that the docs name exists."""
import ast
import builtins
import glob
import importlib.util
import os
import re

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


DOCS = ("README.md", "DESIGN.md", "PAPER.md")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
PATH = re.compile(r"(?<![\w/.])(?:src/)?(repro/[\w/]+)\.py(?:::([\w.]+))?")
SCRIPT = re.compile(r"(?<![\w/.])(?:jobs|benchmarks)/\w+\.py")
# an inline code span: one or two backticks, not a ``` fence
SPAN = re.compile(r"(?<!`)(`{1,2})([^`]+)\1(?!`)")
WORD = re.compile(r"(?<![\w.])[A-Z]\w*")


def _module(name):
    """The module ``name``, or None if there is none (a missing dependency
    of an existing module still raises)."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as e:
        if e.name == name:
            return None
        raise


def _resolves(name):
    """``repro.x.y[.attr...]`` names an existing module or attribute: its
    longest module prefix has the rest as attributes."""
    parts = name.split(".")
    i = 1
    while i < len(parts) and _module(".".join(parts[:i + 1])) is not None:
        i += 1
    obj = _module(".".join(parts[:i]))
    if obj is None:
        return False
    for a in parts[i:]:
        if not hasattr(obj, a):
            return False
        obj = getattr(obj, a)
    return True


def _camel(word):
    """A CamelCase name: two capitals or more and a lower-case letter
    (``BubbleTree``, not ``Sc``, ``S`` or ``RDD``)."""
    return (sum(map(str.isupper, word)) >= 2
            and any(map(str.islower, word)))


def _repro_classes():
    """The names of the classes defined in the ``src/repro`` modules."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "src/repro/**/*.py"),
                          recursive=True):
        with open(path) as f:
            names.update(node.name for node in ast.walk(ast.parse(f.read()))
                         if isinstance(node, ast.ClassDef))
    return names


def _doc_texts():
    """(source, text) for the project docs and every ``src/repro`` module
    docstring. CHANGES.md, ROADMAP.md and EXPERIMENTS.md are records of
    past states and are left out."""
    for doc in DOCS:
        with open(os.path.join(ROOT, doc)) as f:
            yield doc, f.read()
    for path in sorted(glob.glob(os.path.join(ROOT, "src/repro/**/*.py"),
                                 recursive=True)):
        with open(path) as f:
            text = ast.get_docstring(ast.parse(f.read()))
        if text:
            yield os.path.relpath(path, ROOT), text


def test_doc_references_resolve():
    """Every backticked ``repro.x.y[.name]`` and every ``[src/]repro/...py``
    path (with its ``::name``, if any) in the docs and module docstrings
    names a module or attribute that exists, every ``jobs/...py`` and
    ``benchmarks/...py`` path names a file that exists, and every CamelCase
    name in an inline code span is a Python builtin or a class defined in
    ``src/repro``."""
    classes = _repro_classes()
    stale = []
    for source, text in _doc_texts():
        stale += [(source, w) for _, span in SPAN.findall(text)
                  for w in WORD.findall(span)
                  if _camel(w) and w not in classes
                  and not hasattr(builtins, w)]
        for span in re.findall(r"`+([^`]+)`+", text):
            stale += [(source, m) for m in DOTTED.findall(span)
                      if not _resolves(m)]
        for m in PATH.finditer(text):
            path, attr = m.group(1), m.group(2)
            name = path.removesuffix("/__init__").replace("/", ".")
            if not (os.path.exists(os.path.join(ROOT, "src", path + ".py"))
                    and _resolves(f"{name}.{attr}" if attr else name)):
                stale.append((source, m.group(0)))
        stale += [(source, p) for p in SCRIPT.findall(text)
                  if not os.path.exists(os.path.join(ROOT, p))]
    assert not stale, stale

"""The benchmark wraps kdvlab functions by name: each name must resolve."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrap_sites():
    """perfbench/tracing.py's SITES: (module, attribute, span name) triples."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no SITES in {TRACING}")


# Tracer.install runs on every benchmark run, traced or not, and resolves
# every site with getattr: one missing name fails every workload. A site is
# the function its span names (kdvlab.cli.big_m5 is kdvlab.imethod.big_m5),
# so a name kept only for the tracer still points at the right function.
@pytest.mark.parametrize("module, attr, name", wrap_sites())
def test_wrap_site_resolves(module, attr, name):
    site = getattr(importlib.import_module(module), attr)
    layer, function = name.split(".")
    assert callable(site)
    assert site is getattr(importlib.import_module(f"kdvlab.{layer}"), function)


def tracer_only_imports():
    """(module, name) of every name that a `# noqa: F401` import brings into
    a kdvlab module: a name the module does not use itself."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "kdvlab").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.lineno - 1]:
                found += [(f"kdvlab.{path.stem}", a.asname or a.name) for a in node.names]
    return found


# an unused import is kept only where the tracer wraps the name in that
# module; once its site goes, the import must go with it
@pytest.mark.parametrize("module, attr", tracer_only_imports())
def test_unused_import_is_a_wrap_site(module, attr):
    assert (module, attr) in {(m, a) for m, a, _ in wrap_sites()}

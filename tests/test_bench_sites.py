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

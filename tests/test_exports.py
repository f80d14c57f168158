"""Every name that kdvlab exports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import kdvlab


def test_every_exported_name_resolves():
    # a stale __all__ entry makes `from kdvlab.<module> import *` raise; a
    # name that __init__ imports must be an attribute of its module and of
    # the package
    missing = []
    for info in pkgutil.iter_modules(kdvlab.__path__):
        module = importlib.import_module(f"kdvlab.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    for node in ast.walk(ast.parse(Path(kdvlab.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""), "kdvlab")
            missing += [
                f"{node.module}.{a.name}" for a in node.names
                if not (hasattr(module, a.name) and hasattr(kdvlab, a.asname or a.name))
            ]
    assert missing == []

"""Every name a module exports in ``__all__`` must exist, every name the
package re-exports must be in its home module's ``__all__``, and no module
imports another module's private names."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import tomopack

MODULES = [
    "tomopack.cli",
    "tomopack.fileio",
    "tomopack.hilbert",
    "tomopack.metrics",
    "tomopack.powell",
    "tomopack.reference",
    "tomopack.schedule",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert module.__all__
    assert missing == []


def test_package_exports_are_module_exports():
    exports = {
        attr: obj.__module__
        for attr, obj in vars(tomopack).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert exports and set(exports.values()) <= set(MODULES)
    stray = [
        f"{home}.{attr}"
        for attr, home in exports.items()
        if attr not in importlib.import_module(home).__all__
    ]
    assert stray == []


@pytest.mark.parametrize(
    "path", sorted(Path(tomopack.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_private_names_cross_modules(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tomopack")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # __version__ is public
    ]
    assert private == []

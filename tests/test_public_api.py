"""Every name a module exports in ``__all__`` must exist, and every name the
package re-exports must be in its home module's ``__all__``."""

import importlib
import inspect

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

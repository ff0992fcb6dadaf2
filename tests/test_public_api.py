"""Every name a module exports in ``__all__`` must exist."""

import importlib

import pytest

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

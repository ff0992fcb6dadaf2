"""The benchmark in tomobench/ observes tomopack by replacing module-level
names.  Every name it replaces must still exist, or a traced benchmark run
fails at start-up."""

import sys
from pathlib import Path

import numpy as np

import tomopack.powell

TOMOBENCH = Path(__file__).resolve().parents[1] / "tomobench"


def test_layer_calls_resolve():
    sys.path.insert(0, str(TOMOBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(TOMOBENCH))
    assert tracing.LAYER_CALLS
    for module, attr, span in tracing.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_powell_passes_f_origin_by_keyword(monkeypatch):
    # tomobench counts improving lines from kwargs["f_origin"]; passed by
    # position it would read as missing and count no line as improving
    calls = []
    real_line = tomopack.powell.line_minimize

    def checked_line(f, *args, **kwargs):
        calls.append("f_origin" in kwargs)
        return real_line(f, *args, **kwargs)

    monkeypatch.setattr(tomopack.powell, "line_minimize", checked_line)
    tomopack.powell.powell_minimize(
        lambda x: float((x[0] - 1.0) ** 2 + 3.0 * (x[1] + x[0]) ** 2),
        np.array([0.3, 0.2]),
        tomopack.powell.PowellConfig(max_iterations=4),
    )
    assert calls and all(calls)

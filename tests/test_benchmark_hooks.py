"""The benchmark in tomobench/ observes tomopack by replacing module-level
names.  Every name it replaces must still exist, or a traced benchmark run
fails at start-up."""

import sys
from pathlib import Path

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

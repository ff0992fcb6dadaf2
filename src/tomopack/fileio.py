"""On-disk formats: chart files, metric reports, projector dumps, trace CSV.

All documents are JSON with a format_version field.  Floats are written with
Python's shortest-roundtrip repr, so every value survives a write/read cycle
at full double precision.  Every file is written whole or not at all: the
content goes to a temporary file beside the target, which then replaces it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import asdict, astuple
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .hilbert import chart_length
from .metrics import MetricsReport, worst_pairs

__all__ = [
    "ChartFileError",
    "write_chart",
    "read_chart",
    "report_document",
    "write_report",
    "write_trace_csv",
    "projector_set_document",
    "mub_family_document",
    "write_json",
]

FORMAT_VERSION = 1
# schedule.TraceRecord's fields in order; csv writes floats as str, their shortest round-trip form
TRACE_COLUMNS = [
    "phase", "iteration", "objective_kind", "objective", "quality", "ln_L", "evaluations", "elapsed_s",
]


class ChartFileError(ValueError):
    """Raised when a chart document is malformed; message names the field."""


@contextlib.contextmanager
def replacing(path, newline=None):
    """A text file to write in place of ``path``.

    Writes go to ``<path>.<pid>.tmp`` in the same directory, which replaces
    ``path`` (``os.replace``, atomic on POSIX) only when the block ends
    without an exception.  On any error the temporary file is removed and
    ``path`` is left as it was, so a crash never leaves a truncated file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, doc: dict, indent=None) -> None:
    """``doc`` as JSON, to ``path`` through ``replacing``, or to stdout when ``path`` is None.

    The document is encoded once, with ``json.dumps``, for either sink.
    """
    text = json.dumps(doc, indent=indent)
    if path is None:
        print(text)
        return
    with replacing(path) as fh:
        fh.write(text + "\n")


def chart_document(angles, n: int, l: int, seed=None) -> dict:
    angles = np.asarray(angles, dtype=float).reshape(-1)
    return {
        "format_version": FORMAT_VERSION,
        "n": int(n),
        "l": int(l),
        "fixed_first": True,
        "angles": angles.tolist(),
        "metadata": {
            "seed": seed,
            "created": datetime.now(timezone.utc).isoformat(),
            "tool_version": __version__,
        },
    }


def write_chart(path, angles, n: int, l: int, seed=None) -> None:
    write_json(path, chart_document(angles, n, l, seed=seed))


def read_chart(path) -> tuple[np.ndarray, int, int, dict]:
    """Load and validate a chart document; returns (angles, n, l, metadata)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ChartFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChartFileError(f"{path}: top-level value must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ChartFileError(f"{path}: field 'format_version' is {version!r}, expected {FORMAT_VERSION}")
    for key in ("n", "l", "angles"):
        if key not in doc:
            raise ChartFileError(f"{path}: missing field '{key}'")
    n, l = doc["n"], doc["l"]
    # type(...) is int: JSON true/false load as bool, an int subclass
    if not (type(n) is int and type(l) is int and 1 <= l < n):
        raise ChartFileError(f"{path}: fields 'n'/'l' invalid: n={n!r}, l={l!r}")
    if doc.get("fixed_first") is not True:
        raise ChartFileError(f"{path}: field 'fixed_first' must be true")
    angles = doc["angles"]
    expected = chart_length(n, l)
    if not isinstance(angles, list) or len(angles) != expected:
        got = len(angles) if isinstance(angles, list) else type(angles).__name__
        raise ChartFileError(
            f"{path}: field 'angles' must hold {expected} numbers for n={n}, l={l}, got {got}"
        )
    bad = next((k for k, a in enumerate(angles) if type(a) not in (int, float)), None)
    if bad is not None:
        raise ChartFileError(f"{path}: field 'angles' holds a non-number at index {bad}: {angles[bad]!r}")
    try:
        arr = np.asarray(angles, dtype=float)
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ChartFileError(f"{path}: field 'angles' contains non-finite values")
    return arr, n, l, doc.get("metadata", {})


def report_document(report: MetricsReport, gram: np.ndarray, n: int, l: int) -> dict:
    doc = {"format_version": FORMAT_VERSION, "n": int(n), "l": int(l)}
    doc.update(asdict(report))
    doc["worst_pairs"] = [
        {"i": i, "j": j, "abs_gram": value} for i, j, value in worst_pairs(gram)
    ]
    return doc


def write_report(path, report: MetricsReport, gram: np.ndarray, n: int, l: int) -> None:
    write_json(path, report_document(report, gram, n, l), indent=2)


def write_trace_csv(path, trace) -> None:
    """One row per ``TraceRecord``, under TRACE_COLUMNS."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(astuple(rec) for rec in trace)


LAYOUT = "row-major, re/im interleaved"


def _interleaved(matrices) -> list:
    """Each matrix of a stack as one flat list of floats, in LAYOUT order."""
    stack = np.ascontiguousarray(matrices, dtype=complex)
    return stack.view(float).reshape(len(stack), -1).tolist()  # re, im per entry


def projector_set_document(projectors: np.ndarray, n: int, l: int, extra: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": int(n),
        "l": int(l),
        "count": int(projectors.shape[0]),
        "layout": LAYOUT,
        "projectors": _interleaved(projectors),
        **extra,
    }


def mub_family_document(bases: list, deviation: float) -> dict:
    """A MUB family: each (n, n) basis matrix, columns the basis vectors, in LAYOUT order.

    ``deviation`` is the family's largest cross-basis deviation of |overlap|² from 1/n.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "mub_family",
        "n": int(bases[0].shape[0]),
        "bases_count": len(bases),
        "max_cross_overlap_sq_deviation": deviation,
        "layout": LAYOUT,
        "bases": _interleaved(bases),
    }

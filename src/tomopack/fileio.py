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
from dataclasses import asdict
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
    "replacing",
]

FORMAT_VERSION = 1
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


def chart_document(angles, n: int, l: int, seed=None) -> dict:
    angles = np.asarray(angles, dtype=float).reshape(-1)
    return {
        "format_version": FORMAT_VERSION,
        "n": int(n),
        "l": int(l),
        "fixed_first": True,
        "angles": [float(a) for a in angles],
        "metadata": {
            "seed": seed,
            "created": datetime.now(timezone.utc).isoformat(),
            "tool_version": __version__,
        },
    }


def write_chart(path, angles, n: int, l: int, seed=None) -> None:
    with replacing(path) as fh:
        json.dump(chart_document(angles, n, l, seed=seed), fh)
        fh.write("\n")


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
        {"i": i, "j": j, "abs_gram": value} for i, j, value in worst_pairs(gram, 10)
    ]
    return doc


def write_report(path, report: MetricsReport, gram: np.ndarray, n: int, l: int) -> None:
    with replacing(path) as fh:
        json.dump(report_document(report, gram, n, l), fh, indent=2)
        fh.write("\n")


def write_trace_csv(path, trace) -> None:
    """Trace rows to CSV with the documented column set."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            writer.writerow(
                [
                    rec.phase,
                    rec.iteration,
                    rec.objective_kind,
                    repr(rec.objective),
                    repr(rec.quality),
                    repr(rec.ln_l),
                    rec.evaluations,
                    repr(rec.elapsed_s),
                ]
            )


def _matrix_to_interleaved(matrix: np.ndarray) -> list:
    """Row-major flattening with re/im interleaved per entry."""
    flat = matrix.reshape(-1)
    out = np.empty(2 * flat.size, dtype=float)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return [float(v) for v in out]


def projector_set_document(projectors: np.ndarray, n: int, l: int, extra: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": int(n),
        "l": int(l),
        "count": int(projectors.shape[0]),
        "layout": "row-major, re/im interleaved",
        "projectors": [_matrix_to_interleaved(p) for p in projectors],
    }
    if extra:
        doc.update(extra)
    return doc

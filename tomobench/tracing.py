"""Counting and span recording around tomopack's public functions.

No tomopack module is edited.  Each layer is observed from outside: the
public name a caller looks up (``tomopack.cli.evaluate_quorum``,
``tomopack.powell.line_minimize``, ...) is replaced for the duration of a
``Probe.installed()`` block by a wrapper that counts the call and, when
tracing, records a span (name, start, end, parent).  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import tomopack.cli
import tomopack.metrics
import tomopack.powell
import tomopack.schedule

# (module whose global is replaced, attribute, span name).  A function is
# replaced in every module that looks it up, so calls between modules pass
# through the wrapper too.
LAYER_CALLS = [
    (tomopack.schedule, "quorum_from_chart", "hilbert.quorum_from_chart"),
    (tomopack.cli, "quorum_from_chart", "hilbert.quorum_from_chart"),
    (tomopack.metrics, "gram_matrix", "metrics.gram_matrix"),
    (tomopack.schedule, "gram_matrix", "metrics.gram_matrix"),
    (tomopack.cli, "gram_matrix", "metrics.gram_matrix"),
    (tomopack.metrics, "quality_from_gram", "metrics.quality_from_gram"),
    (tomopack.schedule, "quality_from_gram", "metrics.quality_from_gram"),
    (tomopack.metrics, "non_orthogonality_from_gram", "metrics.non_orthogonality_from_gram"),
    (tomopack.schedule, "non_orthogonality_from_gram", "metrics.non_orthogonality_from_gram"),
    (tomopack.schedule, "evaluate_quorum", "metrics.evaluate_quorum"),
    (tomopack.cli, "evaluate_quorum", "metrics.evaluate_quorum"),
    (tomopack.cli, "orthoplex_report", "metrics.orthoplex_report"),
    (tomopack.cli, "extend_to_maximal", "metrics.extend_to_maximal"),
    (tomopack.schedule, "powell_minimize", "powell.powell_minimize"),
    (tomopack.powell, "line_minimize", "powell.line_minimize"),
    (tomopack.cli, "read_chart", "fileio.read_chart"),
    (tomopack.cli, "report_document", "fileio.report_document"),
    (tomopack.cli, "projector_set_document", "fileio.projector_set_document"),
    (tomopack.cli, "halfdim_optimal_quorum_n4", "reference.halfdim_optimal_quorum_n4"),
]

# Only these are counted on the untraced run, where every wrapper costs time.
COUNTED_UNTRACED = {"metrics.gram_matrix"}


class Probe:
    """Per-run call counts, and spans while ``tracing`` is on."""

    def __init__(self) -> None:
        self.tracing = False
        self.calls: dict[str, int] = defaultdict(int)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        # line-search outcomes, seen through the line_minimize wrapper
        self.lines_improving = 0
        self.lines_unbracketed = 0
        self.line_evals = 0

    def clear(self) -> None:
        """Forget counts and spans, keeping the registered names."""
        self.calls.clear()
        for arr in (self.name_ids, self.parents, self.starts, self.ends, self.child):
            del arr[:]
        self.lines_improving = self.lines_unbracketed = self.line_evals = 0

    def wrap(self, name: str, fn):
        """``fn`` counted under ``name``, with a span per call when tracing."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        calls = self.calls
        line = name == "powell.line_minimize"

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(self.starts)
            parent = self._stack[-1] if self._stack else -1
            self.name_ids.append(nid)
            self.parents.append(parent)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.child.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
                if parent >= 0:
                    self.child[parent] += t1 - t0
            if line:
                self.line_evals += result.evals
                self.lines_unbracketed += not result.bracketed
                self.lines_improving += result.t != 0.0 and result.fval < kwargs.get(
                    "f_origin", float("inf")
                )
            return result

        return traced if self.tracing else counted

    @contextlib.contextmanager
    def installed(self, tracing: bool):
        """Replace the public names in LAYER_CALLS for the block's duration.

        Untraced, only the names in COUNTED_UNTRACED are replaced, by bare
        counters; traced, every name records spans.
        """
        self.tracing = tracing
        saved = []
        try:
            for module, attr, name in LAYER_CALLS:
                if tracing or name in COUNTED_UNTRACED:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.tracing = False

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, total seconds, self seconds) over recorded spans."""
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for nid, t0, t1, child in zip(self.name_ids, self.starts, self.ends, self.child):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path) -> None:
        """Write every span as CSV (id, name, parent, start_us, end_us)."""
        base = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_us,end_us\n")
            for i, (nid, parent, t0, t1) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                fh.write(
                    f"{i},{self.names[nid]},{parent},{(t0 - base) * 1e6:.3f},{(t1 - base) * 1e6:.3f}\n"
                )

"""The benchmark in tomobench/ observes tomopack by replacing module-level
names.  Every name it replaces must still exist, or a traced benchmark run
fails at start-up."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import tomopack
import tomopack.fileio
import tomopack.metrics
import tomopack.powell
import tomopack.schedule

TOMOBENCH = Path(__file__).resolve().parents[1] / "tomobench"


def _import_from_tomobench(name):
    sys.path.insert(0, str(TOMOBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(TOMOBENCH))


def test_layer_calls_resolve():
    tracing = _import_from_tomobench("tracing")
    assert tracing.LAYER_CALLS
    for module, attr, span in tracing.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_workloads_import():
    # the workloads import tomopack names at module level; one that is gone
    # fails here instead of in every benchmark run
    workloads = _import_from_tomobench("workloads")
    assert set(workloads.WORKLOADS) == {"n4_search", "n6_refine", "n6_report"}


def test_writer_calls_bind():
    # the calls the workloads make into fileio, as tomobench/workloads.py
    # writes them; a writer whose signature no longer takes them fails here
    fileio = tomopack.fileio
    inspect.signature(fileio.write_chart).bind("chart.json", np.zeros(612), 6, 3)
    inspect.signature(fileio.write_report).bind("report.json", None, np.eye(35), 6, 3)
    inspect.signature(fileio.write_trace_csv).bind("trace.csv", [])


def test_setup_code_names_resolve():
    # run.py pins the BLAS thread variables when imported, so its set-up
    # code is read from the source instead
    tree = ast.parse((TOMOBENCH / "run.py").read_text())
    setup = next(
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]
    )
    names = [
        alias.name
        for node in ast.walk(ast.parse(setup))
        if isinstance(node, ast.ImportFrom) and node.module == "tomopack"
        for alias in node.names
    ]
    assert names
    for name in names:
        assert callable(getattr(tomopack, name, None)), f"tomopack.{name}"


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
        tomopack.powell.PowellConfig(),
        4,
    )
    assert calls and all(calls)


def test_powell_passes_f_tol_by_keyword(monkeypatch):
    # each line's resolution δ follows the run's progress: sweep 1's
    # direction lines receive the run's f_tol, and every later line, along
    # a direction or the sweep displacement, _LINE_SHARE of the gain of the
    # sweep before it over n(|f| + 1), by keyword
    events = []
    real_line = tomopack.powell.line_minimize

    def checked_line(f, *args, **kwargs):
        events.append(("line", kwargs.get("f_tol"), "curvature" in kwargs, kwargs["f_origin"]))
        return real_line(f, *args, **kwargs)

    monkeypatch.setattr(tomopack.powell, "line_minimize", checked_line)
    cfg = tomopack.powell.PowellConfig(f_tol=1e-12)
    x0 = np.array([0.3, 0.2])
    tomopack.powell.powell_minimize(
        lambda x: float((x[0] - 1.0) ** 2 + 3.0 * (x[1] + x[0]) ** 2),
        x0,
        cfg,
        4,
        callback=lambda x, fval, nfev, sweep: events.append(("sweep", fval)),
    )
    lines = [event for event in events if event[0] == "line"]
    assert {direction for _, _, direction, _ in lines} == {True, False}  # both kinds ran
    n = x0.size
    expected = cfg.f_tol
    f_start = None
    checked = 0
    for event in events:
        if event[0] == "sweep":
            gain = f_start - event[1]
            expected = tomopack.powell._LINE_SHARE * gain / (n * (abs(event[1]) + 1.0))
            f_start = None
            continue
        _, f_tol, direction, f_origin = event
        if direction and f_start is None:
            f_start = f_origin  # f where the sweep's first line starts
        assert f_tol == expected
        checked += expected != cfg.f_tol
    assert checked  # lines after sweep 1 ran, at a resolution of their own


class TestStopPointHook:
    """n4_search finds the chart where a target is met by noting the chart
    of the last ``schedule.quorum_from_chart`` call whenever
    ``schedule.quality_from_gram`` reports a quality.  That holds only while
    every quality call follows the build of its own chart."""

    @pytest.fixture
    def events(self, monkeypatch):
        events = []
        build = tomopack.schedule.quorum_from_chart
        quality = tomopack.schedule.quality_from_gram

        def watch_build(chart, n, l):
            quorum = build(chart, n, l)
            events.append(("build", quorum))
            return quorum

        def watch_quality(gram):
            events.append(("quality", gram))
            return quality(gram)

        monkeypatch.setattr(tomopack.schedule, "quorum_from_chart", watch_build)
        monkeypatch.setattr(tomopack.schedule, "quality_from_gram", watch_quality)
        return events

    @staticmethod
    def assert_each_quality_follows_its_build(events):
        qualities = 0
        last_built = None
        for kind, value in events:
            if kind == "build":
                last_built = value
            else:
                qualities += 1
                assert last_built is not None
                assert np.array_equal(value, tomopack.metrics.gram_matrix(last_built))
        return qualities

    def test_volume_objective_call(self, events):
        chart = tomopack.random_chart(np.random.default_rng(1), 4, 2)
        objective = tomopack.make_objective(tomopack.schedule.NEG_LOG_QUALITY, 4, 2)
        objective(chart)
        assert [kind for kind, _ in events] == ["build", "quality"]
        self.assert_each_quality_follows_its_build(events)

    def test_one_sweep(self, events):
        chart = tomopack.random_chart(np.random.default_rng(1), 4, 2)
        result = tomopack.alternating_optimize(
            chart, 4, 2,
            tomopack.ScheduleConfig(phase_length=1, total_phases=1),
            tomopack.PowellConfig(x_tol=1e-9, f_tol=1e-12),
        )
        # every objective call, plus the sweep's record and the phase's
        # x_best (the start chart is Powell's first call, not ranked again)
        assert self.assert_each_quality_follows_its_build(events) == result.nfev + 2

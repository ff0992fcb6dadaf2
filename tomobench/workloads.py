"""The three workloads, each as a repeatable pass over tomopack's public API.

A pass returns how long the program took for its results (the benchmark's
own checks are outside every timed region), how many chart-to-Gram
evaluations the results needed, and how many of its operations failed.  Every output is checked by ``checks`` before the pass returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import tomopack.cli
import tomopack.fileio
import tomopack.metrics
import tomopack.reference
import tomopack.schedule
from tomopack import PowellConfig, ScheduleConfig, alternating_optimize, make_objective
from tomopack.hilbert import quorum_from_chart

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
STORED_CHART = os.path.join(HERE, "chart_n6.json")

# Line-search and sweep tolerances of the program's own acceptance criteria.
POWELL = PowellConfig(x_tol=1e-9, f_tol=1e-12)

# n4_search: one fixed start chart, so that evaluation counts compare code,
# not inputs.  Volume phases of 16 sweeps alternate with ln L phases of 2;
# the target is first met in the third phase, after both objectives ran.
N4_PANEL_SEED = 1
N4_SCHEDULE = ScheduleConfig(phase_length=16, l_phase_length=2, total_phases=40)
N4_TARGETS = (1e-2, 1e-4)

# n6_refine: single volume sweeps from the stored chart until the deviation
# is 2 % below the start; the cap on sweeps turns a stall into a failure.
N6_REFINE_SCHEDULE = ScheduleConfig(phase_length=1, total_phases=1)
N6_REFINE_GAIN = 0.98
N6_REFINE_MAX_SWEEPS = 3

# Searches sample their CPU time every this many objective calls.
BLOCK = 256

# n6_report: this many seeded random charts, plus the stored chart, a pass.
N6_REPORT_RANDOM_CHARTS = 4


def random_chart(rng: np.random.Generator, n: int, l: int) -> np.ndarray:
    """The benchmark's own chart generator: thetas in [0, pi/2), phases in [0, 2 pi)."""
    shape = (n * n - 2, l, n - l)
    thetas = rng.uniform(0.0, np.pi / 2.0, size=shape)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.concatenate([thetas, phis], axis=-1).reshape(-1)


def stored_chart() -> np.ndarray:
    with open(STORED_CHART) as fh:
        return np.asarray(json.load(fh)["angles"], dtype=float)


class OperationFailed(Exception):
    """The program raised or gave up on one operation."""


class TargetReached(Exception):
    """Raised from inside a search to stop it at its target."""


@dataclass
class PassResult:
    program_s: float          # program wall time for the pass's results
    program_cpu_s: float      # CPU time for the results at the pass's median rate
    results: int              # searches, refines or chart reports
    evals: int                # chart-to-Gram evaluations for those results
    failed: int = 0
    extra: dict = field(default_factory=dict)


def _cli(probe, argv) -> str:
    """Run one ``tomopack`` command in-process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = probe.wrap(f"cli.{argv[0]}", tomopack.cli.main)(list(argv))
    if code != 0:
        raise OperationFailed(f"tomopack {' '.join(argv)} exited with {code}")
    return out.getvalue()


class _SearchWatch:
    """Counts objective calls and notes when the program first computes a
    quality within each target.

    Every volume-phase objective call and every per-sweep record of the
    schedule passes its Gram matrix to ``quality_from_gram``; the watch sits
    on that name and on ``quorum_from_chart`` (to know which chart it was).
    """

    def __init__(self, probe, n: int, l: int, targets, stop_at_last: bool):
        self.probe = probe
        self.log_bound = math.log(checks.upper_bound(n, l))
        self.targets = sorted(targets, reverse=True)
        self.stop_at_last = stop_at_last
        self.calls = 0
        self.t0 = self.c0 = 0.0
        self.marks: list[float] = []   # CPU time after every BLOCK calls
        # target -> (objective calls, wall seconds, chart, reported log-quality)
        self.hits: dict[float, tuple[int, float, np.ndarray, float]] = {}
        self._chart = None

    def start(self) -> None:
        self.t0, self.c0 = time.perf_counter(), time.process_time()
        self.marks = [self.c0]

    def cpu_at_median_rate(self, calls: int) -> float:
        """CPU seconds for ``calls`` objective calls at the median rate of
        the whole blocks before them: a slow stretch of the machine moves a
        few blocks, not the median."""
        marks = self.marks[: calls // BLOCK + 1]
        blocks = [b - a for a, b in zip(marks, marks[1:])]
        if not blocks:
            return time.process_time() - self.c0
        return statistics.median(blocks) / BLOCK * calls

    def objective_factory(self, kind, n, l):
        fn = self.probe.wrap("schedule.objective", make_objective(kind, n, l))

        def objective(chart):
            self.calls += 1
            if self.calls % BLOCK == 0:
                self.marks.append(time.process_time())
            return fn(chart)

        return objective

    @contextlib.contextmanager
    def installed(self):
        sched = tomopack.schedule
        build, quality = sched.quorum_from_chart, sched.quality_from_gram

        def watch_build(chart, n, l):
            self._chart = chart
            return build(chart, n, l)

        def watch_quality(gram):
            res = quality(gram)
            if len(self.hits) < len(self.targets):
                dev = -math.expm1(res.log_quality - self.log_bound)
                for target in self.targets:
                    if dev <= target and target not in self.hits:
                        wall = time.perf_counter() - self.t0
                        chart = np.array(self._chart, dtype=float, copy=True)
                        self.hits[target] = (self.calls, wall, chart, res.log_quality)
                if self.stop_at_last and self.targets[-1] in self.hits:
                    raise TargetReached
            return res

        sched.quorum_from_chart, sched.quality_from_gram = watch_build, watch_quality
        try:
            yield self
        finally:
            sched.quorum_from_chart, sched.quality_from_gram = build, quality


def _check_hit(hit, n: int, l: int, target: float) -> float:
    """The chart where a target was met, checked by independent recomputation."""
    _calls, _wall, chart, reported = hit
    projectors = checks.projectors_from_chart(chart, n, l)
    checks.check_projectors(projectors, l)
    checks.check_chart_map(chart, n, l, quorum_from_chart(chart, n, l).projectors)
    log_q = checks.check_quality(projectors, n, l, reported)
    checks.check_deviation_at_most(log_q, n, l, target)
    return log_q


class N4Search:
    """Search from the fixed seeded n = 4, l = 2 chart until the deviation
    from the bound 1 is at most 1e-4."""

    name = "n4_search"
    ops_per_pass = 1

    def __init__(self, seed: int, out_dir: str, probe):
        self.probe = probe
        self.chart0 = random_chart(np.random.default_rng(N4_PANEL_SEED), 4, 2)
        self.first_end = None

    def run_pass(self) -> PassResult:
        watch = _SearchWatch(self.probe, 4, 2, N4_TARGETS, stop_at_last=True)
        search = self.probe.wrap("schedule.alternating_optimize", alternating_optimize)
        with watch.installed():
            watch.start()
            try:
                search(self.chart0, 4, 2, N4_SCHEDULE, POWELL, objective_factory=watch.objective_factory)
            except TargetReached:
                pass
        if N4_TARGETS[-1] not in watch.hits:
            return PassResult(0.0, 0.0, 1, watch.calls, failed=1)
        for target in N4_TARGETS:
            _check_hit(watch.hits[target], 4, 2, target)
        calls, wall, end_chart, _ = watch.hits[N4_TARGETS[-1]]
        cpu = watch.cpu_at_median_rate(calls)
        if self.first_end is None:
            self.first_end = end_chart
        checks.check_identical(self.first_end, end_chart, "n4_search end chart")
        return PassResult(
            wall, cpu, 1, calls,
            extra={"evals_to_1e-2": watch.hits[1e-2][0], "evals_to_1e-4": calls},
        )


class N6Refine:
    """Refine the stored n = 6 chart until the deviation is 2 % below the
    start, then write chart, report and trace and run ``evaluate`` and
    ``extend --out`` on the written chart."""

    name = "n6_refine"
    ops_per_pass = 1

    def __init__(self, seed: int, out_dir: str, probe):
        self.probe = probe
        self.out_dir = out_dir
        self.chart0 = stored_chart()
        start = checks.projectors_from_chart(self.chart0, 6, 3)
        checks.check_projectors(start, 3)
        self.start_log_q = checks.check_quality(start, 6, 3)
        self.target = N6_REFINE_GAIN * checks.relative_deviation(self.start_log_q, 6, 3)
        self.first_end = None

    def run_pass(self) -> PassResult:
        probe = self.probe
        watch = _SearchWatch(probe, 6, 3, (self.target,), stop_at_last=False)
        search = probe.wrap("schedule.alternating_optimize", alternating_optimize)
        x = self.chart0
        with watch.installed():
            watch.start()
            for _ in range(N6_REFINE_MAX_SWEEPS):
                before = watch.calls
                result = search(
                    x, 6, 3, N6_REFINE_SCHEDULE, POWELL, objective_factory=watch.objective_factory
                )
                checks.check_count(watch.calls - before, result.nfev)
                x = result.final_chart
                if watch.hits:
                    break
        if not watch.hits:
            return PassResult(0.0, 0.0, 1, watch.calls, failed=1)
        calls, wall, end_chart, _ = watch.hits[self.target]
        cpu = watch.cpu_at_median_rate(calls)
        log_q = _check_hit(watch.hits[self.target], 6, 3, self.target)
        if not log_q >= self.start_log_q:
            raise checks.CheckError("refined chart is below its start")
        if self.first_end is None:
            self.first_end = end_chart
        checks.check_identical(self.first_end, end_chart, "n6_refine end chart")
        self._write_and_report(result)
        return PassResult(wall, cpu, 1, calls)

    def _write_and_report(self, result) -> None:
        """What ``tomopack optimize`` writes, then ``evaluate`` and ``extend``."""
        probe, out = self.probe, self.out_dir
        chart_path = os.path.join(out, "chart.json")
        report_path = os.path.join(out, "report.json")
        trace_path = os.path.join(out, "trace.csv")
        extended_path = os.path.join(out, "extended.json")
        gram = tomopack.metrics.gram_matrix(quorum_from_chart(result.chart, 6, 3))
        probe.wrap("fileio.write_chart", tomopack.fileio.write_chart)(chart_path, result.chart, 6, 3)
        probe.wrap("fileio.write_report", tomopack.fileio.write_report)(
            report_path, result.report, gram, 6, 3
        )
        probe.wrap("fileio.write_trace_csv", tomopack.fileio.write_trace_csv)(trace_path, result.trace)
        evaluated = json.loads(_cli(probe, ["evaluate", chart_path]))
        _cli(probe, ["extend", chart_path, "--out", extended_path])
        probe.calls["fileio.bytes_written"] += sum(
            os.path.getsize(p) for p in (chart_path, report_path, trace_path, extended_path)
        )

        projectors = checks.projectors_from_chart(result.chart, 6, 3)
        log_q = checks.check_quality(projectors, 6, 3, evaluated["log_quality"])
        if not log_q >= self.start_log_q:
            raise checks.CheckError("written chart is below its start")
        with open(report_path) as fh:
            checks.check_quality(projectors, 6, 3, json.load(fh)["log_quality"])
        _check_extension_file(extended_path, result.chart, 6, 3)


def _check_extension_file(path, chart, n: int, l: int) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    projectors = checks.projectors_from_interleaved(doc["projectors"], n)
    checks.check_extension(projectors, n, l)
    checks.check_chart_map(chart, n, l, projectors[: n * n - 1])


class N6Report:
    """One-shot reports, no search: seeded random n = 6 charts and the stored
    chart each go through a write/read round trip, ``evaluate`` and
    ``extend --out``; then ``reference n4-rank2``, ``extend --reference n4``
    and the program's own bundled-chart loader."""

    name = "n6_report"
    ops_per_pass = N6_REPORT_RANDOM_CHARTS + 1 + 3

    def __init__(self, seed: int, out_dir: str, probe):
        self.probe = probe
        self.out_dir = out_dir
        rng = np.random.default_rng(seed)
        self.charts = [random_chart(rng, 6, 3) for _ in range(N6_REPORT_RANDOM_CHARTS)]
        self.charts.append(stored_chart())
        self.first_outputs = None

    def run_pass(self) -> PassResult:
        probe, out = self.probe, self.out_dir
        gram_before = probe.calls["metrics.gram_matrix"]
        outputs = []
        spent = spent_cpu = 0.0
        for i, chart in enumerate(self.charts):
            chart_path = os.path.join(out, f"chart{i}.json")
            extended_path = os.path.join(out, f"extended{i}.json")
            t0, c0 = time.perf_counter(), time.process_time()
            probe.wrap("fileio.write_chart", tomopack.fileio.write_chart)(chart_path, chart, 6, 3)
            angles, n, l, _meta = probe.wrap("fileio.read_chart", tomopack.fileio.read_chart)(chart_path)
            evaluated = _cli(probe, ["evaluate", chart_path])
            _cli(probe, ["extend", chart_path, "--out", extended_path])
            spent += time.perf_counter() - t0
            spent_cpu += time.process_time() - c0
            outputs.append((angles, evaluated, extended_path, (n, l)))
        ref_path = os.path.join(out, "reference_n4.json")
        ref_ext_path = os.path.join(out, "extended_n4.json")
        t0, c0 = time.perf_counter(), time.process_time()
        _cli(probe, ["reference", "n4-rank2", "--out", ref_path])
        _cli(probe, ["extend", "--reference", "n4", "--out", ref_ext_path])
        bundled = probe.wrap("reference.bundled_chart_n6", tomopack.reference.bundled_chart_n6)()
        spent += time.perf_counter() - t0
        spent_cpu += time.process_time() - c0
        gram_builds = probe.calls["metrics.gram_matrix"] - gram_before

        written = [ref_path, ref_ext_path]
        for i in range(len(self.charts)):
            written += [os.path.join(out, f"chart{i}.json"), os.path.join(out, f"extended{i}.json")]
        probe.calls["fileio.bytes_written"] += sum(os.path.getsize(p) for p in written)
        texts = [evaluated for _, evaluated, _, _ in outputs]
        if self.first_outputs is None:
            self._check_first(outputs, ref_path, ref_ext_path, bundled)
            self.first_outputs = (texts, [a for a, *_ in outputs])
        for first, again in zip(self.first_outputs[1], [a for a, *_ in outputs]):
            checks.check_identical(first, again, "chart read back")
        if texts != self.first_outputs[0]:
            raise checks.CheckError("evaluate output differs between passes of the same charts")
        return PassResult(spent, spent_cpu, len(self.charts), gram_builds)

    def _check_first(self, outputs, ref_path, ref_ext_path, bundled) -> None:
        for chart, (angles, evaluated, extended_path, (n, l)) in zip(self.charts, outputs):
            if (n, l) != (6, 3):
                raise checks.CheckError(f"chart read back as n={n}, l={l}")
            checks.check_identical(chart, angles, "chart after a write/read round trip")
            doc = json.loads(evaluated)
            projectors = checks.projectors_from_chart(chart, 6, 3)
            checks.check_projectors(projectors, 3)
            checks.check_quality(projectors, 6, 3, doc["log_quality"])
            _check_extension_file(extended_path, chart, 6, 3)
        with open(ref_path) as fh:
            ref = json.load(fh)
        projectors = checks.projectors_from_interleaved(ref["projectors"], 4)
        checks.check_projectors(projectors, 2)
        log_q = checks.check_quality(projectors, 4, 2, ref["report"]["log_quality"])
        checks.check_deviation_at_most(log_q, 4, 2, 1e-12)
        with open(ref_ext_path) as fh:
            ext = json.load(fh)
        checks.check_n4_extension(checks.projectors_from_interleaved(ext["projectors"], 4))
        bundled_projectors = checks.projectors_from_chart(bundled, 6, 3)
        checks.check_projectors(bundled_projectors, 3)
        checks.check_quality(bundled_projectors, 6, 3)


WORKLOADS = {w.name: w for w in (N4Search, N6Refine, N6Report)}

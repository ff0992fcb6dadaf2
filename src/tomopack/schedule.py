"""Two-objective alternating optimization of quorum charts.

Maximizing the spanned volume directly converges slowly, so phases that
minimize -log(quality) alternate with phases that minimize ln(L), the log of
the summed off-diagonal Gram magnitudes.  The best chart ever seen is always
tracked by quality, whatever the current phase objective is.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .hilbert import params_per_vector, quorum_from_chart
from .metrics import (
    MetricsReport,
    evaluate_quorum,  # not called here; kept for tomobench, whose traced run replaces it
    gram_matrix,
    non_orthogonality_from_gram,
    quality_from_gram,
    report_from_gram,
)
from .powell import PowellConfig, powell_minimize

__all__ = [
    "NEG_LOG_QUALITY",
    "LOG_L",
    "LOG_L_SENTINEL",
    "ScheduleConfig",
    "TraceRecord",
    "AlternatingResult",
    "MultiRestartResult",
    "make_objective",
    "random_chart",
    "alternating_optimize",
    "multi_restart",
]

NEG_LOG_QUALITY = "neg_log_quality"
LOG_L = "log_l"
# ln L is -inf at exact orthogonality; line searches need a finite stand-in.
LOG_L_SENTINEL = -1e12


@dataclass(frozen=True)
class ScheduleConfig:
    """Phase layout of one optimization run plus restart bookkeeping.

    ``l_phase_length`` caps the ln(L) phases separately; those sweeps cost
    more per line search and mostly serve to unstick the volume phases, so a
    shorter budget there is often the better trade.  None means use
    ``phase_length`` for both.
    """

    phase_length: int = 200   # Powell sweeps per phase
    total_phases: int = 20
    restart_count: int = 4
    rng_seed: int = 0
    l_phase_length: int | None = None

    def __post_init__(self):
        if self.phase_length <= 0 or self.total_phases <= 0 or self.restart_count <= 0:
            raise ValueError("schedule counts must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.l_phase_length is not None and self.l_phase_length <= 0:
            raise ValueError("l_phase_length must be positive when given")

    def sweeps_for(self, kind: str) -> int:
        if kind == LOG_L and self.l_phase_length is not None:
            return self.l_phase_length
        return self.phase_length


@dataclass(frozen=True)
class TraceRecord:
    phase: int
    iteration: int
    objective_kind: str
    objective: float
    quality: float
    ln_l: float
    evaluations: int
    elapsed_s: float


@dataclass
class AlternatingResult:
    chart: np.ndarray                 # best chart seen, ranked by quality
    report: MetricsReport             # metrics of that best chart
    gram: np.ndarray                  # Gram matrix of that best chart
    final_chart: np.ndarray | None = None  # where the schedule actually ended
    trace: list = field(default_factory=list)
    nfev: int = 0
    seed: int | None = None


@dataclass
class MultiRestartResult:
    best: AlternatingResult
    results: list = field(default_factory=list)   # full AlternatingResult per restart


def make_objective(kind: str, n: int, l: int):
    """Scalar objective over flat charts; both kinds share the same
    chart-to-Gram evaluation path as the reporting code."""
    if kind == NEG_LOG_QUALITY:

        def objective(chart):
            g = gram_matrix(quorum_from_chart(chart, n, l))
            return -quality_from_gram(g).log_quality

    elif kind == LOG_L:

        def objective(chart):
            g = gram_matrix(quorum_from_chart(chart, n, l))
            l_sum, ln_l = non_orthogonality_from_gram(g)
            return ln_l if l_sum > 0.0 else LOG_L_SENTINEL

    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    return objective


def random_chart(rng: np.random.Generator, n: int = 6, l: int = 3) -> np.ndarray:
    """Uniform random chart: thetas in [0, pi/2), phases in [0, 2 pi)."""
    m_free = n * n - 2
    half = params_per_vector(n, l) // 2
    thetas = rng.uniform(0.0, np.pi / 2.0, size=(m_free, l, half))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(m_free, l, half))
    return np.concatenate([thetas, phis], axis=-1).reshape(-1)


def _chart_metrics(chart, n, l):
    g = gram_matrix(quorum_from_chart(chart, n, l))
    qual = quality_from_gram(g)
    _, ln_l = non_orthogonality_from_gram(g)
    return g, qual, ln_l


class _LowestSeen:
    """An objective that remembers the chart of its lowest value."""

    def __init__(self, objective):
        self.objective = objective
        self.value, self.chart = np.inf, None

    def __call__(self, chart):
        value = self.objective(chart)
        if value < self.value:
            self.value, self.chart = value, np.array(chart, dtype=float, copy=True)
        return value


def alternating_optimize(
    chart0,
    n: int = 6,
    l: int = 3,
    sched: ScheduleConfig = ScheduleConfig(),
    cfg: PowellConfig = PowellConfig(),
    objective_factory=make_objective,
) -> AlternatingResult:
    """Run the alternating phase schedule from one starting chart.

    Phases alternate beginning with the -log(quality) objective.  Returns the
    best-ever chart ranked by quality, with its full metrics report and a
    per-sweep trace.  The report is computed from the Gram matrix built
    when that chart was first ranked, which the result also carries.
    Candidates are the chart at the end of every sweep and,
    per volume phase, the chart of lowest objective value that Powell
    evaluated (it may have evaluated a better point than it moved to).
    ``objective_factory(kind, n, l)`` exists so tests can substitute a
    sanity objective; candidates are still ranked by quality.
    """
    x = np.asarray(chart0, dtype=float).reshape(-1).copy()
    t_start = time.perf_counter()
    trace: list[TraceRecord] = []
    nfev_total = 0

    best_chart, best_gram, best_log_quality = x.copy(), None, -np.inf

    def consider(xk):
        """Metrics of xk; keeps xk and its Gram matrix as the best if its
        quality is the highest yet (log-quality is always finite, so the
        first chart considered is kept)."""
        nonlocal best_log_quality, best_chart, best_gram
        gram, qual, ln_l = _chart_metrics(xk, n, l)
        if qual.log_quality > best_log_quality:
            best_log_quality = qual.log_quality
            best_chart = np.array(xk, dtype=float, copy=True)
            best_gram = gram
        return qual, ln_l

    consider(x)

    for phase in range(1, sched.total_phases + 1):
        kind = NEG_LOG_QUALITY if phase % 2 == 1 else LOG_L
        objective = objective_factory(kind, n, l)
        if kind == NEG_LOG_QUALITY:
            objective = _LowestSeen(objective)
        phase_cfg = replace(cfg, max_iterations=sched.sweeps_for(kind))

        def record(xk, fval, nfev, sweep):
            qual, ln_l = consider(xk)
            trace.append(
                TraceRecord(
                    phase=phase,
                    iteration=sweep,
                    objective_kind=kind,
                    objective=fval,
                    quality=qual.quality,
                    ln_l=ln_l,
                    evaluations=nfev_total + nfev,
                    elapsed_s=time.perf_counter() - t_start,
                )
            )

        result = powell_minimize(objective, x, phase_cfg, callback=record)
        nfev_total += result.nfev
        if kind == NEG_LOG_QUALITY:
            consider(objective.chart)
        x = result.x

    return AlternatingResult(
        chart=best_chart,
        report=report_from_gram(best_gram, n, l),
        gram=best_gram,
        final_chart=x,
        trace=trace,
        nfev=nfev_total,
    )


def _run_restart(args) -> AlternatingResult:
    seed, n, l, sched, cfg = args
    rng = np.random.default_rng(seed)
    chart0 = random_chart(rng, n, l)
    result = alternating_optimize(chart0, n, l, sched, cfg)
    result.seed = seed
    return result


def multi_restart(
    sched: ScheduleConfig = ScheduleConfig(),
    cfg: PowellConfig = PowellConfig(),
    n: int = 6,
    l: int = 3,
    workers: int = 1,
) -> MultiRestartResult:
    """Independent alternating runs from random charts; best quality wins.

    Restart k starts from the chart drawn with seed sched.rng_seed + k, for
    k < sched.restart_count.  Restarts are independent, so with workers > 1
    they run in separate processes; results are reduced in seed order
    either way, which makes the outcome reproducible.
    """
    tasks = [(sched.rng_seed + k, n, l, sched, cfg) for k in range(sched.restart_count)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_restart, tasks))
    else:
        results = [_run_restart(t) for t in tasks]
    best = results[0]
    for r in results[1:]:
        if r.report.log_quality > best.report.log_quality:
            best = r
    return MultiRestartResult(best=best, results=results)

"""Run one tomopack benchmark workload and print its metrics.

    python3 tomobench/run.py --workload n4_search --seed 1 --seconds 25 --trace 0

Run from the root of a tomopack checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it (``ENV {...}``) records the environment of the run.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the set-up child; must be
# set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUNDLED = os.path.join(SRC, "tomopack", "data", "quorum_n6_rank3.json")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("n4_search", "n6_refine", "n6_report")

SETUP_CODE = """\
from tomopack import bundled_chart_n6, evaluate_quorum, quorum_from_chart
print(repr(evaluate_quorum(quorum_from_chart(bundled_chart_n6(), 6, 3)).log_quality))
"""


def steal_ticks() -> int | None:
    """Cumulative steal time of all CPUs, in clock ticks, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def time_setup() -> tuple[float, float, float]:
    """One cold set-up in a fresh interpreter: import tomopack and evaluate
    the bundled chart.

    Returns (CPU seconds, wall seconds, the log-quality it printed).  The CPU
    time (user + system) of the child leaves out the time the machine gives
    to others, which dominates the wall-time spread on a shared host.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, wall, float(proc.stdout.strip())


def environment(steal_before, steal_after) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "steal_ticks": {"before": steal_before, "after": steal_after},
    }


def run_passes(workload, probe, seconds: float, trace: bool):
    """Whole passes until the next one would end past ``seconds``.

    With ``trace``, the passes of the first half run untraced, as the
    reference for the tracing overhead, and the rest are traced.  Returns
    the passes as (result or None if the program failed, traced, seconds),
    and the check that failed, if one did; the run stops there.
    """
    from checks import CheckError

    passes = []
    begin = time.perf_counter()
    while True:
        # traced passes start once half the time has gone to untraced ones
        traced = trace and bool(passes) and (
            any(p[1] for p in passes) or time.perf_counter() - begin > seconds / 2
        )
        if traced and not any(p[1] for p in passes):
            probe.clear()
        t0 = time.perf_counter()
        try:
            with probe.installed(traced):
                result = workload.run_pass()
        except CheckError as exc:
            return passes, exc
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        duration = time.perf_counter() - t0
        passes.append((result, traced, duration))
        if trace and not traced:
            continue
        if time.perf_counter() - begin + duration > seconds:
            return passes, None


def median_timing(timed, cpu: bool = False) -> float:
    """Median program time per result; the first pass warms up when others exist."""
    per_result = [(r.program_cpu_s if cpu else r.program_s) / r.results for r in timed]
    return statistics.median(per_result[1:] if len(per_result) > 2 else per_result)


def end_to_end(passes, setup_s: float) -> dict:
    ok = [r for r, _, _ in passes if r is not None and not r.failed]
    evals = {r.evals / r.results for r in ok}
    if len(evals) > 1:
        from checks import CheckError

        raise CheckError(f"evaluation counts differ between passes: {sorted(evals)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "evals_per_result": (evals.pop(), "count"),
    }


def per_layer(passes, probe, setup_wall_s: float) -> dict:
    untraced = [r for r, t, _ in passes if r is not None and not r.failed and not t]
    traced = [r for r, t, _ in passes if r is not None and not r.failed and t]
    results = sum(r.results for r in traced)
    totals = probe.totals()
    calls = probe.calls

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))

    def mean(name, scale):
        count, seconds, _ = total(name)
        return scale * seconds / count if count else 0.0

    def per_result(value):
        return value / results

    out = {}
    for name in (
        "hilbert.quorum_from_chart", "metrics.gram_matrix", "metrics.quality_from_gram",
        "metrics.non_orthogonality_from_gram", "metrics.evaluate_quorum",
        "metrics.orthoplex_report", "metrics.extend_to_maximal", "schedule.objective",
        "fileio.write_chart", "fileio.read_chart", "fileio.write_report",
        "fileio.write_trace_csv", "fileio.report_document", "fileio.projector_set_document",
    ):
        out[f"{name}.calls"] = (per_result(total(name)[0]), "count")
        out[f"{name}.us"] = (mean(name, 1e6), "us")
    evals = total("schedule.objective")[0]
    lines = total("powell.line_minimize")[0]
    powell_self = total("powell.powell_minimize")[2] + total("powell.line_minimize")[2]
    out["powell.line_minimize.calls"] = (per_result(lines), "count")
    out["powell.evals_per_line"] = (probe.line_evals / lines if lines else 0.0, "count")
    out["powell.improving_lines"] = (probe.lines_improving / lines if lines else 0.0, "ratio")
    out["powell.unbracketed"] = (per_result(probe.lines_unbracketed), "count")
    out["powell.self_us_per_eval"] = (1e6 * powell_self / evals if evals else 0.0, "us")
    out["schedule.self_s"] = (
        per_result(total("schedule.alternating_optimize")[1] - total("powell.powell_minimize")[1]),
        "s",
    )
    out["fileio.bytes_written"] = (per_result(calls["fileio.bytes_written"]), "bytes")
    cli_names = [n for n in totals if n.startswith("cli.")]
    for sub in ("evaluate", "extend", "reference"):
        out[f"cli.{sub}.calls"] = (per_result(total(f"cli.{sub}")[0]), "count")
        out[f"cli.{sub}.ms"] = (mean(f"cli.{sub}", 1e3), "ms")
    cli_calls = sum(total(n)[0] for n in cli_names)
    cli_self = sum(total(n)[2] for n in cli_names)
    out["cli.self_ms"] = (1e3 * cli_self / cli_calls if cli_calls else 0.0, "ms")
    for name in ("reference.bundled_chart_n6", "reference.halfdim_optimal_quorum_n4"):
        out[f"{name}.ms"] = (mean(name, 1e3), "ms")
    extras = [r.extra for r in traced if r.extra]
    for key in ("evals_to_1e-2", "evals_to_1e-4"):
        out[f"search.{key}"] = (extras[0][key] if extras else 0, "count")
    plain_cpu = median_timing(untraced, cpu=True)
    out["result_s"] = (median_timing(untraced), "s")
    out["result_cpu_s"] = (plain_cpu, "s")
    out["result_s.traced"] = (median_timing(traced), "s")
    out["tracing.overhead"] = (100.0 * (median_timing(traced, cpu=True) / plain_cpu - 1.0), "%")
    out["setup_wall_s"] = (setup_wall_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tomopack", "__init__.py")):
        print(f"error: no tomopack source at {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    steal_before = steal_ticks()
    setup_s, setup_wall_s, setup_log_q = time_setup()

    import numpy as np

    import checks
    from tracing import Probe
    from workloads import WORKLOADS

    # the set-up child evaluated the program's bundled chart; read it apart
    # from the program and recompute its quality
    with open(BUNDLED) as fh:
        bundled = np.asarray(json.load(fh)["angles"], dtype=float)
    correct = True
    try:
        checks.check_quality(checks.projectors_from_chart(bundled, 6, 3), 6, 3, setup_log_q)
    except checks.CheckError as exc:
        print(f"check failed: set-up: {exc}", file=sys.stderr)
        correct = False

    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    probe = Probe()
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir, probe)
        passes, error = run_passes(workload, probe, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = workload.ops_per_pass
    attempted = ops * (len(passes) + (error is not None))
    failed = sum(ops if r is None else r.failed for r, _, _ in passes)
    metrics = {}
    if error is None and failed < attempted:
        try:
            metrics = per_layer(passes, probe, setup_wall_s) if args.trace else end_to_end(passes, setup_s)
        except checks.CheckError as exc:
            error = exc
    if error is not None:
        print(f"check failed: {args.workload}: {error}", file=sys.stderr)
        correct = False
    if args.trace and correct:
        probe.write_spans(os.path.join(OUT, f"spans-{args.workload}.csv"))

    print("ENV " + json.dumps(environment(steal_before, steal_ticks()), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())

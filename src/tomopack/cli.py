"""Command-line front end.

Subcommands: ``optimize`` (search for a quorum and write chart/report/trace),
``evaluate`` (metrics for a stored chart), ``extend`` (complement extension of
a half-dimensional quorum), ``reference`` (analytic constructions with their
verification reports).

Exit codes: 0 success, 2 bad flags or malformed/unsupported input,
3 unwritable output, 1 failed verification.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .fileio import (
    ChartFileError,
    mub_family_document,
    projector_set_document,
    read_chart,
    report_document,
    write_chart,
    write_json,
    write_report,
    write_trace_csv,
)
from .hilbert import chart_length, quorum_from_chart
from .metrics import (
    evaluate_quorum,  # not called here; kept for tomobench, whose traced run replaces it
    extend_to_maximal,
    gram_matrix,
    orthoplex_report,
    report_from_gram,
)
from .powell import PowellConfig
from .reference import (
    halfdim_optimal_quorum_n4,
    mub_family,
    pauli_quorum,
    verify_mub_family,
)
from .schedule import ScheduleConfig, alternating_optimize, multi_restart

__all__ = ["main", "entry"]


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_summary(report) -> None:
    print(f"quality = {report.quality!r}")
    print(f"relative_deviation = {report.relative_deviation!r}")
    print(f"ln_L = {report.ln_l!r}")


def cmd_optimize(args) -> int:
    try:
        chart_length(args.n, args.l)
        sched = ScheduleConfig(
            phase_length=args.sweeps_per_phase,
            total_phases=args.phases,
            restart_count=args.restarts,
            rng_seed=args.seed,
            l_phase_length=args.l_sweeps_per_phase,
        )
        cfg = PowellConfig(f_tol=args.f_tol, x_tol=args.x_tol)
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        # a resumed run refines its one chart, in this process
        if args.resume is not None and (args.restarts, args.seed, args.workers) != (
            ScheduleConfig.restart_count, ScheduleConfig.rng_seed, 1
        ):
            raise ValueError("--restarts, --seed and --workers do not apply to --resume")
    except ValueError as exc:
        return _fail(f"invalid flags: {exc}", 2)
    out_dir = args.out
    if not os.path.isdir(out_dir):
        return _fail(f"output directory does not exist: {out_dir}", 3)
    if not os.access(out_dir, os.W_OK):
        return _fail(f"output directory is not writable: {out_dir}", 3)
    targets = [os.path.join(out_dir, name) for name in ("chart.json", "report.json", "trace.csv")]
    chart_path, report_path, trace_path = targets
    # a search can run for hours: refuse a target that cannot be replaced before it starts
    blocked = [p for p in targets if os.path.isdir(p)]
    if blocked:
        return _fail(f"cannot write to output directory {out_dir}: {blocked[0]} is a directory", 3)

    if args.resume is not None:
        try:
            angles, n, l, _meta = read_chart(args.resume)
        except (OSError, ChartFileError) as exc:
            return _fail(str(exc), 2)
        if (n, l) != (args.n, args.l):
            return _fail(
                f"resume chart is for n={n}, l={l}, but flags request n={args.n}, l={args.l}", 2
            )
        result = alternating_optimize(angles, n, l, sched, cfg)
    else:
        mr = multi_restart(sched, cfg, n=args.n, l=args.l, workers=args.workers)
        result = mr.best

    try:
        write_chart(chart_path, result.chart, args.n, args.l, seed=result.seed)
        write_report(report_path, result.report, result.gram, args.n, args.l)
        write_trace_csv(trace_path, result.trace)
    except OSError as exc:
        return _fail(f"cannot write to output directory {out_dir}: {exc}", 3)
    _print_summary(result.report)
    print(f"wrote {chart_path}, {report_path}, {trace_path}")
    return 0


def cmd_evaluate(args) -> int:
    try:
        angles, n, l, _meta = read_chart(args.chart)
    except (OSError, ChartFileError) as exc:
        return _fail(str(exc), 2)
    gram = gram_matrix(quorum_from_chart(angles, n, l))
    write_json(None, report_document(report_from_gram(gram, n, l), gram, n, l), indent=2)
    return 0


def cmd_extend(args) -> int:
    if args.reference is not None:
        quorum = halfdim_optimal_quorum_n4()
    else:
        try:
            angles, n, l, _meta = read_chart(args.chart)
        except (OSError, ChartFileError) as exc:
            return _fail(str(exc), 2)
        quorum = quorum_from_chart(angles, n, l)
    try:
        maximal = extend_to_maximal(quorum)
        report = orthoplex_report(maximal, args.tol)
    except ValueError as exc:
        return _fail(str(exc), 2)
    doc = projector_set_document(maximal, quorum.n, quorum.l, extra={"orthoplex": asdict(report)})
    return _emit(doc, args.out)


def _emit(doc: dict, out_path) -> int:
    try:
        write_json(out_path, doc)
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", 3)
    return 0


def cmd_reference(args) -> int:
    name = args.name
    try:
        if name in ("mub2", "mub3", "mub4"):
            bases = mub_family(int(name[-1]))
            doc = mub_family_document(bases, verify_mub_family(bases))
        else:
            quorum = pauli_quorum(1) if name == "n2-rank1" else halfdim_optimal_quorum_n4()
            gram = gram_matrix(quorum)
            report = report_from_gram(gram, quorum.n, quorum.l)
            ub = report.upper_bound
            # the Pauli quorums are exact; a wrong projector moves some
            # Tr(Q_a Q_b) by O(1/n): 1e-9 is far from both
            if abs(report.quality - ub) > 1e-9 * ub or report.non_orthogonality_l > 1e-9:
                raise ValueError(f"quality {report.quality!r} vs bound {ub!r}")
            doc = projector_set_document(
                quorum.projectors,
                quorum.n,
                quorum.l,
                extra={"kind": name, "report": report_document(report, gram, quorum.n, quorum.l)},
            )
    except ValueError as exc:
        return _fail(f"verification failed: {exc}", 1)
    return _emit(doc, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomopack", description="Design near-optimal projector quorums for state tomography."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="search for a high-quality quorum")
    p_opt.add_argument("--n", type=int, default=6, help="Hilbert space dimension")
    p_opt.add_argument("--l", type=int, default=3, help="projector rank")
    sc, pc = ScheduleConfig, PowellConfig  # the defaults are the config classes' own
    p_opt.add_argument("--seed", type=int, default=sc.rng_seed, help="base RNG seed")
    p_opt.add_argument("--restarts", type=int, default=sc.restart_count, help="independent random restarts")
    p_opt.add_argument("--phases", type=int, default=sc.total_phases, help="alternating objective phases")
    p_opt.add_argument("--sweeps-per-phase", type=int, default=sc.phase_length, help="Powell sweeps per phase")
    p_opt.add_argument(
        "--l-sweeps-per-phase", type=int, default=sc.l_phase_length,
        help="separate sweep cap for the ln(L) phases (default: same as --sweeps-per-phase)",
    )
    p_opt.add_argument(
        "--f-tol", type=float, default=pc.f_tol,
        help="relative gain of a Powell sweep below which a run stops, and the resolution of "
        "its first sweep's line searches (see line_minimize)",
    )
    p_opt.add_argument(
        "--x-tol", type=float, default=pc.x_tol,
        help="line-search parameter tolerance (see line_minimize)",
    )
    p_opt.add_argument("--workers", type=int, default=1, help="parallel restart processes")
    p_opt.add_argument("--out", required=True, help="existing directory for chart/report/trace")
    p_opt.add_argument("--resume", default=None, help="chart file to refine instead of random starts")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="metrics report for a stored chart")
    p_eval.add_argument("chart", help="chart JSON file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_ext = sub.add_parser("extend", help="complement-extend a half-dimensional quorum")
    source = p_ext.add_mutually_exclusive_group(required=True)
    source.add_argument("chart", nargs="?", default=None, help="chart JSON file (l = n/2)")
    source.add_argument("--reference", choices=["n4"], help="use a built-in set instead")
    p_ext.add_argument("--tol", type=float, default=1e-6, help="orthoplex tolerance on d^2")
    p_ext.add_argument("--out", default=None, help="output file (default stdout)")
    p_ext.set_defaults(func=cmd_extend)

    p_ref = sub.add_parser("reference", help="emit an analytic construction with verification")
    p_ref.add_argument("name", choices=["mub2", "mub3", "mub4", "n2-rank1", "n4-rank2"])
    p_ref.add_argument("--out", default=None, help="output file (default stdout)")
    p_ref.set_defaults(func=cmd_reference)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 after --help
        return exc.code
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

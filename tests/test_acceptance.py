"""Acceptance suite: one test per criterion, each printing a PASS line.

The n=4 and n=6 optimization criteria run real searches with fixed seeds and
stop at the first restart that reaches the target, so their runtime depends
on how lucky the early seeds are (bounded by the stated restart caps).
"""

import numpy as np

from tomopack.hilbert import quorum_from_chart
from tomopack.metrics import (
    evaluate_quorum,
    gram_matrix,
    quality_from_gram,
    repetition_overhead,
    upper_bound,
)
from tomopack.powell import PowellConfig, powell_minimize
from tomopack.reference import halfdim_optimal_quorum_n4, rank1_optimal_quorum_n2
from tomopack.schedule import (
    ScheduleConfig,
    alternating_optimize,
    multi_restart,
)
from tomopack.hilbert import Quorum, random_chart

from oracles import chordal_distance_sq, quality_from_det, traceless_part


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_bound_attainment_n2():
    ub = upper_bound(2, 1)
    result = multi_restart(ScheduleConfig(restart_count=4), PowellConfig(), n=2, l=1)
    dev = (ub - result.best.report.quality) / ub
    _report(
        "analytic bound n=2",
        dev <= 1e-6,
        f"quality={result.best.report.quality:.12f}, relative deviation={dev:.3e}",
    )


def test_bound_attainment_n4_oracle():
    quorum = halfdim_optimal_quorum_n4()
    res = evaluate_quorum(quorum)
    l_sum = res.non_orthogonality_l
    ok = abs(res.quality - 1.0) <= 1e-10 and l_sum <= 1e-10
    _report(
        "analytic bound n=4 (oracle)",
        ok,
        f"quality={res.quality:.15f}, L={l_sum:.3e}",
    )


def test_bound_attainment_n4_optimizer():
    ub = upper_bound(4, 2)
    sched = ScheduleConfig(phase_length=60, l_phase_length=10, total_phases=2)
    cfg = PowellConfig(x_tol=1e-9, f_tol=1e-12)
    best_dev = np.inf
    used = []
    for seed in range(1, 7):
        rng = np.random.default_rng(seed)
        run = alternating_optimize(random_chart(rng, 4, 2), 4, 2, sched, cfg)
        dev = (ub - run.report.quality) / ub
        best_dev = min(best_dev, dev)
        used.append(seed)
        if best_dev <= 1e-4:
            break
    _report(
        "analytic bound n=4 (optimizer)",
        best_dev <= 1e-4,
        f"relative deviation={best_dev:.3e} after seeds {used}",
    )


def test_dimension6_scaled_target():
    # up to 8 restarts over fixed seeds, two at a time; stops at the first
    # batch whose best run reaches the scaled target
    ub = upper_bound(6, 3)
    assert abs(ub - 1206.6936670297534) < 1e-9
    cfg = PowellConfig(x_tol=1e-9, f_tol=1e-12)
    best_dev = np.inf
    bound_violation = 0.0
    used = []
    for batch in ([0, 1], [2, 3], [4, 5], [6, 7]):
        sched = ScheduleConfig(
            phase_length=20, l_phase_length=8, total_phases=6, restart_count=2, rng_seed=batch[0]
        )
        mr = multi_restart(sched, cfg, n=6, l=3, workers=2)
        for run in mr.results:
            for rec in run.trace:
                bound_violation = max(bound_violation, (rec.quality - ub) / ub)
        dev = (ub - mr.best.report.quality) / ub
        best_dev = min(best_dev, dev)
        used.extend(batch)
        if best_dev <= 1e-2:
            break
    ok = best_dev <= 1e-2 and bound_violation <= 1e-9
    _report(
        "dimension-6 scaled target",
        ok,
        f"best quality={(1 - best_dev) * ub:.2f} of {ub:.2f}, relative deviation="
        f"{best_dev:.3e} (target 1e-2), max bound violation={bound_violation:.2e}, seeds {used}",
    )


def test_repetition_overhead_relation():
    value = repetition_overhead(1.3e-4, 6)
    ok = 5e-6 <= value <= 1e-5
    _report("repetition overhead", ok, f"overhead(1.3e-4, n=6)={value:.3e}")


def test_property_suites():
    rng = np.random.default_rng(2024)
    # projector / traceless-part invariants and the Gram diagonal on 1000 charts
    worst_herm = worst_idem = worst_trace = worst_qnorm = worst_diag = 0.0
    for _ in range(1000):
        quorum = quorum_from_chart(rng.uniform(-np.pi, np.pi, 612), 6, 3)
        p = quorum.projectors
        worst_herm = max(worst_herm, np.max(np.abs(p - p.conj().transpose(0, 2, 1))))
        worst_idem = max(
            worst_idem, np.max(np.abs(np.einsum("mab,mbc->mac", p, p) - p))
        )
        worst_trace = max(
            worst_trace, np.max(np.abs(np.trace(p, axis1=1, axis2=2).real - 3.0))
        )
        q = traceless_part(p)
        norms = np.linalg.norm(q, axis=(1, 2))
        worst_qnorm = max(worst_qnorm, np.max(np.abs(norms - np.sqrt(1.5))))
        g = gram_matrix(quorum)
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(g) - 1.5)))
    assert worst_herm <= 1e-10
    assert worst_idem <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_qnorm <= 1e-10
    assert worst_diag <= 1e-10

    # unitary invariance of the quality on 100 (chart, unitary) pairs
    worst_rel = 0.0
    for _ in range(100):
        quorum = quorum_from_chart(rng.uniform(0, 2 * np.pi, 612), 6, 3)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u, _ = np.linalg.qr(z)
        rotated = np.einsum("ab,mbc,dc->mad", u, quorum.projectors, u.conj())
        lq0 = evaluate_quorum(quorum).log_quality
        lq1 = evaluate_quorum(Quorum(projectors=rotated, n=6, l=3)).log_quality
        worst_rel = max(worst_rel, abs(lq1 - lq0) / abs(lq0))
    assert worst_rel <= 1e-8

    # complement-extension identities
    quorum = quorum_from_chart(rng.uniform(0, 2 * np.pi, 612), 6, 3)
    eye = np.eye(6)
    for j in (0, 7, 20):
        assert abs(chordal_distance_sq(quorum.projectors[j], eye - quorum.projectors[j]) - 3.0) <= 1e-12
    for i, j in ((0, 1), (4, 9), (11, 30)):
        d_direct = chordal_distance_sq(quorum.projectors[i], quorum.projectors[j])
        d_comp = chordal_distance_sq(eye - quorum.projectors[i], eye - quorum.projectors[j])
        assert abs(d_direct - d_comp) <= 1e-10

    # orthoplex cross-pair identity on the n=4 oracle
    oracle = halfdim_optimal_quorum_n4()
    eye4 = np.eye(4)
    for i, j in ((0, 1), (2, 9), (5, 14)):
        d2 = chordal_distance_sq(oracle.projectors[i], eye4 - oracle.projectors[j])
        tr = np.einsum("ab,ba->", oracle.projectors[i], oracle.projectors[j]).real
        assert abs(d2 - tr) <= 1e-12

    # Powell monotonicity per sweep
    rosen = lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    history = []
    powell_minimize(rosen, np.array([-1.2, 1.0]), callback=lambda x, f, n, s: history.append(f))
    assert all(history[k + 1] <= history[k] + 1e-12 for k in range(len(history) - 1))

    # determinism under fixed seeds
    sched = ScheduleConfig(phase_length=25, total_phases=2, restart_count=2, rng_seed=3)
    cfg = PowellConfig()
    a = multi_restart(sched, cfg, n=2, l=1)
    b = multi_restart(sched, cfg, n=2, l=1)
    assert np.array_equal(a.best.chart, b.best.chart)
    assert _runs(a) == _runs(b)

    _report(
        "property suites",
        True,
        "projector/traceless invariants, Gram diagonal, unitary invariance, "
        "complement identities, orthoplex identity, Powell monotonicity, determinism",
    )


def _runs(mr):
    """(seed, quality) of every restart, in seed order."""
    return [(r.seed, r.report.quality) for r in mr.results]


def _det3_cofactor(g: np.ndarray) -> float:
    """Brute-force cofactor expansion, the independent oracle for m=3."""
    return (
        g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
        - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
        + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0])
    )


def test_oracle_equivalence():
    quorum = rank1_optimal_quorum_n2()
    g = gram_matrix(quorum)
    via_log = quality_from_gram(g).quality
    via_det = quality_from_det(g)
    agree = abs(via_log - via_det)
    cofactor = np.sqrt(max(_det3_cofactor(g), 0.0))
    agree_cofactor = abs(cofactor - via_log)
    ok = agree <= 1e-12 and agree_cofactor <= 1e-12
    _report(
        "oracle equivalence",
        ok,
        f"|exp(logdet/2) - sqrt(det)|={agree:.2e}, |cofactor - factorization|={agree_cofactor:.2e}",
    )

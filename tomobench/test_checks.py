"""The benchmark's checks reject wrong outputs and accept the analytic oracles.

    PYTHONPATH=src python3 -m pytest -q tomobench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from tomopack.metrics import quality_from_gram  # noqa: E402
from tomopack.reference import halfdim_optimal_quorum_n4  # noqa: E402

# The n = 2 oracle |0>, |+>, |+i> as a chart: (theta, phi) per free vector.
N2_ORACLE_CHART = np.array([np.pi / 4, 0.0, np.pi / 4, np.pi / 2])


def n4_oracle():
    return halfdim_optimal_quorum_n4().projectors


def n4_extension():
    p = n4_oracle()
    return np.concatenate([p, np.eye(4)[None] - p])


def random_chart(n, l, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n * n - 2, l, n - l)
    return np.concatenate(
        [rng.uniform(0, np.pi / 2, shape), rng.uniform(0, 2 * np.pi, shape)], axis=-1
    ).reshape(-1)


def test_n2_oracle_chart_is_accepted_at_the_bound():
    p = checks.projectors_from_chart(N2_ORACLE_CHART, 2, 1)
    checks.check_projectors(p, 1)
    log_q = checks.check_quality(p, 2, 1)
    checks.check_deviation_at_most(log_q, 2, 1, 1e-14)
    plus = np.full((2, 2), 0.5)
    assert np.max(np.abs(p[1] - plus)) < 1e-15


def test_n4_oracle_and_extension_are_accepted():
    p = n4_oracle()
    checks.check_projectors(p, 2)
    log_q = checks.check_quality(p, 4, 2, reported_log_quality=0.0)
    checks.check_deviation_at_most(log_q, 4, 2, 1e-14)
    checks.check_n4_extension(n4_extension())


def test_chart_map_matches_the_program():
    from tomopack.hilbert import quorum_from_chart

    for n, l in ((2, 1), (4, 2), (6, 3), (5, 2)):
        chart = random_chart(n, l, seed=n)
        checks.check_chart_map(chart, n, l, quorum_from_chart(chart, n, l).projectors)


def test_perturbed_projector_is_rejected():
    p = n4_oracle().copy()
    p[3, 0, 1] += 1e-8
    p[3, 1, 0] += 1e-8
    with pytest.raises(checks.CheckError, match="projector invariants"):
        checks.check_projectors(p, 2)


def test_wrong_chart_map_is_rejected():
    chart = random_chart(4, 2)
    p = checks.projectors_from_chart(chart, 4, 2)
    p[5] = p[6]
    with pytest.raises(checks.CheckError, match="chart map"):
        checks.check_chart_map(chart, 4, 2, p)


def test_quality_above_the_bound_is_rejected():
    # a Gram matrix scaled up by 1e-8 gives a volume above the analytic bound
    p = n4_oracle()
    g = checks.gram(p, 4, 2) * (1 + 1e-8)
    with pytest.raises(checks.CheckError, match="exceeds the bound"):
        checks.check_below_bound(checks.log_quality(g), 4, 2)


def test_misreported_quality_is_rejected():
    # random n = 6 charts are ill-conditioned (cond(G) up to ~1e7), and the
    # program's eigenvalue path still agrees within m^2*eps*cond(G)
    for seed in range(4):
        p = checks.projectors_from_chart(random_chart(6, 3, seed), 6, 3)
        checks.check_quality(p, 6, 3, quality_from_gram(checks.gram(p, 6, 3)).log_quality)
    # the oracle's Gram matrix is the identity, so the tolerance is ~1e-13
    p = n4_oracle()
    with pytest.raises(checks.CheckError, match="differs from the Cholesky"):
        checks.check_quality(p, 4, 2, reported_log_quality=-1e-9)


def test_broken_complement_pair_is_rejected():
    ext = n4_extension()
    ext[15 + 4] = ext[4]  # "complement" equal to its partner: d^2 = 0, not 2
    with pytest.raises(checks.CheckError):
        checks.check_extension(ext, 4, 2)
    swapped = n4_extension()
    swapped[[15 + 2, 15 + 3]] = swapped[[15 + 3, 15 + 2]]
    with pytest.raises(checks.CheckError, match="complementary pairs"):
        checks.check_extension(swapped, 4, 2)


def test_miscounted_evaluations_are_rejected():
    checks.check_count(11317, 11317)
    with pytest.raises(checks.CheckError, match="counted 11316"):
        checks.check_count(11316, 11317)


def test_missed_target_and_changed_repeat_are_rejected():
    with pytest.raises(checks.CheckError, match="misses the target"):
        checks.check_deviation_at_most(np.log(1 - 2e-4), 4, 2, 1e-4)
    a = random_chart(4, 2)
    b = a.copy()
    b[7] = np.nextafter(b[7], 10.0)
    checks.check_identical(a, a.copy(), "chart")
    with pytest.raises(checks.CheckError, match="differs between passes"):
        checks.check_identical(a, b, "chart")

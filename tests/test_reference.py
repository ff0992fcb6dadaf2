import numpy as np
import pytest

from tomopack.metrics import (
    evaluate_quorum,
    extend_to_maximal,
    gram_matrix,
    orthoplex_report,
    upper_bound,
)
from tomopack.powell import PowellConfig
from tomopack.reference import (
    halfdim_optimal_quorum_n4,
    mub_family,
    rank1_optimal_quorum_n2,
    verify_mub_family,
)
from tomopack.schedule import ScheduleConfig, alternating_optimize
from tomopack.hilbert import quorum_from_chart

from oracles import CHART_N2_ORACLE, chordal_distance_sq


def extend_and_verify_n4(tol=1e-10):
    """Complement-extend the n=4 oracle to 30 projectors and verify the packing.

    Returns (the 30 projectors, OrthoplexReport).  Every non-complementary pair sits
    at d^2 = 1 and complementary pairs at d^2 = 2.
    """
    q = halfdim_optimal_quorum_n4()
    maximal = extend_to_maximal(q)
    report = orthoplex_report(maximal, tol)
    m = len(q.projectors)
    comp_d2 = np.array(
        [
            2.0 - np.einsum("ab,ba->", maximal[j], maximal[j + m]).real
            for j in range(m)
        ]
    )
    assert np.max(np.abs(comp_d2 - 2.0)) <= 1e-12, "complementary pairs are not at distance 2"
    return maximal, report


class TestMubFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_size_and_invariants(self, n):
        bases = mub_family(n)
        assert len(bases) == n + 1
        verify_mub_family(bases)

    def test_cross_overlaps_exact_value(self):
        bases = mub_family(3)
        for a in range(4):
            for b in range(a + 1, 4):
                ov = np.abs(bases[a].conj().T @ bases[b]) ** 2
                assert np.max(np.abs(ov - 1.0 / 3.0)) <= 1e-12

    def test_verify_returns_largest_cross_deviation(self):
        bases = mub_family(4)
        worst = max(
            np.max(np.abs(np.abs(bases[a].conj().T @ bases[b]) ** 2 - 0.25))
            for a in range(5)
            for b in range(a + 1, 5)
        )
        assert verify_mub_family(bases) == worst

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            mub_family(5)

    def test_qubit_family_is_the_textbook_one(self):
        bases = mub_family(2)
        s = 1 / np.sqrt(2)
        assert np.allclose(bases[0], np.eye(2))
        assert np.allclose(np.abs(bases[1]), s)
        assert np.allclose(np.abs(bases[2]), s)


class TestRank1OracleN2:
    def test_quality_at_bound(self):
        quorum = rank1_optimal_quorum_n2()
        res = evaluate_quorum(quorum)
        ub = upper_bound(2, 1)
        assert abs(res.quality - ub) <= 1e-10 * ub
        assert abs(res.quality - 0.3535533905932738) < 1e-12

    def test_zero_non_orthogonality(self):
        l_sum = evaluate_quorum(rank1_optimal_quorum_n2()).non_orthogonality_l
        assert l_sum <= 1e-10

    def test_gram_is_half_identity(self):
        g = gram_matrix(rank1_optimal_quorum_n2())
        assert np.allclose(g, 0.5 * np.eye(3), atol=1e-14)


class TestHalfdimOracleN4:
    def test_count_and_quality(self):
        quorum = halfdim_optimal_quorum_n4()
        assert len(quorum.projectors) == 15
        res = evaluate_quorum(quorum)
        assert abs(res.quality - 1.0) <= 1e-10
        assert res.non_orthogonality_l <= 1e-10

    def test_same_basis_pair_trace(self):
        # shared first vector forces Tr(P_a P_b) = 1 within a basis
        quorum = halfdim_optimal_quorum_n4()
        for base in range(5):
            trio = quorum.projectors[3 * base : 3 * base + 3]
            for a in range(3):
                for b in range(a + 1, 3):
                    tr = np.einsum("ab,ba->", trio[a], trio[b]).real
                    assert abs(tr - 1.0) < 1e-12

    def test_cross_basis_pair_trace(self):
        quorum = halfdim_optimal_quorum_n4()
        tr = np.einsum("ab,ba->", quorum.projectors[0], quorum.projectors[3]).real
        assert abs(tr - 1.0) < 1e-12

    def test_orthoplex_all_pairs_at_bound(self):
        report = orthoplex_report(extend_to_maximal(halfdim_optimal_quorum_n4()), 1e-10)
        assert report.all_unbiased
        assert abs(report.min_d2 - 1.0) < 1e-10
        assert abs(report.max_d2 - 1.0) < 1e-10


class TestMaximalExtensionN4:
    def test_thirty_elements_and_distances(self):
        maximal, report = extend_and_verify_n4()
        assert maximal.shape == (30, 4, 4)
        # the 15 complementary pairs (distance 2) are not scored; all others sit at the bound
        assert report.pairs_total == 420
        assert report.at_bound == 420
        assert report.all_unbiased
        assert abs(report.min_d2 - 1.0) < 1e-10
        assert abs(report.max_d2 - 1.0) < 1e-10

    def test_cross_pair_identity(self):
        # d^2(P_i, 1 - P_j) equals Tr(P_i P_j) for half-dimensional ranks
        p, _ = extend_and_verify_n4()
        for i, j in [(0, 1), (2, 9), (5, 14)]:
            d2 = chordal_distance_sq(p[i], p[j + 15])
            tr = np.einsum("ab,ba->", p[i], p[j]).real
            assert abs(d2 - tr) < 1e-12


class TestOracleChart:
    def test_chart_reproduces_oracle(self):
        quorum = quorum_from_chart(CHART_N2_ORACLE, 2, 1)
        res = evaluate_quorum(quorum)
        assert abs(res.quality - upper_bound(2, 1)) <= 1e-12

    def test_optimizer_returns_to_bound_after_noise(self):
        rng = np.random.default_rng(123)
        noisy = CHART_N2_ORACLE + rng.normal(scale=1e-2, size=4)
        res = alternating_optimize(
            noisy,
            2,
            1,
            ScheduleConfig(phase_length=60, total_phases=2),
            PowellConfig(f_tol=1e-13, x_tol=1e-11),
        )
        ub = upper_bound(2, 1)
        assert (ub - res.report.quality) / ub <= 1e-8

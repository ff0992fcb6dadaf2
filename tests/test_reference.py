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
    pauli_quorum,
    verify_mub_family,
)
from tomopack.schedule import ScheduleConfig, alternating_optimize
from tomopack.hilbert import quorum_from_chart

from oracles import CHART_N2_ORACLE, chordal_distance_sq, fixed_first_projector


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


class TestPauliQuorum:
    """(1 + σ)/2 over the non-identity Pauli strings σ of n = 2^k: k <= 4 here,
    since the array grows as 16^k (k = 6 would take 268 MB)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gram_is_exact(self, k):
        quorum = pauli_quorum(k)
        n = 2**k
        assert (quorum.n, quorum.l) == (n, n // 2)
        assert quorum.projectors.shape == (n * n - 1, n, n)
        assert np.array_equal(gram_matrix(quorum), (n / 4) * np.eye(n * n - 1))
        assert evaluate_quorum(quorum).non_orthogonality_l == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_element_0_is_the_pinned_projector(self, k):
        n = 2**k
        assert np.array_equal(pauli_quorum(k).projectors[0], fixed_first_projector(n, n // 2))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_projectors_are_exact(self, k):
        p = pauli_quorum(k).projectors
        n = 2**k
        assert np.array_equal(p, p.conj().transpose(0, 2, 1))
        assert np.array_equal(p @ p, p)
        assert np.array_equal(np.trace(p, axis1=1, axis2=2), np.full(n * n - 1, n / 2))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_quality_at_bound(self, k):
        # G is exact; the remaining deviation is rounding in the m log-eigenvalues
        report = evaluate_quorum(pauli_quorum(k))
        assert abs(report.relative_deviation) <= 1e-13
        if k <= 2:
            assert report.quality == upper_bound(2**k, 2 ** (k - 1))

    @pytest.mark.parametrize("k,pairs", [(1, 12), (2, 420), (3, 7812)])
    def test_extension_at_orthoplex_distance(self, k, pairs):
        quorum = pauli_quorum(k)
        n, l = quorum.n, quorum.l
        maximal = extend_to_maximal(quorum)
        report = orthoplex_report(maximal, 1e-15)
        # the m complement pairs sit at d^2 = l and are not scored; all others sit at the bound
        assert report.pairs_total == report.at_bound == pairs
        assert report.min_d2 == report.max_d2 == l * (n - l) / n
        assert report.all_unbiased
        m = len(quorum.projectors)
        for j in range(m):
            assert chordal_distance_sq(maximal[j], maximal[j + m]) == l

    def test_k1_is_the_n2_oracle_chart(self):
        # |0>, |+>, |+i> in the chart's order; the chart's trigonometry rounds
        pauli = pauli_quorum(1).projectors
        chart = quorum_from_chart(CHART_N2_ORACLE, 2, 1).projectors
        assert np.max(np.abs(pauli - chart)) <= 2.3e-16

    def test_n4_oracle_is_k2(self):
        quorum = halfdim_optimal_quorum_n4()
        assert (quorum.n, quorum.l) == (4, 2)
        assert np.array_equal(quorum.projectors, pauli_quorum(2).projectors)

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            pauli_quorum(k)


class TestRank1OracleN2:
    """The n = 2 rank-1 oracle is pauli_quorum(1): |0>, |+>, |+i>."""

    def test_quality_at_bound(self):
        res = evaluate_quorum(pauli_quorum(1))
        assert res.quality == upper_bound(2, 1)
        assert res.quality == 0.3535533905932738

    def test_zero_non_orthogonality(self):
        assert evaluate_quorum(pauli_quorum(1)).non_orthogonality_l == 0.0

    def test_gram_is_half_identity(self):
        assert np.array_equal(gram_matrix(pauli_quorum(1)), 0.5 * np.eye(3))


def _pair_traces(projectors, commuting):
    """Tr(P_a P_b) over the pairs a < b whose projectors do (or do not) commute."""
    m = len(projectors)
    traces = []
    for a in range(m):
        for b in range(a + 1, m):
            pa, pb = projectors[a], projectors[b]
            if np.array_equal(pa @ pb, pb @ pa) == commuting:
                traces.append(np.einsum("ab,ba->", pa, pb).real)
    return np.array(traces)


class TestHalfdimOracleN4:
    def test_count_and_quality(self):
        quorum = halfdim_optimal_quorum_n4()
        assert len(quorum.projectors) == 15
        res = evaluate_quorum(quorum)
        assert res.quality == 1.0
        assert res.non_orthogonality_l == 0.0

    def test_same_basis_pair_trace(self):
        # commuting Pauli strings share an eigenbasis: 15 * 6 / 2 = 45 such pairs
        traces = _pair_traces(halfdim_optimal_quorum_n4().projectors, commuting=True)
        assert len(traces) == 45
        assert np.array_equal(traces, np.ones(45))

    def test_cross_basis_pair_trace(self):
        # anticommuting Pauli strings: 15 * 8 / 2 = 60 such pairs
        traces = _pair_traces(halfdim_optimal_quorum_n4().projectors, commuting=False)
        assert len(traces) == 60
        assert np.array_equal(traces, np.ones(60))

    def test_orthoplex_all_pairs_at_bound(self):
        report = orthoplex_report(extend_to_maximal(halfdim_optimal_quorum_n4()), 1e-15)
        assert report.all_unbiased
        assert report.min_d2 == report.max_d2 == 1.0


class TestMaximalExtensionN4:
    def test_thirty_elements_and_distances(self):
        maximal = extend_to_maximal(halfdim_optimal_quorum_n4())
        assert maximal.shape == (30, 4, 4)
        report = orthoplex_report(maximal, 1e-15)
        # the 15 complementary pairs (distance 2) are not scored; all others sit at the bound
        assert report.pairs_total == 420
        assert report.at_bound == 420
        assert report.all_unbiased
        assert report.min_d2 == report.max_d2 == 1.0
        for j in range(15):
            assert chordal_distance_sq(maximal[j], maximal[j + 15]) == 2.0

    def test_cross_pair_identity(self):
        # d^2(P_i, 1 - P_j) equals Tr(P_i P_j) for half-dimensional ranks
        p = extend_to_maximal(halfdim_optimal_quorum_n4())
        for i, j in [(0, 1), (2, 9), (5, 14)]:
            d2 = chordal_distance_sq(p[i], p[j + 15])
            assert d2 == np.einsum("ab,ba->", p[i], p[j]).real


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

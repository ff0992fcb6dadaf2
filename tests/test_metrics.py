import numpy as np
import pytest

from tomopack.hilbert import (
    Quorum,
    _projectors,
    chart_length,
    quorum_from_chart,
)
from tomopack.metrics import (
    evaluate_quorum,
    extend_to_maximal,
    gram_matrix,
    non_orthogonality_from_gram,
    orthoplex_report,
    quality_from_gram,
    repetition_overhead,
    report_from_gram,
    upper_bound,
    worst_pairs,
)
from tomopack.reference import bundled_chart_n6, halfdim_optimal_quorum_n4, rank1_optimal_quorum_n2

from oracles import chordal_distance_sq, fixed_first_projector, quality_from_det


def _mub_trio_quorum():
    """Built here from explicit vectors, independently of the reference module."""
    v0 = np.array([1, 0], dtype=complex)
    vp = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    projectors = np.stack([np.outer(v, v.conj()) for v in (v0, vp, vi)])
    return Quorum(projectors=projectors, n=2, l=1)


def _random_quorum(seed=0, n=6, l=3):
    rng = np.random.default_rng(seed)
    return quorum_from_chart(rng.uniform(0, 2 * np.pi, chart_length(n, l)), n, l)


class TestGramMatrix:
    def test_diagonal_is_fixed_norm_squared(self):
        g = gram_matrix(_random_quorum())
        assert np.allclose(np.diag(g), 1.5, atol=1e-10)

    def test_complement_pair_entry(self):
        quorum = _random_quorum(seed=2)
        projectors = quorum.projectors.copy()
        projectors[1] = np.eye(6) - projectors[0]
        g = gram_matrix(Quorum(projectors=projectors, n=6, l=3))
        assert abs(g[0, 1] + 1.5) < 1e-14

    def test_mub_trio_gram_is_half_identity(self):
        g = gram_matrix(_mub_trio_quorum())
        assert np.allclose(g, 0.5 * np.eye(3), atol=1e-14)

    def test_symmetry_and_psd(self):
        g = gram_matrix(_random_quorum(seed=5))
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g)[0] >= -1e-9


class TestQualityMeasure:
    def test_mub_trio_value(self):
        res = evaluate_quorum(_mub_trio_quorum())
        assert abs(res.quality - 0.5**1.5) < 1e-12
        assert not res.degenerate

    def test_repeated_projector_is_degenerate(self):
        quorum = _mub_trio_quorum()
        projectors = quorum.projectors.copy()
        projectors[2] = projectors[1]
        res = evaluate_quorum(Quorum(projectors=projectors, n=2, l=1))
        assert res.quality == 0.0
        assert res.degenerate

    def test_log_and_det_paths_agree(self):
        g = gram_matrix(_mub_trio_quorum())
        res = quality_from_gram(g)
        assert abs(res.quality - quality_from_det(g)) < 1e-12
        g4 = gram_matrix(halfdim_optimal_quorum_n4())
        res4 = quality_from_gram(g4)
        assert abs(res4.quality - quality_from_det(g4)) < 1e-9

    def test_quality_squared_matches_det(self):
        for quorum in (_mub_trio_quorum(), halfdim_optimal_quorum_n4()):
            g = gram_matrix(quorum)
            res = quality_from_gram(g)
            det = np.linalg.det(g)
            assert abs(res.quality**2 - det) <= 1e-9 * max(abs(det), 1e-30)


class TestUpperBound:
    def test_values(self):
        assert abs(upper_bound(6, 3) - 1.5**17.5) < 1e-9
        assert abs(upper_bound(6, 3) - 1206.6936670297534) < 1e-9
        assert upper_bound(4, 2) == 1.0
        assert abs(upper_bound(2, 1) - 0.3535533905932738) < 1e-15

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            upper_bound(3, 3)
        with pytest.raises(ValueError):
            upper_bound(3, 0)

    def test_bound_holds_on_random_charts(self):
        ub = upper_bound(6, 3)
        rng = np.random.default_rng(100)
        for _ in range(50):
            quorum = quorum_from_chart(rng.uniform(0, 2 * np.pi, 612))
            assert evaluate_quorum(quorum).quality <= ub * (1 + 1e-9)


class TestNonOrthogonality:
    def test_mub_trio_is_orthogonal(self):
        l_sum = evaluate_quorum(_mub_trio_quorum()).non_orthogonality_l
        assert l_sum <= 1e-12

    def test_ordered_pair_convention_double_counts(self):
        g = np.array([[1.5, -1.5], [-1.5, 1.5]])
        l_sum, ln_l = non_orthogonality_from_gram(g)
        assert l_sum == 3.0
        assert abs(ln_l - np.log(3.0)) < 1e-15

    def test_zero_sum_gives_minus_inf(self):
        _, ln_l = non_orthogonality_from_gram(np.eye(4))
        assert ln_l == float("-inf")

    def test_zero_l_iff_bound(self):
        # constructed both ways: oracle hits the bound with L ~ 0; a generic
        # quorum has L > 0 and quality strictly below the bound
        quorum = rank1_optimal_quorum_n2()
        l_sum = evaluate_quorum(quorum).non_orthogonality_l
        assert l_sum <= 1e-10
        assert abs(evaluate_quorum(quorum).quality - upper_bound(2, 1)) <= 1e-8
        generic = _random_quorum(seed=3)
        l_gen = evaluate_quorum(generic).non_orthogonality_l
        assert l_gen > 1e-3
        assert evaluate_quorum(generic).quality < upper_bound(6, 3) * (1 - 1e-6)


class TestChordalDistance:
    def test_self_distance_zero(self):
        p = fixed_first_projector(6, 3)
        assert chordal_distance_sq(p, p) == 0.0

    def test_complement_distance(self):
        p = fixed_first_projector(6, 3)
        assert abs(chordal_distance_sq(p, np.eye(6) - p) - 3.0) < 1e-14

    def test_unbiased_pair_in_dim6(self):
        p = fixed_first_projector(6, 3)
        eye = np.eye(6, dtype=complex)
        vs = (eye[:3] + eye[3:]) / np.sqrt(2)
        (other,) = _projectors(vs[None])
        assert abs(chordal_distance_sq(p, other) - 1.5) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            chordal_distance_sq(np.eye(4), np.eye(6))

    def test_rank_mismatch(self):
        p1 = fixed_first_projector(6, 3)
        p2 = fixed_first_projector(6, 2)
        with pytest.raises(ValueError, match="rank"):
            chordal_distance_sq(p1, p2)

    def test_complement_symmetry(self):
        quorum = _random_quorum(seed=12)
        eye = np.eye(6)
        for i, j in [(0, 1), (3, 7), (10, 30)]:
            direct = chordal_distance_sq(quorum.projectors[i], quorum.projectors[j])
            flipped = chordal_distance_sq(eye - quorum.projectors[i], eye - quorum.projectors[j])
            assert abs(direct - flipped) <= 1e-10


class TestOrthoplex:
    def test_n4_oracle_all_at_bound(self):
        report = orthoplex_report(extend_to_maximal(halfdim_optimal_quorum_n4()), 1e-10)
        assert report.bound == 1.0
        assert report.pairs_total == 420
        assert report.at_bound == 420
        assert report.all_unbiased

    def test_complement_pairs_not_scored(self):
        maximal = extend_to_maximal(_random_quorum(seed=8))
        report = orthoplex_report(maximal, 1e-6)
        d2 = [
            chordal_distance_sq(maximal[i], maximal[j])
            for i in range(70)
            for j in range(i + 1, 70)
            if j != i + 35
        ]
        assert report.pairs_total == len(d2) == 2380
        assert abs(report.min_d2 - min(d2)) <= 1e-12
        assert abs(report.max_d2 - max(d2)) <= 1e-12
        assert report.max_d2 < 3.0 - 1e-3

    @pytest.mark.parametrize("shape", ["quorum", "one", "odd_n"])
    def test_non_extension_rejected(self, shape):
        projectors = {
            "quorum": _random_quorum(seed=8).projectors,
            "one": fixed_first_projector(6, 3)[None],
            "odd_n": np.stack([fixed_first_projector(3, 1)] * 16),
        }[shape]
        with pytest.raises(ValueError, match="complement extension"):
            orthoplex_report(projectors, 1e-6)


class TestExtendToMaximal:
    def test_counts_and_exact_complements(self):
        quorum = _random_quorum(seed=4)
        maximal = extend_to_maximal(quorum)
        assert maximal.shape == (70, 6, 6)
        expected = np.eye(6) - quorum.projectors
        assert np.array_equal(maximal[35:], expected)

    def test_self_complement_distance(self):
        quorum = _random_quorum(seed=6)
        maximal = extend_to_maximal(quorum)
        for j in range(35):
            d2 = chordal_distance_sq(maximal[j], maximal[j + 35])
            assert abs(d2 - 3.0) < 1e-12

    def test_rejects_non_half_dimensional(self):
        quorum = quorum_from_chart(np.zeros(chart_length(6, 2)), 6, 2)
        with pytest.raises(ValueError, match="n/2"):
            extend_to_maximal(quorum)


class TestRepetitionOverhead:
    def test_small_deviation_regime(self):
        value = repetition_overhead(1.3e-4, 6)
        assert 5e-6 <= value <= 1e-5

    def test_zero(self):
        assert repetition_overhead(0.0, 6) == 0.0
        assert repetition_overhead(0.0, 17) == 0.0

    def test_one_percent(self):
        assert abs(repetition_overhead(1e-2, 6) - 5.772005772005772e-4) < 1e-18

    def test_domain(self):
        with pytest.raises(ValueError):
            repetition_overhead(-0.1, 6)
        with pytest.raises(ValueError):
            repetition_overhead(1.0, 6)


class TestUnitaryInvariance:
    def test_quality_invariant_under_conjugation(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            quorum = quorum_from_chart(rng.uniform(0, 2 * np.pi, 612))
            z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            u, _ = np.linalg.qr(z)
            rotated = np.einsum("ab,mbc,dc->mad", u, quorum.projectors, u.conj())
            res0 = evaluate_quorum(quorum)
            res1 = evaluate_quorum(Quorum(projectors=rotated, n=6, l=3))
            assert abs(res1.log_quality - res0.log_quality) <= 1e-8 * abs(res0.log_quality)


class TestReportHelpers:
    def test_worst_pairs_sorted(self):
        g = gram_matrix(_random_quorum(seed=9))
        pairs = worst_pairs(g)
        assert len(pairs) == 10
        values = [v for _, _, v in pairs]
        assert values == sorted(values, reverse=True)
        i, j, v = pairs[0]
        assert abs(abs(g[i, j]) - v) < 1e-15

    def test_evaluate_quorum_fields(self):
        report = evaluate_quorum(rank1_optimal_quorum_n2())
        assert abs(report.quality - report.upper_bound) < 1e-10
        assert report.relative_deviation < 1e-9
        assert report.repetition_overhead >= 0.0
        assert not report.degenerate

    def test_degenerate_report_overhead_is_inf(self):
        quorum = _mub_trio_quorum()
        projectors = quorum.projectors.copy()
        projectors[2] = projectors[1]
        report = evaluate_quorum(Quorum(projectors=projectors, n=2, l=1))
        assert report.degenerate
        assert report.quality == 0.0
        assert report.repetition_overhead == float("inf")

    def test_chordal_extremes_from_gram_match_pairwise_distances(self):
        quorums = [quorum_from_chart(bundled_chart_n6(), 6, 3), halfdim_optimal_quorum_n4()]
        for quorum in quorums:
            report = report_from_gram(gram_matrix(quorum), quorum.n, quorum.l)
            p = quorum.projectors
            d2 = [
                chordal_distance_sq(p[i], p[j])
                for i in range(len(p))
                for j in range(i + 1, len(p))
            ]
            assert abs(report.min_chordal_sq - min(d2)) <= 1e-12
            assert abs(report.max_chordal_sq - max(d2)) <= 1e-12

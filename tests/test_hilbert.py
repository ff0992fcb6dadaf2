import numpy as np
import pytest

from tomopack.hilbert import (
    Quorum,
    _angles_to_components,
    _embed_batch,
    _householder_complement,
    _params_per_vector,
    _projectors,
    chart_length,
    quorum_from_chart,
)

from oracles import fixed_first_projector, traceless_part


def validate_projector(p, l, tol):
    """Check Hermiticity, idempotency, and trace of a candidate projector."""
    p = np.asarray(p, dtype=complex)
    assert np.linalg.norm(p - p.conj().T) <= tol, "not Hermitian"
    assert np.linalg.norm(p @ p - p) <= tol, "not idempotent"
    assert abs(np.trace(p).real - l) <= tol, "trace differs from rank"


def embed_orthonormal_vectors(angles, n, l):
    """The l pairwise-orthogonal unit vectors in C^n, shape (l, n), that one
    projector's block of l * 2(n-l) angles places."""
    blocks = np.asarray(angles, dtype=float).reshape(1, l, _params_per_vector(n, l))
    return _embed_batch(_angles_to_components(blocks), n, l)[0]


def complement_basis(v):
    """(n, n-1) orthonormal basis of the orthogonal complement of the unit vector v."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    comp = np.eye(v.shape[0], dtype=complex)[None, :, :]
    return _householder_complement(comp, v[None, :])[0]


class TestVectorFromAngles:
    def test_theta1_zero_gives_e1(self):
        v = _angles_to_components([0.0, 0.3, 1.1, 2.2, 0.4, 5.0])
        assert np.allclose(v, [1, 0, 0, 0], atol=1e-15)

    def test_sign_flip_through_phase(self):
        v = _angles_to_components([np.pi / 2, 0.0, 0.0, np.pi, 0.0, 0.0])
        assert np.allclose(v, [0, -1, 0, 0], atol=1e-15)

    def test_quarter_pi_values(self):
        # direct evaluation of the four formulas at theta = pi/4, phases 0
        v = _angles_to_components([np.pi / 4] * 3 + [0.0] * 3)
        expected = [
            np.cos(np.pi / 4),
            np.sin(np.pi / 4) * np.cos(np.pi / 4),
            np.sin(np.pi / 4) ** 2 * np.cos(np.pi / 4),
            np.sin(np.pi / 4) ** 3,
        ]
        assert np.allclose(v, expected, atol=1e-15)
        assert np.allclose(v, [0.70711, 0.5, 0.35355, 0.35355], atol=5e-6)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_unit_norm_for_random_angles(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = _angles_to_components(rng.uniform(-10, 10, 6))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_angle_wrapping_changes_nothing(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1.2, 6)
        shifted = a + 2 * np.pi
        assert np.allclose(_angles_to_components(a), _angles_to_components(shifted), atol=1e-12)

    def test_small_dims(self):
        v = _angles_to_components([np.pi / 4, np.pi / 2])  # d = 2
        assert np.allclose(v, [np.cos(np.pi / 4), 1j * np.sin(np.pi / 4)], atol=1e-15)
        v = _angles_to_components([0.3, 0.7, 0.2, 1.1])  # d = 3
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestEmbedding:
    def test_all_zero_angles_select_basis_vectors(self):
        v1, v2, v3 = embed_orthonormal_vectors(np.zeros(18), 6, 3)
        eye = np.eye(6)
        assert np.allclose(v1, eye[0], atol=1e-14)
        assert np.allclose(v2, eye[1], atol=1e-14)
        assert np.allclose(v3, eye[2], atol=1e-14)

    def test_orthonormality_over_random_draws(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            vs = embed_orthonormal_vectors(rng.uniform(-8, 8, 18), 6, 3)
            gram = vs @ vs.conj().T
            worst = max(worst, np.max(np.abs(gram - np.eye(3))))
        assert worst <= 1e-12

    def test_embedding_is_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 2 * np.pi, 18)
        first = embed_orthonormal_vectors(a, 6, 3)
        second = embed_orthonormal_vectors(a, 6, 3)
        assert np.array_equal(first, second)

    def test_continuity_under_small_perturbation(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.2, 1.3, 18)  # generic region, away from chart kinks
        base = embed_orthonormal_vectors(a, 6, 3)
        h = 1e-8
        bumped = embed_orthonormal_vectors(a + h, 6, 3)
        delta = np.linalg.norm(bumped - base, axis=1).max()
        assert delta < 100 * h


class TestComplementBasis:
    def test_columns_orthonormal_and_orthogonal_to_v(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        comp = complement_basis(v)
        assert comp.shape == (6, 5)
        assert np.max(np.abs(comp.conj().T @ comp - np.eye(5))) < 1e-13
        assert np.max(np.abs(comp.conj().T @ v)) < 1e-13

    def test_pure_function_of_v(self):
        v = np.array([0.5, 0.5j, 0.5, -0.5, 0, 0], dtype=complex)
        assert np.array_equal(complement_basis(v), complement_basis(v))


class TestProjectors:
    def test_canonical_basis_triple(self):
        eye = np.eye(6, dtype=complex)
        p, p2 = _projectors(np.stack([eye[:3], eye[3:]]))
        assert np.allclose(p, np.diag([1, 1, 1, 0, 0, 0]), atol=1e-15)
        assert np.allclose(p2, np.diag([0, 0, 0, 1, 1, 1]), atol=1e-15)
        assert np.allclose(p + p2, np.eye(6), atol=1e-15)

    def test_random_triples_satisfy_invariants(self):
        rng = np.random.default_rng(21)
        vs = np.stack([embed_orthonormal_vectors(rng.uniform(-5, 5, 18), 6, 3) for _ in range(200)])
        for p in _projectors(vs):
            validate_projector(p, l=3, tol=1e-10)


class TestTracelessPart:
    def test_diagonal_example(self):
        q = traceless_part(np.diag([1.0, 1, 1, 0, 0, 0]).astype(complex))
        assert np.allclose(q, np.diag([0.5, 0.5, 0.5, -0.5, -0.5, -0.5]), atol=1e-15)
        assert abs(np.linalg.norm(q) - np.sqrt(1.5)) < 1e-12

    def test_norm_fixed_for_random_projectors(self):
        rng = np.random.default_rng(8)
        chart = rng.uniform(0, 2 * np.pi, chart_length(6, 3))
        quorum = quorum_from_chart(chart)
        for p in quorum.projectors:
            q = traceless_part(p)
            assert abs(np.trace(q)) <= 1e-12
            assert abs(np.linalg.norm(q) - np.sqrt(1.5)) <= 1e-10


class TestQuorumFromChart:
    def test_chart_lengths(self):
        assert chart_length(6, 3) == 612
        assert chart_length(2, 1) == 4
        assert chart_length(4, 2) == 112
        assert _params_per_vector(6, 3) == 6

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            chart_length(3, 3)

    def test_zero_chart(self):
        quorum = quorum_from_chart(np.zeros(612))
        assert len(quorum.projectors) == 35
        assert np.array_equal(quorum.projectors[0], fixed_first_projector(6, 3))
        for p in quorum.projectors:
            validate_projector(p, l=3, tol=1e-10)

    def test_random_chart_valid_and_deterministic(self):
        rng = np.random.default_rng(17)
        chart = rng.uniform(-3, 9, 612)
        first = quorum_from_chart(chart)
        second = quorum_from_chart(chart)
        assert np.array_equal(first.projectors, second.projectors)
        assert np.array_equal(first.projectors[0], fixed_first_projector(6, 3))
        for p in first.projectors:
            validate_projector(p, l=3, tol=1e-10)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="612"):
            quorum_from_chart(np.zeros(611))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, 305, 611):
                chart = np.zeros(612)
                chart[index] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    quorum_from_chart(chart)

    def test_small_dimensions(self):
        q2 = quorum_from_chart(np.zeros(chart_length(2, 1)), 2, 1)
        assert len(q2.projectors) == 3
        q4 = quorum_from_chart(np.zeros(chart_length(4, 2)), 4, 2)
        assert len(q4.projectors) == 15
        rng = np.random.default_rng(4)
        for n, l in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)]:
            quorum = quorum_from_chart(rng.uniform(-7, 7, chart_length(n, l)), n, l)
            assert np.array_equal(quorum.projectors[0], fixed_first_projector(n, l))

    def test_quorum_shape_guard(self):
        with pytest.raises(ValueError):
            Quorum(projectors=np.zeros((5, 6, 6), dtype=complex), n=6, l=3)

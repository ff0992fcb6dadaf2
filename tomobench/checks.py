"""Output checks made apart from tomopack.

Nothing here imports tomopack.  The checks rebuild projectors from angle
charts with their own code, form their own Gram matrix of the traceless parts
and take its log-determinant through a Cholesky factor, so an error in the
program's chart map, Gram path or eigenvalue path cannot hide behind itself.
Every check raises ``CheckError`` naming what failed and by how much.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

# Projector invariants are exact identities; 1e-10 leaves room for the
# rounding of the embedding and the assembly, as in the program's own tests.
TOL_PROJECTOR = 1e-10
# A quality may exceed the analytic bound only by rounding.
TOL_BOUND = 1e-9
# Complement pairs satisfy d^2(P, 1 - P) = l exactly; only rounding remains.
TOL_COMPLEMENT = 1e-12
# The chart map is recomputed along a different sequence of floating point
# operations (explicit Householder matrices); only rounding may differ.
TOL_CHART_MAP = 1e-12


class CheckError(AssertionError):
    """An output of the program failed a check."""


def upper_bound(n: int, l: int) -> float:
    """(l(1 - l/n))^((n^2-1)/2): all distinct traceless parts orthogonal."""
    return (l * (1.0 - l / n)) ** ((n * n - 1) / 2.0)


def projectors_from_chart(chart, n: int, l: int) -> np.ndarray:
    """The (n^2-1, n, n) projectors of an angle chart, built independently.

    Vector k of a block is placed in the first n-l+1 columns of the running
    frame of the orthogonal complement; the frame then loses the new vector
    through the Householder reflection with w = c + e^{i arg c_0} e_1.
    """
    chart = np.asarray(chart, dtype=float).reshape(-1)
    m_free = n * n - 2
    d = n - l + 1
    h = d - 1
    blocks = chart.reshape(m_free, l, 2 * h)
    th, ph = blocks[..., :h], blocks[..., h:]
    comps = np.ones(blocks.shape[:-1] + (d,), dtype=complex)
    for k in range(d):
        mag = np.prod(np.sin(th[..., :k]), axis=-1)
        if k < d - 1:
            mag = mag * np.cos(th[..., k])
        phase = np.exp(1j * ph[..., k - 1]) if k > 0 else 1.0
        comps[..., k] = mag * phase
    frame = np.tile(np.eye(n, dtype=complex), (m_free, 1, 1))
    proj = np.zeros((m_free, n, n), dtype=complex)
    for k in range(l):
        c = comps[:, k, :]
        v = np.einsum("bij,bj->bi", frame[:, :, :d], c)
        proj += v[:, :, None] * v[:, None, :].conj()
        f = frame.shape[2]
        w = np.zeros((m_free, f), dtype=complex)
        w[:, :d] = c
        w[:, 0] += np.exp(1j * np.angle(c[:, 0]))
        house = np.eye(f)[None] - 2.0 * w[:, :, None] * w[:, None, :].conj() / np.sum(
            np.abs(w) ** 2, axis=1
        )[:, None, None]
        frame = frame @ house[:, :, 1:]
    first = np.diag(np.r_[np.ones(l), np.zeros(n - l)]).astype(complex)
    return np.concatenate([first[None], proj], axis=0)


def check_projectors(projectors, l: int, tol: float = TOL_PROJECTOR) -> None:
    """Every element Hermitian, idempotent and of trace l."""
    p = np.asarray(projectors, dtype=complex)
    herm = np.max(np.abs(p - p.conj().transpose(0, 2, 1)))
    idem = np.max(np.abs(p @ p - p))
    trace = np.max(np.abs(np.trace(p, axis1=1, axis2=2) - l))
    worst = max(herm, idem, trace)
    if not worst <= tol:
        raise CheckError(
            f"projector invariants broken: |P-P^dag|={herm:.3e}, |P^2-P|={idem:.3e}, "
            f"|Tr P - l|={trace:.3e} (tol {tol:.0e})"
        )


def check_chart_map(chart, n: int, l: int, projectors) -> None:
    """The program's projectors for a chart equal the independent rebuild."""
    ours = projectors_from_chart(chart, n, l)
    dev = float(np.max(np.abs(ours - np.asarray(projectors))))
    if not dev <= TOL_CHART_MAP:
        raise CheckError(f"chart map differs from the independent rebuild by {dev:.3e}")


def gram(projectors, n: int, l: int) -> np.ndarray:
    """G_ij = Tr(Q_i Q_j) with Q = P - (l/n) 1, from flattened matrices."""
    p = np.asarray(projectors, dtype=complex)
    q = (p - (l / n) * np.eye(n)).reshape(p.shape[0], -1)
    g = (q.conj() @ q.T).real
    return 0.5 * (g + g.T)


def log_quality(g: np.ndarray) -> float:
    """Half the log-determinant of G through its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise CheckError(f"Gram matrix is not positive definite: {exc}") from exc
    return float(np.sum(np.log(np.diag(chol))))


def quality_tolerance(g: np.ndarray) -> float:
    """Allowed |difference| between two log-quality computations.

    A backward-stable eigenvalue or Cholesky path moves each eigenvalue by
    about m*eps*|G|, so each log-eigenvalue by m*eps*cond(G) and the sum of m
    halves by m^2*eps*cond(G)/2.  The factor 4 covers the Gram matrices
    themselves being formed along different rounding paths.
    """
    m = g.shape[0]
    return 4.0 * m * m * EPS * float(np.linalg.cond(g))


def relative_deviation(log_q: float, n: int, l: int) -> float:
    """1 - quality/bound, formed in log space so it keeps its digits near 0."""
    return -math.expm1(log_q - math.log(upper_bound(n, l)))


def check_quality(projectors, n: int, l: int, reported_log_quality: float | None = None) -> float:
    """Recompute the log-quality; check it against the report and the bound.

    Returns the independently computed log-quality.
    """
    g = gram(projectors, n, l)
    ours = log_quality(g)
    if reported_log_quality is not None:
        tol = quality_tolerance(g)
        diff = abs(ours - reported_log_quality)
        if not diff <= tol:
            raise CheckError(
                f"reported log-quality {reported_log_quality!r} differs from the Cholesky "
                f"value {ours!r} by {diff:.3e} (tol m^2*eps*cond(G) terms = {tol:.3e})"
            )
    check_below_bound(ours, n, l)
    return ours


def check_below_bound(log_q: float, n: int, l: int) -> None:
    """No quality exceeds the analytic bound beyond rounding."""
    excess = math.expm1(log_q - math.log(upper_bound(n, l)))
    if not excess <= TOL_BOUND:
        raise CheckError(f"quality exceeds the bound by {excess:.3e} relative")


def check_deviation_at_most(log_q: float, n: int, l: int, target: float) -> float:
    """The relative deviation from the bound is within the target."""
    dev = relative_deviation(log_q, n, l)
    if not dev <= target:
        raise CheckError(f"relative deviation {dev:.6e} misses the target {target:.6e}")
    return dev


def check_extension(projectors, n: int, l: int) -> np.ndarray:
    """A complement extension: 2m projectors whose element j + m is 1 - element j.

    Checks the invariants and that every complementary pair sits at
    d^2 = l - Tr(P (1 - P)) = l.  Returns the pairwise d^2 matrix.
    """
    p = np.asarray(projectors, dtype=complex)
    m = n * n - 1
    if p.shape != (2 * m, n, n):
        raise CheckError(f"extension has shape {p.shape}, expected {(2 * m, n, n)}")
    check_projectors(p, l)
    flat = p.reshape(2 * m, -1)
    d2 = l - (flat.conj() @ flat.T).real
    comp = np.array([d2[j, j + m] for j in range(m)])
    dev = float(np.max(np.abs(comp - l)))
    if not dev <= TOL_COMPLEMENT:
        raise CheckError(f"complementary pairs off d^2 = {l} by {dev:.3e}")
    return d2


def check_n4_extension(projectors) -> None:
    """The n = 4 oracle's extension: 420 pairs at d^2 = 1, 15 pairs at d^2 = 2."""
    d2 = check_extension(projectors, 4, 2)
    m = 15
    iu = np.triu_indices(2 * m, k=1)
    complementary = iu[1] == iu[0] + m
    others = d2[iu][~complementary]
    if others.size != 420:
        raise CheckError(f"expected 420 non-complementary pairs, found {others.size}")
    dev = float(np.max(np.abs(others - 1.0)))
    if not dev <= TOL_COMPLEMENT:
        raise CheckError(f"non-complementary pairs off d^2 = 1 by {dev:.3e}")


def check_count(counted: int, reported: int, what: str = "objective calls") -> None:
    """The benchmark's own count equals the program's."""
    if counted != reported:
        raise CheckError(f"{what}: counted {counted}, program reports {reported}")


def check_identical(first: np.ndarray, again: np.ndarray, what: str) -> None:
    """Repeated passes of the same seeded work give bit-identical results."""
    a, b = np.asarray(first), np.asarray(again)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        raise CheckError(f"{what} differs between passes of the same input")


def projectors_from_interleaved(rows, n: int) -> np.ndarray:
    """Decode the row-major, re/im-interleaved matrices of a projector-set file."""
    a = np.asarray(rows, dtype=float)
    return (a[:, 0::2] + 1j * a[:, 1::2]).reshape(len(rows), n, n)

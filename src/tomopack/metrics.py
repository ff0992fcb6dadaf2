"""Figures of merit for projector quorums.

Everything is derived from the traceless parts Q_j = P_j - (l/n) 1 and their
Hilbert-Schmidt inner products Tr(Q_i Q_j): the Gram matrix, the spanned
volume (quality), its analytic upper bound, the non-orthogonality sum L,
chordal distances, and the complement extension to the maximal set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import Quorum

__all__ = [
    "QualityResult",
    "MetricsReport",
    "OrthoplexReport",
    "gram_matrix",
    "quality_from_gram",
    "upper_bound",
    "non_orthogonality_from_gram",
    "orthoplex_report",
    "extend_to_maximal",
    "repetition_overhead",
    "worst_pairs",
    "report_from_gram",
    "evaluate_quorum",
]

# Eigenvalues of the Gram matrix below this are clamped before taking logs,
# so the optimizer can traverse rank-deficient regions without blowing up.
EIG_CLAMP = 1e-14
# Pairs a report lists by |Tr(Q_i Q_j)|, the least orthogonal first.
WORST_PAIR_COUNT = 10


class QualityResult(NamedTuple):
    quality: float
    log_quality: float
    degenerate: bool


@dataclass(frozen=True)
class OrthoplexReport:
    """Non-complementary chordal distances of an extension against l(n-l)/n."""

    bound: float
    min_d2: float
    max_d2: float
    pairs_total: int
    at_bound: int   # |d^2 - bound| <= tol
    tol: float
    all_unbiased: bool


@dataclass(frozen=True)
class MetricsReport:
    quality: float
    log_quality: float
    upper_bound: float
    relative_deviation: float
    non_orthogonality_l: float
    ln_l: float
    min_chordal_sq: float
    max_chordal_sq: float
    repetition_overhead: float
    degenerate: bool


def _pairwise_hs(projectors: np.ndarray) -> np.ndarray:
    """Real symmetric matrix of Hilbert-Schmidt products Tr(P_i P_j)."""
    m = projectors.shape[0]
    v = projectors.reshape(m, -1)
    g = (v @ v.conj().T).real
    return 0.5 * (g + g.T)


def gram_matrix(q: Quorum) -> np.ndarray:
    """Gram matrix G_ij = Tr(Q_i Q_j) of the traceless parts.

    Diagonal entries equal l - l^2/n; the matrix is exactly symmetric and
    positive semidefinite up to rounding.
    """
    shift = q.l * q.l / q.n
    return _pairwise_hs(q.projectors) - shift


def quality_from_gram(gram: np.ndarray) -> QualityResult:
    """Volume (and log-volume) spanned by the traceless parts, from their Gram.

    The log path clamps eigenvalues below EIG_CLAMP, flags the result as
    degenerate, and reports quality 0 in that case; it never raises.
    """
    eigs = np.linalg.eigvalsh(gram)
    degenerate = bool(eigs[0] < EIG_CLAMP)
    clamped = np.maximum(eigs, EIG_CLAMP)
    log_quality = 0.5 * float(np.sum(np.log(clamped)))
    quality = 0.0 if degenerate else float(np.exp(log_quality))
    return QualityResult(quality=quality, log_quality=log_quality, degenerate=degenerate)


def upper_bound(n: int, l: int) -> float:
    """Analytic ceiling (l(1 - l/n))^((n^2-1)/2), attained only when all
    distinct traceless parts are orthogonal."""
    if not 1 <= l < n:
        raise ValueError(f"invalid dimensions n={n}, l={l}; need 1 <= l < n")
    return float((l * (1.0 - l / n)) ** ((n * n - 1) / 2.0))


def non_orthogonality_from_gram(gram: np.ndarray) -> tuple[float, float]:
    """(L, ln L) where L sums |Tr(Q_i Q_j)| over ordered pairs i != j.

    Both (i, j) and (j, i) are counted.  ln L is -inf when L is exactly zero.
    """
    a = np.abs(gram)
    l_sum = float(a.sum() - np.trace(a))
    ln_l = float(np.log(l_sum)) if l_sum > 0.0 else float("-inf")
    return l_sum, ln_l


def orthoplex_report(maximal: np.ndarray, tol: float) -> OrthoplexReport:
    """Chordal distances of a complement extension, laid out as
    ``extend_to_maximal`` returns it, against the orthoplex value l(n-l)/n.

    Of its 2m projectors (m = n^2 - 1, l = n/2) the m complement pairs sit at
    d^2 = l by construction; the other 2m(m - 1) pairs are scored, and one is
    at the bound when its d^2 is within tol.
    """
    if not 0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"orthoplex tolerance must be finite and positive, got {tol}")
    p = np.asarray(maximal, dtype=complex)
    n = p.shape[-1]
    m = n * n - 1
    if p.shape != (2 * m, n, n) or n % 2:
        raise ValueError(f"need a complement extension, shape (2(n^2-1), n, n) for even n; got {p.shape}")
    l = n / 2
    i, j = np.triu_indices(2 * m, k=1)
    scored = j != i + m
    vals = (l - _pairwise_hs(p))[i[scored], j[scored]]
    bound = l * (n - l) / n
    dev = np.abs(vals - bound)
    return OrthoplexReport(
        bound=bound,
        min_d2=float(vals.min()),
        max_d2=float(vals.max()),
        pairs_total=int(vals.size),
        at_bound=int(np.count_nonzero(dev <= tol)),
        tol=tol,
        all_unbiased=bool(np.all(dev <= tol)),
    )


def extend_to_maximal(q: Quorum) -> np.ndarray:
    """The quorum's projectors followed by their complements 1 - P_j.

    Returns a (2(n^2 - 1), n, n) array whose element j + (n^2 - 1) is
    exactly 1 - element j.  Only defined for half-dimensional subspaces
    (l = n/2).
    """
    if 2 * q.l != q.n:
        raise ValueError(f"complement extension needs l = n/2, got n={q.n}, l={q.l}")
    complements = np.eye(q.n, dtype=complex)[None, :, :] - q.projectors
    return np.concatenate([q.projectors, complements], axis=0)


def repetition_overhead(relative_deviation: float, n: int) -> float:
    """Relative increase in measurement repetitions caused by a quality deficit.

    First order in the deviation: (2/(n^2-1)) * dev / (1 - dev).
    """
    if not 0.0 <= relative_deviation < 1.0:
        raise ValueError(f"relative deviation must be in [0, 1), got {relative_deviation}")
    return (2.0 / (n * n - 1)) * relative_deviation / (1.0 - relative_deviation)


def worst_pairs(gram: np.ndarray) -> list[tuple[int, int, float]]:
    """The WORST_PAIR_COUNT largest |Tr(Q_i Q_j)| over pairs i < j, sorted descending."""
    iu = np.triu_indices(gram.shape[0], k=1)
    vals = np.abs(gram[iu])
    order = np.argsort(vals)[::-1][:WORST_PAIR_COUNT]
    return [(int(iu[0][k]), int(iu[1][k]), float(vals[k])) for k in order]


def report_from_gram(gram: np.ndarray, n: int, l: int) -> MetricsReport:
    """All scalar figures of merit of a quorum, from its Gram matrix alone.

    Chordal distances come from the off-diagonal entries:
    d^2_ij = l - Tr(P_i P_j) = l(n-l)/n - G_ij.
    """
    qual = quality_from_gram(gram)
    l_sum, ln_l = non_orthogonality_from_gram(gram)
    ub = upper_bound(n, l)
    rel_dev = (ub - qual.quality) / ub
    d2 = l * (n - l) / n - gram[np.triu_indices(gram.shape[0], k=1)]
    dev = min(max(rel_dev, 0.0), 1.0)
    overhead = float("inf") if dev >= 1.0 else repetition_overhead(dev, n)
    return MetricsReport(
        quality=qual.quality,
        log_quality=qual.log_quality,
        upper_bound=ub,
        relative_deviation=rel_dev,
        non_orthogonality_l=l_sum,
        ln_l=ln_l,
        min_chordal_sq=float(d2.min()),
        max_chordal_sq=float(d2.max()),
        repetition_overhead=overhead,
        degenerate=qual.degenerate,
    )


def evaluate_quorum(q: Quorum) -> MetricsReport:
    """All scalar figures of merit for one quorum, in a single report."""
    return report_from_gram(gram_matrix(q), q.n, q.l)

"""Angle charts, orthonormal embeddings, and rank-l projectors.

A measurement quorum on an n-dimensional complex Hilbert space is a set of
m = n^2 - 1 rank-l projectors.  The first projector is pinned to
diag(1,...,1,0,...,0); each remaining projector is parametrized by l unit
vectors drawn from (n-l+1)-dimensional subspaces, chosen sequentially so the
vectors come out pairwise orthogonal.  Every function here is pure and
deterministic: the same chart always produces bit-identical projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Quorum",
    "chart_vector_dim",
    "params_per_vector",
    "chart_length",
    "vector_from_angles",
    "embed_orthonormal_vectors",
    "projector_from_vectors",
    "traceless_part",
    "fixed_first_projector",
    "quorum_from_chart",
]

# Composed operations (embedding plus projector assembly) get this much slack;
# exact algebraic identities are checked at 1e-12 where they appear.
TOL_COMPOSED = 1e-10


def chart_vector_dim(n: int, l: int) -> int:
    """Dimension of the subspace each chart vector is drawn from."""
    return n - l + 1


def params_per_vector(n: int, l: int) -> int:
    """Real parameters per chart vector: 2d - 2 angles for a d-dim ray."""
    return 2 * (n - l)


def chart_length(n: int, l: int) -> int:
    """Total number of real parameters for a quorum chart with fixed first projector."""
    if not (isinstance(n, int) and isinstance(l, int) and 1 <= l < n):
        raise ValueError(f"invalid dimensions n={n}, l={l}; need 1 <= l < n")
    return (n * n - 2) * l * params_per_vector(n, l)


# The headline case: 34 free projectors x 3 vectors x 6 angles.
assert chart_length(6, 3) == 612


@dataclass(frozen=True)
class Quorum:
    """An ordered set of m = n^2 - 1 rank-l projectors on C^n.

    ``projectors`` has shape (m, n, n); element 0 is the fixed projector
    diag(1,...,1,0,...,0).
    """

    projectors: np.ndarray
    n: int
    l: int

    def __post_init__(self):
        m = self.n * self.n - 1
        if self.projectors.shape != (m, self.n, self.n):
            raise ValueError(
                f"projector array has shape {self.projectors.shape}, "
                f"expected ({m}, {self.n}, {self.n})"
            )

    def __len__(self) -> int:
        return self.projectors.shape[0]


def _angles_to_components(angles: np.ndarray) -> np.ndarray:
    """Map angle blocks (..., 2d-2) to complex unit vectors (..., d).

    Layout per block: (theta_1 .. theta_{d-1}, phi_2 .. phi_d).  Component
    magnitudes follow the nested sin/cos pattern

        x_1 = cos theta_1
        x_k = sin theta_1 ... sin theta_{k-1} cos theta_k e^{i phi_k}
        x_d = sin theta_1 ... sin theta_{d-1} e^{i phi_d}

    so the result has unit norm by construction for any real angles.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] % 2 != 0 or angles.shape[-1] < 2:
        raise ValueError(f"angle block length {angles.shape[-1]} is not even and >= 2")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    half = angles.shape[-1] // 2
    d = half + 1
    thetas = angles[..., :half]
    phis = angles[..., half:]
    c = np.cos(thetas)
    s = np.sin(thetas)
    # prefix[..., k] = product of the first k sines (prefix[..., 0] = 1)
    prefix = np.ones(angles.shape[:-1] + (d,), dtype=float)
    prefix[..., 1:] = np.cumprod(s, axis=-1)
    mag = np.empty_like(prefix)
    mag[..., : d - 1] = prefix[..., : d - 1] * c
    mag[..., d - 1] = prefix[..., d - 1]
    phase = np.ones(angles.shape[:-1] + (d,), dtype=complex)
    phase[..., 1:] = np.exp(1j * phis)
    return mag * phase


def vector_from_angles(angles) -> np.ndarray:
    """Unit vector in C^d from 2d-2 real angles (d inferred from the length).

    The six-angle case yields the four-component vector
    (cos t1, sin t1 cos t2 e^{i p2}, sin t1 sin t2 cos t3 e^{i p3},
    sin t1 sin t2 sin t3 e^{i p4}).  Angles outside the canonical ranges are
    fine; the trigonometric map wraps them without changing the construction.
    The chart is many-to-one at degenerate points (e.g. t1 = 0 makes every
    phase irrelevant); harmless for optimization, worth knowing when
    comparing charts.
    """
    v = _angles_to_components(np.asarray(angles, dtype=float).reshape(-1))
    return v


def _householder_complement(comp: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Shrink a batch of complement bases by one direction.

    ``comp`` is (B, n, f): orthonormal columns spanning the current complement.
    ``coords`` is (B, f): the newly placed vector expressed in that frame
    (unit norm).  Returns (B, n, f-1): an orthonormal basis of the part of the
    complement orthogonal to the new vector.

    Uses the Householder reflection with vector w = coords + e^{i a} e1 where
    a = arg(coords[0]); this sign choice maximizes |w| (|w|^2 = 2(1 + |c0|)),
    so the construction never degenerates.
    """
    w = coords.copy()
    w[:, 0] += np.exp(1j * np.angle(coords[:, 0]))
    wn2 = np.sum(np.abs(w) ** 2, axis=-1)  # in [2, 4]
    cw = np.einsum("bnf,bf->bn", comp, w)
    scale = (2.0 / wn2)[:, None, None]
    # columns 2..f of H = 1 - 2 w w^dag / |w|^2, pushed through comp
    return comp[:, :, 1:] - scale * cw[:, :, None] * w[:, None, 1:].conj()


def _embed_batch(components: np.ndarray, n: int, l: int) -> np.ndarray:
    """Embed chart vectors into C^n as pairwise-orthogonal tuples.

    ``components`` is (B, l, d) with d = n - l + 1.  Vector k is placed in the
    span of the first d basis vectors of the running orthogonal complement of
    the previously placed vectors.  Returns (B, l, n).
    """
    B = components.shape[0]
    d = chart_vector_dim(n, l)
    comp = np.broadcast_to(np.eye(n, dtype=complex), (B, n, n)).copy()
    out = np.empty((B, l, n), dtype=complex)
    for k in range(l):
        c = components[:, k, :]
        out[:, k, :] = np.einsum("bnd,bd->bn", comp[:, :, :d], c)
        if k < l - 1:
            f = n - k
            chat = np.zeros((B, f), dtype=complex)
            chat[:, :d] = c
            comp = _householder_complement(comp, chat)
    return out


def embed_orthonormal_vectors(angle_blocks, n: int, l: int) -> np.ndarray:
    """Map l angle blocks (each 2(n-l) reals) to l pairwise-orthogonal unit
    vectors in C^n, shape (l, n)."""
    blocks = np.asarray(angle_blocks, dtype=float).reshape(l, params_per_vector(n, l))
    components = _angles_to_components(blocks)
    return _embed_batch(components[None, :, :], n, l)[0]


def projector_from_vectors(*vectors) -> np.ndarray:
    """Orthogonal projector onto the span of pairwise-orthogonal unit vectors.

    Raises ValueError if any pairwise overlap exceeds 1e-10, reporting the
    worst offender.
    """
    vs = np.asarray(vectors, dtype=complex)
    if vs.ndim == 3 and vs.shape[0] == 1:
        vs = vs[0]
    overlaps = vs @ vs.conj().T
    off = overlaps - np.diag(np.diag(overlaps))
    worst = np.max(np.abs(off)) if off.size else 0.0
    if worst > TOL_COMPOSED:
        raise ValueError(f"input vectors are not orthogonal: max overlap {worst:.3e}")
    p = np.einsum("ki,kj->ij", vs, vs.conj())
    return 0.5 * (p + p.conj().T)


def traceless_part(p: np.ndarray) -> np.ndarray:
    """Remove the trace: Q = P - (l/n) * identity, with l read off the trace."""
    p = np.asarray(p, dtype=complex)
    n = p.shape[-1]
    tr = np.trace(p, axis1=-2, axis2=-1).real
    q = p.copy()
    idx = np.arange(n)
    q[..., idx, idx] -= (tr / n)[..., None]
    return q


@lru_cache(maxsize=None)
def _fixed_first_cached(n: int, l: int) -> np.ndarray:
    p = np.diag(np.concatenate([np.ones(l), np.zeros(n - l)])).astype(complex)
    p.setflags(write=False)
    return p


def fixed_first_projector(n: int, l: int) -> np.ndarray:
    """The pinned first quorum element diag(1,...,1,0,...,0) with l ones."""
    return _fixed_first_cached(n, l).copy()


def quorum_from_chart(chart, n: int = 6, l: int = 3) -> Quorum:
    """Build the full m = n^2 - 1 projector quorum from a flat angle chart.

    Element 0 is diag(1,..,1,0,..,0); elements 1..m-1 come from consecutive
    blocks of l * 2(n-l) angles, each block embedded into an orthonormal
    l-tuple and summed into a projector.
    """
    chart = np.asarray(chart, dtype=float).reshape(-1)
    expected = chart_length(n, l)
    if chart.shape[0] != expected:
        raise ValueError(
            f"chart has {chart.shape[0]} parameters, expected {expected} for n={n}, l={l}"
        )
    if not np.all(np.isfinite(chart)):
        raise ValueError("chart contains non-finite values")
    m_free = n * n - 2
    blocks = chart.reshape(m_free, l, params_per_vector(n, l))
    components = _angles_to_components(blocks)
    vs = _embed_batch(components, n, l)  # (m_free, l, n)
    p = np.einsum("bki,bkj->bij", vs, vs.conj())
    p = 0.5 * (p + p.conj().transpose(0, 2, 1))
    projectors = np.concatenate([_fixed_first_cached(n, l)[None, :, :], p], axis=0)
    return Quorum(projectors=projectors, n=n, l=l)

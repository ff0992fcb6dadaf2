"""Angle charts, orthonormal embeddings, and rank-l projectors.

A measurement quorum on an n-dimensional complex Hilbert space is a set of
m = n^2 - 1 rank-l projectors.  Each projector is parametrized by l unit
vectors drawn from (n-l+1)-dimensional subspaces, chosen sequentially so the
vectors come out pairwise orthogonal.  The first projector is pinned: it is
the image of the all-zero angle block, which places e_1..e_l and so gives
diag(1,...,1,0,...,0) exactly.  Every projector goes through one private
batched assembly, ``_projectors``; there is no public projector helper.
Every function here is pure and deterministic: the same chart always
produces bit-identical projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quorum",
    "chart_length",
    "random_chart",
    "quorum_from_chart",
]


def _params_per_vector(n: int, l: int) -> int:
    """Real parameters per chart vector: 2d - 2 angles for a d-dim ray."""
    return 2 * (n - l)


def chart_length(n: int, l: int) -> int:
    """Total number of real parameters for a quorum chart with fixed first projector."""
    if not (isinstance(n, int) and isinstance(l, int) and 1 <= l < n):
        raise ValueError(f"invalid dimensions n={n}, l={l}; need 1 <= l < n")
    return (n * n - 2) * l * _params_per_vector(n, l)


# The headline case: 34 free projectors x 3 vectors x 6 angles.
assert chart_length(6, 3) == 612


def random_chart(rng: np.random.Generator, n: int = 6, l: int = 3) -> np.ndarray:
    """Uniform random chart: thetas in [0, pi/2), phases in [0, 2 pi)."""
    m_free = n * n - 2
    half = _params_per_vector(n, l) // 2
    thetas = rng.uniform(0.0, np.pi / 2.0, size=(m_free, l, half))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(m_free, l, half))
    return np.concatenate([thetas, phis], axis=-1).reshape(-1)


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


def _angles_to_components(angles: np.ndarray) -> np.ndarray:
    """Map angle blocks (..., 2d-2) to complex unit vectors (..., d).

    Layout per block: (theta_1 .. theta_{d-1}, phi_2 .. phi_d).  Component
    magnitudes follow the nested sin/cos pattern

        x_1 = cos theta_1
        x_k = sin theta_1 ... sin theta_{k-1} cos theta_k e^{i phi_k}
        x_d = sin theta_1 ... sin theta_{d-1} e^{i phi_d}

    so the result has unit norm by construction for any real angles.
    Angles outside the canonical ranges are fine; the trigonometric map
    wraps them.  The map is many-to-one at degenerate points: theta_1 = 0
    gives e_1 whatever the other angles are, so every phase is irrelevant
    there.  Harmless for optimization, worth knowing when comparing charts.
    Blocks are not checked here: ``quorum_from_chart`` makes them finite
    and of even length 2(n - l) >= 2.
    """
    angles = np.asarray(angles, dtype=float)
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


def _householder_complement(comp: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Shrink a batch of complement bases by one direction.

    ``comp`` is (B, n, f): orthonormal columns spanning the current complement.
    ``coords`` is (B, f): the newly placed vector expressed in that frame
    (unit norm).  Returns (B, n, f-1): an orthonormal basis of the part of the
    complement orthogonal to the new vector.

    Uses the Householder reflection with vector w = coords + e^{i a} e1 where
    a = arg(coords[0]); this sign choice maximizes |w| (|w|^2 = 2(1 + |c0|)),
    so the construction never degenerates.

    The price is a jump in the chart map.  c0 = cos theta_1 of the placed
    vector is real, so e^{i a} is +1 or -1 and flips where theta_1 crosses
    pi/2 (mod pi).  There the returned basis, and with it every later vector
    of the same projector, changes discontinuously.  So the chart -> quorum
    map jumps at theta_1 = pi/2 of every vector but the last of each
    projector; a search can stall against such a wall.
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
    d = n - l + 1
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


def _projectors(vs: np.ndarray) -> np.ndarray:
    """Projectors onto the spans of orthonormal tuples: (B, l, n) -> (B, n, n).

    Sums v v^dag over each tuple, then averages with the conjugate transpose
    so the result is Hermitian bit for bit.  The tuples are not checked:
    every caller builds them orthonormal.
    """
    p = np.einsum("bki,bkj->bij", vs, vs.conj())
    return 0.5 * (p + p.conj().transpose(0, 2, 1))


def quorum_from_chart(chart, n: int = 6, l: int = 3) -> Quorum:
    """Build the full m = n^2 - 1 projector quorum from a flat angle chart.

    Element j >= 1 comes from the j-th consecutive block of l * 2(n-l)
    angles, embedded into an orthonormal l-tuple and summed into a projector.
    Element 0 is the image of an all-zero block, diag(1,..,1,0,..,0).
    """
    chart = np.asarray(chart, dtype=float).reshape(-1)
    expected = chart_length(n, l)
    if chart.shape[0] != expected:
        raise ValueError(
            f"chart has {chart.shape[0]} parameters, expected {expected} for n={n}, l={l}"
        )
    if not np.all(np.isfinite(chart)):
        raise ValueError("chart contains non-finite values")
    blocks = np.zeros((n * n - 1, l, _params_per_vector(n, l)))
    blocks[1:] = chart.reshape(n * n - 2, l, -1)
    vs = _embed_batch(_angles_to_components(blocks), n, l)  # (m, l, n)
    return Quorum(projectors=_projectors(vs), n=n, l=l)

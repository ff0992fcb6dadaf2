"""Analytic reference sets: mutually unbiased bases and the quorums built
from them that attain the quality upper bound exactly.

These exist in dimensions 2 and 4 (and the bases alone in 3) and serve as
end-to-end oracles for the metrics and the optimizer.  A numerically found
near-optimal dimension-6 chart ships with the package as well.

Nothing here checks a construction when it is built: ``tomopack reference``
verifies each one it emits, and the tests verify them all.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .hilbert import Quorum, _projectors

__all__ = [
    "mub_family",
    "verify_mub_family",
    "rank1_optimal_quorum_n2",
    "halfdim_optimal_quorum_n4",
    "bundled_chart_n6",
    "BUNDLED_CHART_N6",
]

BUNDLED_CHART_N6 = "quorum_n6_rank3.json"


def _mubs_dim2() -> list:
    s = 1.0 / np.sqrt(2.0)
    b0 = np.eye(2, dtype=complex)
    b1 = s * np.array([[1, 1], [1, -1]], dtype=complex)
    b2 = s * np.array([[1, 1], [1j, -1j]], dtype=complex)
    return [b0, b1, b2]


def _mubs_dim3() -> list:
    w = np.exp(2j * np.pi / 3.0)
    s = 1.0 / np.sqrt(3.0)
    bases = [np.eye(3, dtype=complex)]
    k = np.arange(3)
    for a in range(3):
        cols = [s * w ** ((a * k * k + b * k) % 3) for b in range(3)]
        bases.append(np.stack(cols, axis=1))
    return bases


def _mubs_dim4() -> list:
    i = 1j
    b0 = np.eye(4, dtype=complex)
    b1 = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], dtype=complex
    )
    b2 = 0.5 * np.array(
        [[1, 1, 1, 1], [-1, -1, 1, 1], [-i, i, i, -i], [-i, i, -i, i]], dtype=complex
    )
    b3 = 0.5 * np.array(
        [[1, 1, 1, 1], [-i, -i, i, i], [-i, i, i, -i], [-1, 1, -1, 1]], dtype=complex
    )
    b4 = 0.5 * np.array(
        [[1, 1, 1, 1], [-i, -i, i, i], [-1, 1, 1, -1], [-i, i, -i, i]], dtype=complex
    )
    return [b0, b1, b2, b3, b4]


def mub_family(n: int) -> list:
    """A complete family of n+1 mutually unbiased bases of C^n (n in {2, 3, 4}).

    Returns a list of n+1 (n, n) arrays whose *columns* are the basis
    vectors; all cross-basis overlaps satisfy |<e_i|f_j>|^2 = 1/n, which
    ``verify_mub_family`` checks.
    """
    if n == 2:
        return _mubs_dim2()
    if n == 3:
        return _mubs_dim3()
    if n == 4:
        return _mubs_dim4()
    raise ValueError(f"no MUB construction implemented for n={n}")


# The bases are built from 1/sqrt(n) and roots of unity, so rounding moves
# their inner products by ~1e-16; a wrong vector moves some by O(1/n).
MUB_TOL = 1e-12


def verify_mub_family(bases: list) -> float:
    """Check orthonormality within bases and |overlap|^2 = 1/n across bases, to MUB_TOL.

    Returns the largest cross-basis deviation of |overlap|^2 from 1/n.
    """
    n = bases[0].shape[0]
    for idx, b in enumerate(bases):
        dev = np.max(np.abs(b.conj().T @ b - np.eye(n)))
        if dev > MUB_TOL:
            raise ValueError(f"basis {idx} is not orthonormal (deviation {dev:.3e})")
    worst = 0.0
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            ov = np.abs(bases[a].conj().T @ bases[b]) ** 2
            dev = float(np.max(np.abs(ov - 1.0 / n)))
            if dev > MUB_TOL:
                raise ValueError(
                    f"bases {a} and {b} are not unbiased (deviation {dev:.3e})"
                )
            worst = max(worst, dev)
    return worst


def rank1_optimal_quorum_n2() -> Quorum:
    """Three rank-1 projectors on C^2 whose traceless parts are orthogonal.

    Projects onto |0>, |+>, |+i>; attains the quality bound (1/2)^(3/2)
    with zero non-orthogonality.
    """
    vs = np.array([[b[:, 0]] for b in mub_family(2)])
    return Quorum(projectors=_projectors(vs), n=2, l=1)


def halfdim_optimal_quorum_n4() -> Quorum:
    """Fifteen rank-2 projectors on C^4 attaining the quality bound of 1.

    From each of the 5 MUBs with vectors {e1..e4}, take the projectors onto
    span{e1,e2}, span{e1,e3}, span{e1,e4}.  Sharing the first vector makes
    same-basis pairs satisfy Tr(P_a P_b) = 1, and unbiasedness makes all
    cross-basis pairs satisfy the same, so every Tr(Q_a Q_b) vanishes.
    """
    vs = np.array([[b[:, 0], b[:, partner]] for b in mub_family(4) for partner in (1, 2, 3)])
    return Quorum(projectors=_projectors(vs), n=4, l=2)


def bundled_chart_n6() -> np.ndarray:
    """The shipped 612-angle chart of a near-optimal dimension-6 quorum.

    Found by the package's own alternating optimizer (2 restarts, 14 phases);
    its quality sits within 3.3e-5 relative of the (3/2)^(35/2) bound.
    """
    from .fileio import read_chart

    path = resources.files("tomopack.data") / BUNDLED_CHART_N6
    with resources.as_file(path) as real_path:
        angles, n, l, _meta = read_chart(real_path)
    if (n, l) != (6, 3):
        raise AssertionError(f"bundled chart has unexpected dimensions n={n}, l={l}")
    return angles

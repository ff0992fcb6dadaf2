"""Analytic reference sets: mutually unbiased bases of C^2, C^3 and C^4, and
the Pauli quorums, which attain the quality bound exactly for every n = 2^k.

The Pauli quorums serve as end-to-end oracles for the metrics and the
optimizer.  A numerically found near-optimal dimension-6 chart ships with
the package as well.

Nothing here checks a construction when it is built: ``tomopack reference``
verifies each one it emits, and the tests verify them all.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .hilbert import Quorum

__all__ = [
    "mub_family",
    "verify_mub_family",
    "pauli_quorum",
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


def pauli_quorum(k: int) -> Quorum:
    """The optimal rank-n/2 quorum on C^n, n = 2^k: the projectors (1 + σ)/2
    over the n^2 - 1 non-identity Pauli strings σ.

    Tr(σ_a σ_b) = n δ_ab gives Q = σ/2 and G = (n/4)·1, the bound; every
    entry is 0, ±1/2, ±i/2 or 1, so G, L = 0 and P^2 = P hold bit for bit.
    The diagonal strings come first, led by Z⊗1⊗…⊗1, whose projector is
    diag(1,...,1,0,...,0); each group is in product order, first factor
    fastest.  k = 1 gives |0>, |+>, |+i>; k = 6 takes 268 MB (16^k entries).
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"pauli_quorum needs an integer k >= 1, got {k!r}")
    strings = paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for d in 2 ** np.arange(1, k):  # strings[a] ⊗ paulis[b] lands at index 4^j·b + a, d = 2^j
        strings = np.einsum("aij,bkl->baikjl", strings, paulis).reshape(-1, 2 * d, 2 * d)
    n = 2**k
    # a string is diagonal, every factor 1 or Z, iff its (0, 0) entry is nonzero; drop the identity
    order = np.argsort(strings[:, 0, 0] == 0, kind="stable")[1:]
    return Quorum(projectors=(np.eye(n) + strings[order]) / 2, n=n, l=n // 2)


def halfdim_optimal_quorum_n4() -> Quorum:
    """``pauli_quorum(2)``, kept by name: ``reference n4-rank2`` and
    ``extend --reference n4`` call it, and the benchmark imports and times it.
    """
    return pauli_quorum(2)


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

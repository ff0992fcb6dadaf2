"""Independent oracles shared by several test modules."""

import numpy as np

# The 4-angle chart whose quorum is exactly the n=2 oracle.  Each free vector
# is (cos t, sin t e^{ip}); |+> is (t, p) = (pi/4, 0) and |+i> is
# (pi/4, pi/2).  The fixed first projector |0><0| matches the oracle's first
# element.
CHART_N2_ORACLE = np.array([np.pi / 4, 0.0, np.pi / 4, np.pi / 2])
CHART_N2_ORACLE.setflags(write=False)


def quality_from_det(gram: np.ndarray) -> float:
    """Direct sqrt(det G) path, the cross-check of the log-space quality at small m."""
    det = float(np.linalg.det(gram))
    return float(np.sqrt(max(det, 0.0)))


def fixed_first_projector(n: int, l: int) -> np.ndarray:
    """diag(1,...,1,0,...,0) with l ones: the pinned first quorum element."""
    return np.diag(np.concatenate([np.ones(l), np.zeros(n - l)])).astype(complex)


def traceless_part(p: np.ndarray) -> np.ndarray:
    """Q = P - (Tr P / n)·1, over the last two axes of p."""
    p = np.asarray(p, dtype=complex)
    n = p.shape[-1]
    tr = np.trace(p, axis1=-2, axis2=-1).real
    return p - (tr / n)[..., None, None] * np.eye(n)


def chordal_distance_sq(p_i: np.ndarray, p_j: np.ndarray) -> float:
    """Squared chordal distance l - Tr(P_i P_j) between equal-rank projectors,
    computed pair by pair; the reference for the distances read off G."""
    p_i = np.asarray(p_i, dtype=complex)
    p_j = np.asarray(p_j, dtype=complex)
    if p_i.shape != p_j.shape or p_i.ndim != 2 or p_i.shape[0] != p_i.shape[1]:
        raise ValueError(f"projector shape mismatch: {p_i.shape} vs {p_j.shape}")
    l_i = np.trace(p_i).real
    l_j = np.trace(p_j).real
    if abs(l_i - l_j) > 1e-8:
        raise ValueError(f"rank mismatch: traces {l_i:.6f} vs {l_j:.6f}")
    val = l_i - np.einsum("ab,ba->", p_i, p_j).real
    return float(np.clip(val, 0.0, l_i))

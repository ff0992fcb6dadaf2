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

"""Derivative-free minimization: Powell's direction-set method (1964)
with a bracketing line search refined by Brent's (1973) golden-section/
parabolic steps.

No gradients anywhere; the only structure assumed of the objective is that
it is finite at the start point.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowellConfig",
    "LineResult",
    "PowellResult",
    "line_minimize",
    "powell_minimize",
]

_PHI = (1.0 + np.sqrt(5.0)) / 2.0  # the golden ratio
_CGOLD = 2.0 - _PHI  # golden-section fraction 0.381966...
_TINY = 1e-20
_EPS = float(np.finfo(float).eps)
# Bracketing grows the interval by _PHI per step; one line search makes at
# most _LINE_BUDGET objective calls.
_LINE_BUDGET = 100
# A line that moved x by t is accepted as a step of _STEP_GROWTH·|t|, kept
# within [_STEP_FLOOR, 1] rad: its direction's next line search starts there
# (with the sign of t), and so does the first line search of any direction
# that has none of its own yet.
_STEP_GROWTH = 2.0
_STEP_FLOOR = 1e-6


@dataclass(frozen=True)
class PowellConfig:
    """Tolerances of one Powell run.

    f_tol is the relative objective decrease over a sweep below which the
    run stops; x_tol is the line-search parameter tolerance: refinement
    stops once the minimum is located within tol1 = x_tol·|t| + max(x_tol, δ)
    on the line parameter t, where δ is the line's resolution, the distance
    over which the bracket's parabola changes f by one rounding unit.  The
    minimum counts as located when the bracket has shrunk to about 2·tol1
    around the best point, which holds on any line, or when the parabola
    through the three best points puts its vertex within tol1 of the best
    point, which on a smooth line says the same a few calls earlier.  How
    a line search brackets, and its budget of 100 objective calls, are fixed
    (see ``line_minimize``).  The sweep cap is ``powell_minimize``'s
    ``max_sweeps``.
    """

    f_tol: float = 1e-10
    x_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.f_tol < np.inf and 0 < self.x_tol < np.inf):  # NaN fails too
            raise ValueError("tolerances must be finite and positive")


@dataclass(frozen=True)
class LineResult:
    t: float
    fval: float
    evals: int
    bracketed: bool


@dataclass
class PowellResult:
    x: np.ndarray       # where the run ended
    fun: float          # f(x)
    nit: int
    nfev: int
    converged: bool
    x_best: np.ndarray  # the lowest point the run evaluated (x or a passed-over point)


def line_minimize(
    f,
    t0: float = 1.0,
    *,
    x_tol: float = 1e-10,
    f_origin: float | None = None,
) -> LineResult:
    """Minimize a 1-D function starting from the points t=0 and t=t0.

    First brackets a minimum by expanding downhill from (0, t0), each step
    the golden ratio times the last (searching toward negative t if
    f(t0) > f(0)), then refines inside the bracket with Brent's
    parabolic/golden steps down to tol1 = x_tol·|t| + max(x_tol, δ).
    δ = sqrt(2 ε (|f(b)| + 1) / κ) is the resolution of the line: with
    κ = 2·f[a, b, c] the curvature of the bracket (a, b, c) and ε the
    machine epsilon, the bracket's parabola changes f by less than one
    rounding unit over δ, so no finer location is meaningful (Brent 1973,
    §5).  When κ <= 0, δ is not defined and x_tol alone applies.
    The refinement starts from all three bracket points (the better end
    point as Brent's second-best), so its first step can be the parabola
    through them rather than a golden section.

    Refinement has two exits.  Brent's: the bracket has shrunk to within
    2·tol1 of the best point x; this one ends every search, also on kinked
    or noisy lines where parabolas mislead.  The parabola's: an accepted
    parabolic step would move x by less than tol1, so the parabola through
    the three best points already places the minimum within tol1 of x; the
    search returns x without evaluating that step, because probes at tol1
    from x would only confirm it.  Either way the result is the lowest
    point sampled.  A search makes at most 100 objective calls; if they
    find no bracket, the best sampled point is returned with
    ``bracketed=False``.  The result never lies above f(0).
    ``f_origin``, when given, is f(0), which is then not evaluated again.
    """
    if t0 == 0.0:
        raise ValueError("t0 must be nonzero")
    evals = 0

    def call(t):
        nonlocal evals
        evals += 1
        return float(f(t))

    a, fa = 0.0, (call(0.0) if f_origin is None else float(f_origin))
    f0 = fa
    b, fb = float(t0), call(t0)
    if fb > fa:
        a, b = b, a
        fa, fb = fb, fa
    c = b + _PHI * (b - a)
    fc = call(c)
    while fc < fb:
        if evals >= _LINE_BUDGET:
            # still descending; report the farthest (best) sample
            t_best, f_best = (c, fc) if fc <= f0 else (0.0, f0)
            return LineResult(t=t_best, fval=f_best, evals=evals, bracketed=False)
        a, fa = b, fb
        b, fb = c, fc
        c = b + _PHI * (b - a)
        fc = call(c)

    lo, hi = (a, c) if a < c else (c, a)
    x, fx = b, fb
    # Locating x more closely than the distance over which the bracket's
    # parabola changes f by one rounding unit only chases rounding noise.
    kappa = 2.0 * ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
    floor = x_tol
    if kappa > 0.0:
        floor = max(x_tol, np.sqrt(2.0 * _EPS * (abs(fb) + 1.0) / kappa))
    # Brent refinement: parabolic step when trustworthy, golden otherwise;
    # the bracket end points are the first parabola's other two points.
    (w, fw), (v, fv) = ((a, fa), (c, fc)) if fa <= fc else ((c, fc), (a, fa))
    d = e = hi - lo
    while evals < _LINE_BUDGET:
        m = 0.5 * (lo + hi)
        tol1 = x_tol * abs(x) + floor
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (hi - lo):
            break
        use_golden = True
        if abs(e) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            qd = (x - v) * (fx - fw)
            p = (x - v) * qd - (x - w) * r
            qd = 2.0 * (qd - r)
            if qd > 0.0:
                p = -p
            qd = abs(qd)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * qd * e_prev) and qd * (lo - x) < p < qd * (hi - x):
                d = p / qd
                if abs(d) < tol1:
                    # the parabola's vertex lies within tol1 of x
                    break
                u = x + d
                if (u - lo) < tol2 or (hi - u) < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (hi - x) if x < m else (lo - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = call(u)
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return LineResult(t=x, fval=fx, evals=evals, bracketed=True)


def _directions_degenerate(directions: np.ndarray) -> bool:
    """True when the direction set has (numerically) lost full rank."""
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms == 0.0):
        return True
    sign, logdet = np.linalg.slogdet(directions / norms[:, None])
    return sign == 0 or logdet < np.log(1e-12)


def powell_minimize(
    f, x0, cfg: PowellConfig = PowellConfig(), max_sweeps: int = 200, callback=None
) -> PowellResult:
    """Minimize f from x0 by Powell's method of successive line searches.

    Each sweep line-minimizes along every direction in the current set,
    then applies Powell's acceptance test on the extrapolated point to
    decide whether the sweep's net displacement replaces the direction of
    largest decrease.  The set is reset to the coordinate axes if it ever
    degenerates.  Stops when the relative decrease over a full sweep falls
    below f_tol or after max_sweeps sweeps.

    A line that moved x by t is accepted as a step of twice |t|, clipped
    to [1e-6, 1].  Its direction's next line search starts at that step
    with the sign of t.  A direction with no line search of its own yet
    starts at the run's last accepted step, or at 1.0 before there is one:
    each axis of the first sweep, the sweep displacement's direction put in
    the replaced slot, and every axis after a reset to the axes.  The one
    moved into the replaced slot keeps its step.  The line along the sweep
    displacement itself starts at 1.0, the extrapolated point, whose value
    is already known.

    ``callback(x, fval, nfev, sweep)`` runs after every sweep.

    Every accepted line minimum becomes x, and a line search returns the
    lowest point it sampled, so the only evaluated points that can lie below
    the final x are extrapolated points 2x - x_start that the direction test
    passed over.  ``x_best`` is the lowest of those if it lies below f(x),
    otherwise x; the run itself never moves there.
    """
    if max_sweeps <= 0:
        raise ValueError(f"max_sweeps must be positive, got {max_sweeps}")
    x = np.array(x0, dtype=float).reshape(-1).copy()
    n = x.size
    nfev = 0

    def ff(z):
        nonlocal nfev
        nfev += 1
        return float(f(z))

    f_cur = ff(x)
    if not np.isfinite(f_cur):
        raise ValueError(f"objective is not finite at x0 ({f_cur})")

    directions = np.eye(n)
    # signed start step of each direction's line search, 0 until it has one
    steps = np.zeros(n)
    last_step = 1.0  # the run's last accepted step
    x_skip, f_skip = None, np.inf  # lowest passed-over extrapolated point
    converged = False
    nit = 0
    for sweep in range(1, max_sweeps + 1):
        nit = sweep
        f_start = f_cur
        x_start = x.copy()
        delta = 0.0
        big = 0
        for i in range(n):
            u = directions[i]
            f_prev = f_cur
            line = line_minimize(
                lambda t: ff(x + t * u),
                t0=steps[i] if steps[i] != 0.0 else last_step,
                x_tol=cfg.x_tol,
                f_origin=f_prev,
            )
            if line.fval < f_cur and line.t != 0.0:
                x = x + line.t * u
                f_cur = line.fval
                last_step = float(np.clip(_STEP_GROWTH * abs(line.t), _STEP_FLOOR, 1.0))
                steps[i] = np.copysign(last_step, line.t)
            if f_prev - f_cur > delta:
                delta = f_prev - f_cur
                big = i
        if callback is not None:
            callback(x, f_cur, nfev, sweep)
        if 2.0 * (f_start - f_cur) <= cfg.f_tol * (abs(f_start) + abs(f_cur)) + _TINY:
            converged = True
            break
        # Powell's test on the extrapolated point 2x - x_start decides whether
        # the sweep displacement is worth keeping as a search direction.
        disp = x - x_start
        x_ext = x + disp
        f_ext = ff(x_ext)
        if f_ext < min(f_cur, f_skip):
            x_skip, f_skip = x_ext, f_ext
        if f_ext < f_start:
            t = 2.0 * (f_start - 2.0 * f_cur + f_ext) * (f_start - f_cur - delta) ** 2
            t -= delta * (f_start - f_ext) ** 2
            if t < 0.0:
                # x + 1.0 * disp is x_ext bit for bit: f_ext is its value
                line = line_minimize(
                    lambda s: f_ext if s == 1.0 else ff(x + s * disp),
                    t0=1.0,
                    x_tol=cfg.x_tol,
                    f_origin=f_cur,
                )
                if line.fval < f_cur and line.t != 0.0:
                    x = x + line.t * disp
                    f_cur = line.fval
                new_dir = line.t * disp
                norm = np.linalg.norm(new_dir)
                if norm > 0.0:
                    directions[big] = directions[n - 1]
                    directions[n - 1] = new_dir / norm
                    steps[big] = steps[n - 1]
                    steps[n - 1] = 0.0
                    if _directions_degenerate(directions):
                        directions = np.eye(n)
                        steps[:] = 0.0
    x_best = x_skip if f_skip < f_cur else x
    return PowellResult(x=x, fun=f_cur, nit=nit, nfev=nfev, converged=converged, x_best=x_best)

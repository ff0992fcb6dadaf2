"""Derivative-free minimization: Powell's direction-set method (1964)
with a bracketing line search refined by Brent's (1973) parabolic and
golden steps, and by steps to the kink of a V model where no parabola fits
(Mifflin & Strodiot, 1993).  ``line_minimize`` states the rules of a line
search, ``powell_minimize`` those of a run.

No gradients anywhere; the only structure assumed of the objective is that
it is finite at the start point.  Everything is deterministic.
"""

from __future__ import annotations

import bisect
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
_LINE_BUDGET = 100  # objective calls per line search
_GROW_LIMIT = 100.0  # bracketing probes at most this many last steps out
# a line that moved x by t starts its direction's next one at
# _STEP_GROWTH·|t|, within [_STEP_FLOOR, 1] rad
_STEP_GROWTH = 2.0
_STEP_FLOOR = 1e-6
_LINE_SHARE = 1e-2  # the share of the last sweep's gain its lines may give up


@dataclass(frozen=True)
class PowellConfig:
    """Tolerances of one Powell run.

    ``f_tol`` is the relative gain of a sweep below which the run stops and
    the resolution of its first sweep's lines (see ``powell_minimize``);
    ``x_tol`` is the line search's parameter tolerance (see
    ``line_minimize``).
    """

    f_tol: float = 1e-10
    x_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.f_tol < np.inf and 0 < self.x_tol < np.inf):  # NaN fails too
            raise ValueError("tolerances must be finite and positive")


@dataclass(frozen=True)
class LineResult:
    """The lowest point a line search sampled, ``fval`` = f(t), after
    ``evals`` objective calls.  ``bracketed`` is False only when the budget
    ran out with f still falling.  ``curvature`` is the bracket's κ (see
    ``line_minimize``); NaN on an unbracketed or kinked line, or when
    κ <= 0."""

    t: float
    fval: float
    evals: int
    bracketed: bool
    curvature: float


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
    curvature: float | None = None,
    f_tol: float = 0.0,
) -> LineResult:
    """Minimize a 1-D function starting from the points t=0 and t=t0.

    Bracketing expands downhill from (0, t0), toward negative t if
    f(t0) > f(0).  While f falls through the last three points a, b, c, the
    next probe is the golden step c + φ(c − b), or the vertex of the convex
    parabola through a, b and c when it lies beyond the golden step (a
    nearer one would make a lopsided bracket); no probe goes more than
    100·(c − b) past c (Brent 1973, ch. 5; Numerical Recipes §10.1).
    ``curvature``, when finite and positive, is the κ that the last line
    search along the same direction returned (kept per direction as in
    Brent's PRAXIS, 1973, ch. 7).  The third point is then the vertex of
    the parabola of that curvature through f(0) and f(t0), within 100·|t0|,
    unless it lies within tol1 of 0 or t0.  If the middle of the three
    sorted points is lowest they bracket; else bracketing goes on from the
    lower end point and probes the vertex of the convex parabola through
    the last three points wherever it lies.

    The resolution is tol1 = x_tol·|t| + max(x_tol, δ) at the best point t,
    with δ = sqrt(2 r (|f| + 1) / κ), r = max(ε, ``f_tol``), ε the machine
    epsilon and κ = 2·f[a, b, c] the curvature of the bracket (for the
    probe above, ``curvature``): over δ its parabola changes f by less
    than r·(|f| + 1), so a finer location would chase rounding noise or a
    gain that the caller counts as nothing.  When κ <= 0, x_tol alone
    applies.

    Refinement takes Brent's parabolic and golden steps inside the bracket,
    whose end points are the first parabola's other two points.  Where
    Brent would take a golden section, the V model goes first.  From the two
    nearest samples on each side of the best point x, a kink left of x is
    where the secant through the two left samples meets the secant through
    x and its right neighbour, and a kink right of x is the mirror image;
    each counts if its left secant falls, its right secant rises and it lies
    in its own interval, and the lower model value wins (Mifflin &
    Strodiot's five-point method, 1993).  The step to the kink must pass
    Brent's safeguards for a parabolic step: at least 2·tol1 inside the
    bracket, at least tol1 from x and shorter than half the step before
    last.  A kink within tol1 of x is closed instead by a probe tol1 from x
    toward the bracket's wider side.  If that probe lands below f(x), there
    was no kink at x (a jump beside it, say), and the line closes no kinks
    until a V-step lands at or below f(x).  A line that has taken a V-step
    is kinked: each later step tries the V model first, without the
    half-step safeguard, then the parabola, then the golden section.

    Brent's exit, a bracket shrunk to within 2·tol1 of x, ends any line.
    The parabola's exit returns x without evaluating an accepted parabolic
    step shorter than tol1; while bracketing, a convex parabola through a,
    b and c with its vertex within tol1 of c (tol1 taken at c) returns c.
    A kinked line has only Brent's exit in refinement, since a parabola
    through both arms of a V can put its vertex within tol1 of x while the
    kink lies farther off.  A search makes at most 100 objective calls; if
    they run out with f still falling it returns ``bracketed=False``.  The
    result is the lowest point sampled, never above f(0).

    ``f_origin``, when given, is f(0), which is then not evaluated again.
    ``t0`` must be finite and nonzero, ``x_tol`` finite and positive and
    ``f_tol`` finite and nonnegative (``ValueError`` otherwise).
    """
    if not (np.isfinite(t0) and t0 != 0.0):
        raise ValueError(f"t0 must be finite and nonzero, got {t0}")
    if not 0.0 < x_tol < np.inf:  # NaN fails too
        raise ValueError(f"x_tol must be finite and positive, got {x_tol}")
    if not 0.0 <= f_tol < np.inf:  # NaN fails too
        raise ValueError(f"f_tol must be finite and nonnegative, got {f_tol}")
    resolution = max(_EPS, f_tol)
    evals = 0
    samples = []  # every (t, f(t)) of this line, f(0) included, sorted by t

    def call(t):
        nonlocal evals
        evals += 1
        ft = float(f(t))
        bisect.insort(samples, (t, ft))
        return ft

    def floor(fv, kappa):
        """max(x_tol, δ) at a point of value fv on a parabola of curvature kappa."""
        if kappa > 0.0:
            return max(x_tol, np.sqrt(2.0 * resolution * (abs(fv) + 1.0) / kappa))
        return x_tol

    def v_step(limit):
        """The step from x to the V model's kink if it passes Brent's
        safeguards, ``limit`` standing for half the step before last; 0.0
        to close a kink within tol1 of x; else None."""
        k = _v_kink(samples, x, fx)
        if k is not None and abs(k - x) < tol1:
            return 0.0 if close_kinks else None
        if k is not None and lo + 2.0 * tol1 <= k <= hi - 2.0 * tol1 and abs(k - x) < limit:
            return k - x
        return None

    a, fa = 0.0, (call(0.0) if f_origin is None else float(f_origin))
    if f_origin is not None:
        samples.append((a, fa))
    f0 = fa
    b, fb = float(t0), call(t0)
    probe = None
    if curvature is not None and 0.0 < curvature < np.inf:  # NaN fails too
        u = b / 2.0 - (fb - fa) / (curvature * b)
        u = min(max(u, -_GROW_LIMIT * abs(b)), _GROW_LIMIT * abs(b))
        tol1 = x_tol * abs(u) + floor(min(fa, fb), curvature)
        if abs(u) > tol1 and abs(u - b) > tol1:
            probe = u
    if probe is None:
        if fb > fa:
            a, b = b, a
            fa, fb = fb, fa
        c = b + _PHI * (b - a)
        fc = call(c)
    else:
        # three sorted points, the lower end point last as c
        (a, fa), (b, fb), (c, fc) = sorted([(a, fa), (b, fb), (probe, call(probe))])
        if fa < fc:
            (a, fa), (c, fc) = (c, fc), (a, fa)
    while fc < fb:
        u = c + _PHI * (c - b)
        kappa = 2.0 * ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
        if kappa > 0.0:
            r = (b - a) * (fb - fc)
            q = (b - c) * (fb - fa)
            vertex = b - ((b - c) * q - (b - a) * r) / (2.0 * np.copysign(max(abs(q - r), _TINY), q - r))
            if abs(vertex - c) <= x_tol * abs(c) + floor(fc, kappa):  # the parabola's exit
                return LineResult(t=c, fval=fc, evals=evals, bracketed=True, curvature=kappa)
            if probe is not None or (vertex - u) * (c - b) > 0.0:
                limit = c + _GROW_LIMIT * (c - b)
                u = limit if (vertex - limit) * (c - b) > 0.0 else vertex
        if evals >= _LINE_BUDGET:  # still falling
            t_best, f_best = (c, fc) if fc <= f0 else (0.0, f0)
            return LineResult(t=t_best, fval=f_best, evals=evals, bracketed=False, curvature=np.nan)
        a, fa = b, fb
        if (u - b) * (u - c) < 0.0:
            # a vertex between b and c: (b, u, c) brackets unless f(u) > f(c)
            b, fb = u, call(u)
        else:
            b, fb = c, fc
            c, fc = u, call(u)

    lo, hi = (a, c) if a < c else (c, a)
    x, fx = b, fb
    kappa = 2.0 * ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
    tol_floor = floor(fb, kappa)
    (w, fw), (v, fv) = ((a, fa), (c, fc)) if fa <= fc else ((c, fc), (a, fa))
    d = e = hi - lo
    kinked = False  # a V-step was taken
    close_kinks = True  # off from a closing probe that lands below f(x)
    while evals < _LINE_BUDGET:
        m = 0.5 * (lo + hi)
        tol1 = x_tol * abs(x) + tol_floor
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (hi - lo):  # Brent's exit
            break
        e_prev = e
        kink = v_step(np.inf) if kinked else None
        if kink is None:
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
                e = d
                if abs(p) < abs(0.5 * qd * e_prev) and qd * (lo - x) < p < qd * (hi - x):
                    d = p / qd
                    if abs(d) < tol1 and not kinked:  # the parabola's exit
                        break
                    u = x + d
                    if (u - lo) < tol2 or (hi - u) < tol2:
                        d = tol1 if x < m else -tol1
                    use_golden = False
            if use_golden:
                e = (hi - x) if x < m else (lo - x)
                d = _CGOLD * e
                if not kinked:
                    kink = v_step(abs(0.5 * e_prev))
        if kink == 0.0:  # close the kink at x
            d = tol1 if x < m else -tol1
        elif kink is not None:
            d = e = kink
            kinked = True
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = call(u)
        if kink == 0.0 and fu < fx:
            close_kinks = False
        elif kink is not None and fu <= fx:
            close_kinks = True
        if fu <= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    curvature = kappa if kappa > 0.0 and not kinked else np.nan
    return LineResult(t=x, fval=fx, evals=evals, bracketed=True, curvature=curvature)


def _secant_kink(p, q, r, s):
    """Where the secant through points p, q meets the secant through r, s,
    as (t, f); None unless the first falls and the second rises."""
    left = (q[1] - p[1]) / (q[0] - p[0])
    right = (s[1] - r[1]) / (s[0] - r[0])
    if not left < 0.0 < right:
        return None
    t = (r[1] - q[1] + left * q[0] - right * r[0]) / (left - right)
    return t, q[1] + left * (t - q[0])


def _v_kink(samples, x, fx):
    """The kink of the V model of a line around its best point x (see
    ``line_minimize``), or None; ``samples`` is a list of (t, f) sorted by t."""
    i = bisect.bisect_left(samples, (x,))
    j = bisect.bisect_right(samples, (x, np.inf), i)
    left, right = samples[max(i - 2, 0):i], samples[j:j + 2]
    best = None
    if len(left) == 2 and right:
        kink = _secant_kink(left[0], left[1], (x, fx), right[0])
        if kink is not None and left[1][0] <= kink[0] <= x:
            best = kink
    if left and len(right) == 2:
        kink = _secant_kink(left[-1], (x, fx), right[0], right[1])
        if kink is not None and x <= kink[0] <= right[0][0] and (best is None or kink[1] < best[1]):
            best = kink
    return None if best is None else best[0]


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

    Each sweep line-minimizes along every direction of the set, then
    Powell's test on the extrapolated point 2x − x_start decides whether the
    sweep's displacement, line-minimized from x, replaces the direction of
    largest decrease: the direction in slot n − 1 moves there, and the new
    one takes slot n − 1.  The set is reset to the axes if it degenerates.
    A sweep that moved nothing skips the test.  The run stops when a sweep
    gains less than ``cfg.f_tol`` relative, or after ``max_sweeps`` sweeps.

    A line that moved x by t starts its direction's next line search at
    2|t| with the sign of t, clipped to [1e-6, 1]; that is also the run's
    last accepted step, where a direction without a line search of its own
    starts (1.0 before there is one).  Each direction likewise passes the
    ``curvature`` its last line search returned to its next one.  Both move
    with a direction to the replaced slot; a new direction and every axis
    after a reset have neither, so a one-sweep run searches without
    curvatures.  The displacement's line gets no curvature and starts at
    1.0, the extrapolated point, whose value is known.

    The first sweep's direction lines get ``cfg.f_tol`` as their ``f_tol``.
    After each sweep's direction lines and its stop test, the displacement
    line and every line of the next sweep get
    line_tol = 0.01·(f_start − f_cur)/(n·(|f_cur| + 1)): each line gives up
    at most 1 % of the last sweep's gain, shared out over n lines, and as
    the gains shrink line_tol falls to ε, as deep targets where f tends to 0
    need (Brent 1973, ch. 7, likewise ties line accuracy to the progress of
    the search).  Coarse lines can gain nothing where fine ones would, so
    the run stops only after a sweep whose lines got line_tol <= f_tol.

    ``callback(x, fval, nfev, sweep)`` runs after every sweep.  ``x_best``
    is x, or an extrapolated point below f(x) that the run passed over: no
    other evaluated point can lie below x.
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

    def axes():
        # a row per direction: the unit direction, the signed start step of
        # its next line search (0 until it has one) and its κ (NaN until it
        # has one); built in place, as n = 612 makes each copy 3 MB
        rows = np.zeros((n, n + 2))
        np.fill_diagonal(rows, 1.0)
        rows[:, n + 1] = np.nan
        return rows

    dirs = axes()
    last_step = 1.0  # the run's last accepted step
    x_skip, f_skip = None, np.inf  # lowest passed-over extrapolated point
    line_tol = cfg.f_tol
    converged = False
    for sweep in range(1, max_sweeps + 1):
        f_start = f_cur
        x_start = x.copy()
        delta = 0.0
        big = 0
        for i in range(n):
            u, step = dirs[i, :n], dirs[i, n]
            f_prev = f_cur
            line = line_minimize(
                lambda t: ff(x + t * u),
                t0=step if step != 0.0 else last_step,
                x_tol=cfg.x_tol,
                f_origin=f_prev,
                curvature=dirs[i, n + 1],
                f_tol=line_tol,
            )
            dirs[i, n + 1] = line.curvature
            if line.fval < f_cur and line.t != 0.0:
                x = x + line.t * u
                f_cur = line.fval
                last_step = float(np.clip(_STEP_GROWTH * abs(line.t), _STEP_FLOOR, 1.0))
                dirs[i, n] = np.copysign(last_step, line.t)
            if f_prev - f_cur > delta:
                delta = f_prev - f_cur
                big = i
        if callback is not None:
            callback(x, f_cur, nfev, sweep)
        if line_tol <= cfg.f_tol and 2.0 * (f_start - f_cur) <= cfg.f_tol * (abs(f_start) + abs(f_cur)) + _TINY:
            converged = True
            break
        line_tol = _LINE_SHARE * (f_start - f_cur) / (n * (abs(f_cur) + 1.0))
        disp = x - x_start
        if not disp.any():
            continue  # 2x - x_start is x
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
                    f_tol=line_tol,
                )
                if line.fval < f_cur and line.t != 0.0:
                    x = x + line.t * disp
                    f_cur = line.fval
                new_dir = line.t * disp
                norm = np.linalg.norm(new_dir)
                if norm > 0.0:
                    dirs[big] = dirs[n - 1]
                    dirs[n - 1] = np.r_[new_dir / norm, 0.0, np.nan]
                    if _directions_degenerate(dirs[:, :n]):
                        dirs = axes()
    x_best = x_skip if f_skip < f_cur else x
    return PowellResult(x=x, fun=f_cur, nit=sweep, nfev=nfev, converged=converged, x_best=x_best)

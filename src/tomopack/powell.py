"""Derivative-free minimization: Powell's direction-set method (1964)
with a bracketing line search refined by Brent's (1973) golden-section/
parabolic steps, which step to the kink of a V model where no parabola
fits (as in Mifflin & Strodiot's five-point method, 1993).  Each direction
keeps the curvature its last line search measured, as Brent's PRAXIS
does, so that the next one brackets with fewer calls.  A line inside a run
is located only as closely as the run's f_tol can tell points apart.

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
# Bracketing grows the interval by _PHI per step, or jumps to the vertex of
# the parabola through its last three points, at most _GROW_LIMIT times the
# last step past it; one line search makes at most _LINE_BUDGET objective
# calls.
_LINE_BUDGET = 100
_GROW_LIMIT = 100.0
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
    run stops, and it also sets each line's resolution; x_tol is the
    line-search parameter tolerance: refinement stops once the minimum is
    located within tol1 = x_tol·|t| + max(x_tol, δ) on the line parameter t,
    where δ = sqrt(2·max(ε, f_tol)·(|f| + 1)/κ) is the line's resolution,
    the distance over which the bracket's parabola (curvature κ) changes f
    by max(ε, f_tol)·(|f| + 1), ε the machine epsilon.  Where |f| is 1 or
    more, a finer location would buy gains that the run's own stopping test
    counts as nothing (on tomobench's n4_search, 13,741 evaluations to 1e-4
    instead of 17,575 at ε); where |f| is far below 1, that test, relative
    to |f|, is finer than δ.  The
    minimum counts as located when the bracket has shrunk to about 2·tol1
    around the best point, which holds on any line, or when the parabola
    through the three best points puts its vertex within tol1 of the best
    point, which on a smooth line says the same a few calls earlier; the
    parabola test applies while the bracket is still being expanded too.
    On a kinked line no parabola fits: where refinement would take a
    golden section, it steps to the kink of a V model through the nearest
    samples instead, then probes tol1 beside the kink so that the bracket
    test ends the line a few calls later.  Once a line has taken such a
    step, the V model goes before the parabola, and only the bracket test
    ends that line.
    How a line search brackets (golden steps, or the vertex of the
    parabola through its last three points; from a direction's second line
    search on, first the vertex of the parabola with the curvature its last
    line search measured), and its budget of 100 objective calls, are fixed
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
    """The lowest point a line search sampled, ``fval`` = f(t), after
    ``evals`` objective calls.  ``bracketed`` is False only when the budget
    ran out with f still falling.  ``curvature`` is the bracket's κ, the
    one that sets the line's resolution δ: the second difference of f along
    the line, for the next line search along the same direction.  It is NaN
    when the line is unbracketed or kinked (it took a V-step), or when
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

    First brackets a minimum by expanding downhill from (0, t0), searching
    toward negative t if f(t0) > f(0).  While f still falls through the
    last three points a, b, c (fa > fb > fc), the next probe is the golden
    step c + φ(c − b), or the vertex of the parabola through a, b and c
    when that parabola is convex and its vertex lies farther beyond c than
    the golden step; such a probe goes at most 100·(c − b) beyond c
    (Brent 1973, ch. 5; Press et al., Numerical Recipes §10.1).  A vertex
    nearer than the golden step is not probed: it would make a lopsided
    bracket, whose refinement falls back to golden sections.

    ``curvature``, when finite and positive, is the κ that the previous
    line search along the same direction returned (a second difference kept
    per direction, as in Brent's PRAXIS, 1973, ch. 7).  Then f(0) and f(t0)
    fix the parabola of that curvature, and its vertex
    u = t0/2 − (f(t0) − f(0))/(κ·t0), within 100·|t0|, is the third point
    instead of the golden step (it is skipped if it lies within tol1 of 0
    or t0).  If the middle of the three sorted points is lowest, they are
    the bracket; otherwise bracketing goes on from the lower end point, and
    probes the vertex of the convex parabola through the last three points
    wherever it lies, between b and c too.  Without a curvature (None, NaN
    or κ <= 0) the search runs as above.  On tomobench's n4_search, volume
    lines took 4.08 calls each with it and 4.69 without, resolved to
    machine epsilon; resolved to its f_tol = 1e-12 (below), they take 3.13.

    Then refines inside the bracket with Brent's parabolic/golden steps
    down to tol1 = x_tol·|t| + max(x_tol, δ).
    δ = sqrt(2 r (|f(b)| + 1) / κ) is the resolution of the line, with
    r = max(ε, ``f_tol``): with κ = 2·f[a, b, c] the curvature of the
    bracket (a, b, c), the bracket's parabola changes f by less than
    r·(|f(b)| + 1) over δ.  At ``f_tol`` = 0, r is the machine epsilon ε
    and δ the distance below which f changes by less than one rounding
    unit, so no finer location is meaningful (Brent 1973, §5); a caller
    that stops once f gains less than ``f_tol`` relative, as
    ``powell_minimize`` does, passes its ``f_tol`` and so stops resolving
    f below it.  The same δ sets tol1 in the curvature probe and the
    bracketing parabola exit.  When κ <= 0, δ is not defined and x_tol
    alone applies.
    The refinement starts from all three bracket points (the better end
    point as Brent's second-best), so its first step can be the parabola
    through them rather than a golden section.

    Where Brent would take a golden section (no parabola, or one that
    fails his safeguards), the refinement tries a V model first, for lines
    such as ln L = ln Σ|G_ij|, whose minimum sits on a kink where no
    parabola fits.  From the two nearest samples on each side of the best
    point x it intersects the secant through the two left samples with the
    secant through x and its right neighbour (a kink left of x), and the
    secant through x and its left neighbour with the secant through the two
    right samples (a kink right of x).  A candidate counts if its left
    secant falls, its right secant rises and the intersection lies in its
    own interval; the lower model value wins.  That kink is probed under
    Brent's safeguards for a parabolic step: at least 2·tol1 inside the
    bracket, at least tol1 from x, and shorter than half the step before
    last; otherwise the golden section is taken.  A kink within tol1 of x
    is closed instead: the probe goes to x ± tol1 toward the bracket's
    wider side, after which Brent's exit can fire.  If such a closing probe
    lands below f(x), there was no kink at x (a jump beside it, say), and
    the line closes no more kinks until a V-step lands at or below f(x).
    A line on which every parabolic step passes Brent's safeguards never
    builds the model.  Once a line has taken a V-step it counts as kinked:
    every later step tries the V model first (without the half-step
    safeguard, which guards parabolas against cycling) and falls back to
    the parabola, then the golden section, and the parabola's exit below
    no longer applies, since a parabola through points on both arms of a
    V can put its vertex within tol1 of x while the kink lies farther off.

    Refinement has two exits.  Brent's: the bracket has shrunk to within
    2·tol1 of the best point x; this one ends every search, also on kinked
    or noisy lines where parabolas mislead.  The parabola's: an accepted
    parabolic step would move x by less than tol1, so the parabola through
    the three best points already places the minimum within tol1 of x; the
    search returns x without evaluating that step, because probes at tol1
    from x would only confirm it (not on a kinked line, as above; there the
    step is a tol1 probe).  The parabola's exit applies while
    bracketing too: if the convex parabola through a, b and c puts its
    vertex within tol1 of c (tol1 and δ taken at c), the search returns c
    with ``bracketed=True`` and no confirming probe.  Either way the result
    is the lowest point sampled.

    The floor δ and both parabola exits assume a smooth line.  On a V the
    bracket's κ measures the arms' slopes, not a curvature at the minimum,
    so δ can be coarser than the line allows; and a parabola through points
    on both arms can put its vertex within tol1 of x while the kink lies
    farther off.  Only a line that has taken a V-step drops the
    refinement's parabola exit; the bracketing one, and the refinement's
    before any V-step, still fire on a V.
    ``line_minimize(lambda t: abs(t - 2.2), 1.5, x_tol=1e-4)`` returns
    t = 2.19238, 24·tol1 from the kink, by the bracketing parabola exit.

    A search makes at most 100 objective calls; if they run out with f
    still falling, the best sampled point is returned with
    ``bracketed=False``.  The result never lies above f(0).
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
    # the relative change of f below which δ counts points as equal
    resolution = max(_EPS, f_tol)
    evals = 0
    samples = []  # every (t, f(t)) of this line, f(0) included, sorted by t

    def call(t):
        nonlocal evals
        evals += 1
        ft = float(f(t))
        bisect.insort(samples, (t, ft))
        return ft

    a, fa = 0.0, (call(0.0) if f_origin is None else float(f_origin))
    if f_origin is not None:
        samples.append((a, fa))
    f0 = fa
    b, fb = float(t0), call(t0)
    # the vertex of the parabola of the given curvature through (0, f(0))
    # and (t0, f(t0)), within _GROW_LIMIT·|t0|
    probe = None
    if curvature is not None and 0.0 < curvature < np.inf:  # NaN fails too
        u = b / 2.0 - (fb - fa) / (curvature * b)
        u = min(max(u, -_GROW_LIMIT * abs(b)), _GROW_LIMIT * abs(b))
        delta = np.sqrt(2.0 * resolution * (abs(min(fa, fb)) + 1.0) / curvature)
        tol1 = x_tol * abs(u) + max(x_tol, delta)
        if abs(u) > tol1 and abs(u - b) > tol1:
            probe = u
    if probe is None:
        if fb > fa:
            a, b = b, a
            fa, fb = fb, fa
        c = b + _PHI * (b - a)
        fc = call(c)
    else:
        # three sorted points, the lower end point last as c: if the middle
        # one is lowest they bracket a minimum, else bracketing goes on past c
        (a, fa), (b, fb), (c, fc) = sorted([(a, fa), (b, fb), (probe, call(probe))])
        if fa < fc:
            (a, fa), (c, fc) = (c, fc), (a, fa)
    while fc < fb:
        u = c + _PHI * (c - b)
        # the parabola through a, b and c: its curvature and vertex (Press
        # et al., Numerical Recipes §10.1)
        kappa = 2.0 * ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
        if kappa > 0.0:
            r = (b - a) * (fb - fc)
            q = (b - c) * (fb - fa)
            vertex = b - ((b - c) * q - (b - a) * r) / (2.0 * np.copysign(max(abs(q - r), _TINY), q - r))
            tol1 = x_tol * abs(c) + max(x_tol, np.sqrt(2.0 * resolution * (abs(fc) + 1.0) / kappa))
            if abs(vertex - c) <= tol1:
                # the parabola places the minimum within tol1 of c
                return LineResult(t=c, fval=fc, evals=evals, bracketed=True, curvature=kappa)
            if probe is not None or (vertex - u) * (c - b) > 0.0:
                # past the golden step, or anywhere after a curvature probe:
                # probe the vertex, at most _GROW_LIMIT steps out
                limit = c + _GROW_LIMIT * (c - b)
                u = limit if (vertex - limit) * (c - b) > 0.0 else vertex
        if evals >= _LINE_BUDGET:
            # still descending; report the farthest (best) sample
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
    # Locating x more closely than the distance over which the bracket's
    # parabola changes f by one rounding unit only chases rounding noise,
    # and by f_tol relative only gains what the caller counts as nothing.
    kappa = 2.0 * ((fc - fb) / (c - b) - (fb - fa) / (b - a)) / (c - a)
    floor = x_tol
    if kappa > 0.0:
        floor = max(x_tol, np.sqrt(2.0 * resolution * (abs(fb) + 1.0) / kappa))
    # Brent refinement: parabolic step when trustworthy, golden otherwise;
    # the bracket end points are the first parabola's other two points.
    (w, fw), (v, fv) = ((a, fa), (c, fc)) if fa <= fc else ((c, fc), (a, fa))
    d = e = hi - lo
    kinked = False  # a V-step was taken: the V model goes first from then on
    close_kinks = True  # off from a closing probe that lands below f(x)
    while evals < _LINE_BUDGET:
        m = 0.5 * (lo + hi)
        tol1 = x_tol * abs(x) + floor
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (hi - lo):
            break
        e_prev = e
        # on a kinked line, the V model's kink before any parabola
        kink = _v_step(samples, x, fx, lo, hi, tol1, np.inf) if kinked else None
        if kink is None or (kink == 0.0 and not close_kinks):
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
                    if abs(d) < tol1 and not kinked:
                        # the parabola's vertex lies within tol1 of x
                        break
                    u = x + d
                    if (u - lo) < tol2 or (hi - u) < tol2:
                        d = tol1 if x < m else -tol1
                    use_golden = False
            if use_golden:
                e = (hi - x) if x < m else (lo - x)
                d = _CGOLD * e
                if not kinked:
                    # no parabola to trust, perhaps at a kink
                    kink = _v_step(samples, x, fx, lo, hi, tol1, abs(0.5 * e_prev))
        closing = kink == 0.0 and close_kinks
        if closing:
            # the kink is located: close the bracket's wider side by
            # Brent's tol1 nudge, after which his exit can fire
            d = tol1 if x < m else -tol1
        elif kink:
            d = e = kink
            kinked = True
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = call(u)
        if closing and fu < fx:
            close_kinks = False  # no kink at x after all, e.g. a jump beside it
        elif kink and fu <= fx:
            close_kinks = True  # a kink found afresh
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
    """The kink of the V model of a line around its best point x, or None.

    The model is built from the two nearest samples on each side of x in
    ``samples``, a list of (t, f) sorted by t.  A kink left of x is where
    the secant through the two left samples meets the secant through x and
    its right neighbour; a kink right of x is where the secant through x
    and its left neighbour meets the secant through the two right samples.
    Each counts only inside its own interval, and the lower of the two wins
    (a polyhedral model, as in Mifflin & Strodiot's five-point method,
    Math. Programming 62, 1993).
    """
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


def _v_step(samples, x, fx, lo, hi, tol1, limit):
    """The step from x to the V model's kink under Brent's safeguards for a
    parabolic step: at least 2·tol1 inside (lo, hi), at least tol1 from x
    and shorter than ``limit``.  0.0 when the kink lies within tol1 of x,
    None when there is no kink or the step fails them."""
    k = _v_kink(samples, x, fx)
    if k is None:
        return None
    if abs(k - x) < tol1:
        return 0.0
    if lo + 2.0 * tol1 <= k <= hi - 2.0 * tol1 and abs(k - x) < limit:
        return k - x
    return None


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

    Each direction also keeps the curvature κ that its last line search
    returned (``LineResult.curvature``) and passes it to its next one
    (``line_minimize``'s ``curvature``), which can then bracket with two new
    calls instead of three.  κ moves into the replaced slot with the step;
    the sweep displacement's direction has none, nor does any axis after a
    reset, and no direction borrows another's.  So the first sweep, and the
    line along the sweep displacement, search without one, and a one-sweep
    run searches as it would without curvatures.  On tomobench's n4_search
    this takes the evaluations to a deviation of 1e-4 from 19,688 to
    17,575.

    Every line search gets ``cfg.f_tol`` as its ``f_tol``, so it resolves
    f to the relative change that the sweep test registers, not to machine
    epsilon.  This takes n4_search from 17,575 evaluations to 13,741 (3.70
    calls per line instead of 4.74) and one sweep from the bundled n = 6
    chart from 2,000 to 1,866.  Where |f| is far below 1, the sweep test,
    relative to |f|, still counts gains that δ, relative to |f| + 1, no
    longer resolves: n = 4 runs, whose f tends to 0, reach a deviation of
    1e-8 less often.

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
    # signed start step of each direction's line search, 0 until it has one,
    # and the curvature of its last line search, NaN until it has one
    steps = np.zeros(n)
    curvatures = np.full(n, np.nan)
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
                curvature=curvatures[i],
                f_tol=cfg.f_tol,
            )
            curvatures[i] = line.curvature
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
                    f_tol=cfg.f_tol,
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
                    curvatures[big] = curvatures[n - 1]
                    curvatures[n - 1] = np.nan
                    if _directions_degenerate(directions):
                        directions = np.eye(n)
                        steps[:] = 0.0
                        curvatures[:] = np.nan
    x_best = x_skip if f_skip < f_cur else x
    return PowellResult(x=x, fun=f_cur, nit=nit, nfev=nfev, converged=converged, x_best=x_best)

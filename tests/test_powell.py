import numpy as np
import pytest

import tomopack.powell
from tomopack import bundled_chart_n6
from tomopack.hilbert import quorum_from_chart, random_chart
from tomopack.metrics import evaluate_quorum, upper_bound
from tomopack.powell import LineResult, PowellConfig, line_minimize, powell_minimize
from tomopack.schedule import LOG_L, NEG_LOG_QUALITY, make_objective


def asymmetric_v(t):
    """A V with slopes -3 and 0.2 at t = 0.1, plus a parabola."""
    return (3.0 * (0.1 - t) if t < 0.1 else 0.2 * (t - 0.1)) + 0.5 * (t - 0.1) ** 2


def jump(t):
    """Its infimum 0.01 is approached from below t = 0.3 but not attained."""
    return (t - 0.4) ** 2 + 0.1 * (t >= 0.3)


# Kinked lines, as ln L = ln Σ|G_ij| is along every line: f, start t0 and
# the t of the kink.
_KINK_C = 0.3137
KINKED_LINES = [
    pytest.param(lambda t: abs(t - 1.0), 1.5, 1.0, id="abs"),
    pytest.param(lambda t: abs(t - _KINK_C) + 0.05 * (t - _KINK_C) ** 2, 1.0, _KINK_C, id="abs-plus-square"),
    pytest.param(asymmetric_v, 1.0, 0.1, id="asymmetric-v"),
    pytest.param(lambda t: abs(t + 0.7) + 0.5 * abs(t - 0.2), 0.3, -0.7, id="two-kinks"),
]


# Smooth, kinked, discontinuous, oscillating and far-minimum lines: f and
# its start t0.
LINES = [
    pytest.param(lambda t: (t - 2.0) ** 2, 1.0, id="quadratic"),
    pytest.param(lambda t: -np.cos(t - 0.01), 1.0, id="cosine"),
    pytest.param(lambda t: (t - 0.3) ** 4 + (t - 0.3) ** 2, -0.5, id="quartic"),
    pytest.param(lambda t: np.exp(t) - 3.0 * t, 0.1, id="exponential"),
    pytest.param(lambda t: abs(t - 1.0), 1.5, id="kink"),
    pytest.param(lambda t: abs(t + 0.7) + 0.5 * abs(t - 0.2), 0.3, id="two-kinks"),
    pytest.param(asymmetric_v, 1.0, id="asymmetric-v"),
    pytest.param(jump, 1.0, id="jump"),
    pytest.param(lambda t: np.sin(37 * t) + 0.1 * t * t, 1.0, id="fast-oscillation"),
    pytest.param(lambda t: np.cos(5.0 * t) * np.exp(-0.1 * t * t), 0.2, id="damped-wave"),
    # minima many start steps away, reached by parabolic extrapolation
    pytest.param(lambda t: (t - 40.0) ** 2, 1.0, id="far-quadratic"),
    pytest.param(lambda t: (t + 300.0) ** 2 + 1.0, 0.5, id="far-negative"),
    pytest.param(lambda t: np.cosh((t - 25.0) / 3.0), 1.0, id="far-cosh"),
    pytest.param(lambda t: -1.0 / (1.0 + ((t - 60.0) / 5.0) ** 2), 1.0, id="far-lorentzian"),
    pytest.param(lambda t: (t - 1e6) ** 2, 1.0, id="past-the-cap"),
]


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _record_lines(monkeypatch):
    """Record every line search as ("line", t0, result, f_origin)."""
    events = []
    real_line = tomopack.powell.line_minimize

    def recording_line(f, t0=1.0, **kwargs):
        res = real_line(f, t0, **kwargs)
        events.append(("line", t0, res, kwargs["f_origin"]))
        return res

    monkeypatch.setattr(tomopack.powell, "line_minimize", recording_line)
    return events


def _sweeps(events, dim):
    """Split recorded events into sweeps of ``dim`` direction lines.

    Each sweep lists its lines as (t0, the run's last accepted step before
    the line), the t by which each line moved x (None if it moved nowhere),
    and whether a direction was replaced after it.  The line along the sweep
    displacement, between a sweep's callback and the next sweep, is left
    out: its t is in units of the displacement and sets no step.
    """
    sweeps, lines, last = [], [], 1.0
    for event in events:
        if event[0] == "sweep":
            sweeps.append({"lines": [], "moved": [], "replaced": False})
            for t0, res, f_origin in lines[-dim:]:
                sweeps[-1]["lines"].append((t0, last))
                moved = None
                if res.fval < f_origin and res.t != 0.0:
                    moved = res.t
                    last = float(np.clip(2.0 * abs(res.t), 1e-6, 1.0))
                sweeps[-1]["moved"].append(moved)
            lines = []
        elif event[0] == "replace":
            sweeps[-1]["replaced"] = True
        else:
            lines.append(event[1:])
    return sweeps


class TestLineMinimize:
    def test_parabola_vertex_ends_refinement(self):
        # t = 1, 1 + φ and 1 + φ + φ² bracket 2 in three calls; the parabola
        # through them has its vertex at 2 exactly, the fourth call lands
        # there, and the next parabola's step is 0 < tol1: no probe beside it
        res = line_minimize(lambda t: (t - 2.0) ** 2, 1.0, f_origin=4.0)
        assert res.t == 2.0
        assert res.evals == 4

    @pytest.mark.parametrize("f,t0", LINES)
    @pytest.mark.parametrize("x_tol", [1e-4, 1e-10])
    def test_result_is_lowest_sample(self, f, t0, x_tol):
        # PowellResult.x_best relies on this: whichever exit ends the
        # refinement, no sampled point lies below the returned one
        values = []

        def recorded(t):
            values.append(float(f(t)))
            return values[-1]

        res = line_minimize(recorded, t0, x_tol=x_tol)
        assert res.bracketed
        assert res.evals == len(values)
        assert res.fval == min(values)
        assert float(f(res.t)) == res.fval  # t is where fval was sampled

    def test_curvature_brackets_in_two_calls(self):
        # f(0) = 4 is known and f(1) = 1: the parabola of curvature 2 through
        # them has its vertex at 2, which the second call probes; the
        # parabola through 0, 1 and 2 puts its vertex there too, and the
        # line ends without the golden step to -φ
        res = line_minimize(lambda t: (t - 2.0) ** 2, 1.0, f_origin=4.0, curvature=2.0)
        assert res.t == 2.0
        assert res.evals == 2
        assert res.curvature == 2.0

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_misjudged_curvature_still_locates(self, scale):
        # a curvature 10× too high probes short of the minimum, one 10× too
        # low far past it; either way bracketing and refinement go on
        res = line_minimize(lambda t: (t - 2.0) ** 2, 1.0, f_origin=4.0, curvature=2.0 * scale)
        eps = np.finfo(float).eps
        tol1 = 1e-10 * 2.0 + max(1e-10, np.sqrt(2.0 * eps * (res.fval + 1.0) / 2.0))
        assert res.bracketed
        assert abs(res.t - 2.0) <= tol1
        assert res.fval <= 4.0

    @pytest.mark.parametrize("f,t0", LINES)
    @pytest.mark.parametrize("curvature", [None, float("nan"), 0.0, -2.0])
    def test_no_curvature_searches_as_before(self, f, t0, curvature):
        # the first line along a direction has no curvature to go on, nor
        # does one after a kinked line: it samples exactly as without one
        def searched(**kwargs):
            probes = []
            res = line_minimize(lambda t: probes.append(t) or f(t), t0, x_tol=1e-10, **kwargs)
            return res, probes

        res, probes = searched(curvature=curvature)
        ref, ref_probes = searched()
        assert (res.t, res.fval, res.evals) == (ref.t, ref.fval, ref.evals)
        assert probes == ref_probes

    def test_kinked_line_returns_no_curvature(self):
        # the bracket's κ measures a V's arms, not a curvature at the kink
        res = line_minimize(lambda t: abs(t - 2.2), 1.5)
        assert abs(res.t - 2.2) <= 1e-8
        assert np.isnan(res.curvature)

    def test_unbracketed_line_returns_no_curvature(self):
        assert np.isnan(line_minimize(lambda t: t, 1.0).curvature)

    def test_quadratic_exact(self):
        res = line_minimize(lambda t: (t - 2.0) ** 2, 1.0)
        assert res.bracketed
        assert abs(res.t - 2.0) <= 1e-10

    def test_absolute_value_kink(self):
        res = line_minimize(lambda t: abs(t - 1.0), 1.5)
        assert res.bracketed
        assert abs(res.t - 1.0) <= 1e-8

    def test_kinked_lines_located_cheaply(self):
        # where no parabola fits, the V model's steps find each kink and its
        # closing probes shrink the bracket around it; golden sections and
        # parabolas alone took 134 calls on these four lines, the V model 51
        total = 0
        for param in KINKED_LINES:
            f, t0, kink = param.values
            res = line_minimize(f, t0, x_tol=1e-10)
            assert res.bracketed
            assert abs(res.t - kink) <= 1e-7, param.id
            total += res.evals
        assert total <= 70

    def test_kinks_with_curved_arms_located(self):
        # ln(1 + V + q(t - c)^2), a V with slopes s1, s2 at a kink c near 0,
        # as ln L is along a line: once a line has stepped to the V model's
        # kink, a parabola through points on both arms no longer ends it
        # early.  With that exit, 4 of these 200 lines ended 3e-8 or more
        # from their kink (the worst 2.2e-7); golden sections alone, 52
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = rng.uniform(0.001, 0.01) * rng.choice([-1.0, 1.0])
            s1, s2, q = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)

            def f(t, c=c, s1=s1, s2=s2, q=q):
                return np.log(1.0 + (s1 * (c - t) if t < c else s2 * (t - c)) + q * (t - c) ** 2)

            res = line_minimize(f, 1.0, x_tol=1e-9, f_origin=f(0.0))
            assert res.bracketed
            assert abs(res.t - c) < 3e-8

    @pytest.mark.parametrize("x_tol,max_evals,distance", [(1e-4, 19, 1e-4), (1e-10, 45, 1e-7)])
    def test_jump_ends_below_it(self, x_tol, max_evals, distance):
        # the V model puts a kink at the jump; a closing probe there lands
        # lower, so closing probes stop there instead of creeping
        # toward the jump by tol1 per call until the budget runs out
        res = line_minimize(jump, 1.0, x_tol=x_tol)
        assert res.bracketed
        assert res.evals <= max_evals
        assert 0.3 - distance <= res.t < 0.3

    def test_negative_direction(self):
        res = line_minimize(lambda t: (t + 3.0) ** 2, 1.0)
        assert abs(res.t + 3.0) <= 1e-8

    def test_monotone_returns_best_sample_with_flag(self):
        res = line_minimize(lambda t: t, 1.0)
        assert not res.bracketed
        assert res.evals == 100
        assert res.t < 0  # walked downhill as far as the budget allowed
        assert res.fval == res.t

    @pytest.mark.parametrize(
        "f,t0",
        [
            pytest.param(lambda t: -t, -1.0, id="linear"),
            pytest.param(lambda t: -t * t, 1.0, id="concave"),
            pytest.param(lambda t: -t * t + 3.0 * t, -0.5, id="concave-uphill-start"),
        ],
    )
    def test_unbounded_line_exhausts_budget(self, f, t0):
        # no convex parabola through three falling points, so no vertex is
        # probed: golden steps to the budget, and the best (farthest) sample
        # comes back unbracketed (f = t is test_monotone_returns_best_sample_with_flag)
        values = []

        def recorded(t):
            values.append(float(f(t)))
            return values[-1]

        res = line_minimize(recorded, t0)
        assert not res.bracketed
        assert res.evals == 100
        assert res.fval == min(values)
        assert np.isfinite(res.t)

    def test_far_minimum_bracketed_by_extrapolation(self):
        # 0, 1 and 1 + φ lie on the parabola (t - 40)², whose vertex 40 is
        # probed at once; the next parabola's vertex is within tol1 of 40,
        # so no probe confirms it.  Golden steps alone took 9 calls
        res = line_minimize(lambda t: (t - 40.0) ** 2, 1.0, f_origin=1600.0)
        assert res.bracketed
        assert res.evals <= 3
        eps = np.finfo(float).eps
        tol1 = 1e-10 * 40.0 + max(1e-10, np.sqrt(2.0 * eps * (res.fval + 1.0) / 2.0))
        assert abs(res.t - 40.0) <= tol1

    def test_extrapolation_capped_at_grow_limit(self):
        # the vertex 1e6 lies past c + 100·(c − b) for the first probes:
        # while f falls, no probe goes farther than that cap beyond c
        probes = []

        def recorded(t):
            probes.append(float(t))
            return (t - 1e6) ** 2

        res = line_minimize(recorded, 1.0, f_origin=1e12)
        assert res.bracketed
        assert abs(res.t - 1e6) <= 1e-3
        ts = [0.0] + probes
        ratios = []
        for b, c, u in zip(ts, ts[1:], ts[2:]):
            if not b < c < u:
                break
            ratios.append((u - c) / (c - b))
        assert ratios and max(ratios) <= 100.0 * (1.0 + 1e-12)
        assert sum(r >= 100.0 * (1.0 - 1e-12) for r in ratios) >= 2  # the cap binds

    def test_never_worse_than_origin(self):
        # a nasty oscillation: whatever happens, the result must not be uphill
        res = line_minimize(lambda t: np.sin(37 * t) + 0.1 * t * t, 1.0)
        assert res.fval <= 0.0 + 1e-15  # f(0) = 0

    def test_zero_t0_rejected(self):
        with pytest.raises(ValueError):
            line_minimize(lambda t: t * t, 0.0)

    @pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_t0_rejected(self, t0):
        # NaN once ran the budget to t = nan; ±inf to "bracketed" at t = 0
        calls = []
        with pytest.raises(ValueError, match="t0"):
            line_minimize(lambda t: calls.append(t) or t * t, t0)
        assert calls == []

    @pytest.mark.parametrize("x_tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_bad_x_tol_rejected(self, x_tol):
        # NaN once ran (t - 1)² to the budget; three calls solve it
        calls = []
        with pytest.raises(ValueError, match="x_tol"):
            line_minimize(lambda t: calls.append(t) or (t - 1.0) ** 2, 1.0, x_tol=x_tol)
        assert calls == []

    def test_refinement_seeded_with_bracket(self):
        # the bracket end points seed the first parabola; refining from a
        # golden step instead took 28 evaluations here, 11 before the
        # refinement stopped at the line's resolution and 9 before it
        # stopped on a parabola's vertex within tol1
        res = line_minimize(lambda t: -np.cos(t - 0.01), 1.0, x_tol=1e-9)
        assert abs(res.t - 0.01) <= 1e-8
        assert res.evals <= 7

    def test_refinement_stops_at_line_resolution(self):
        # f changes by less than one rounding unit within ~1e-8 of 0.3, so
        # x_tol = 1e-12 cannot be met; refining toward it took 42
        # evaluations and ended 1.8e-8 away, and probing tol1 beside the
        # parabola's vertex took 2 more than the 4 needed now
        res = line_minimize(lambda t: (t - 0.3) ** 2 + 5.0, 1.0, x_tol=1e-12)
        assert res.bracketed
        assert res.evals <= 4
        assert abs(res.t - 0.3) <= 1e-15
        assert res.fval == 5.0

    @pytest.mark.parametrize(
        "f,t0", LINES + [pytest.param(*p.values[:2], id=p.id) for p in KINKED_LINES]
    )
    def test_zero_f_tol_searches_as_before(self, f, t0):
        # f_tol = 0 leaves δ at machine epsilon: a standalone line search
        # samples exactly as with no f_tol given
        def searched(**kwargs):
            probes = []
            res = line_minimize(lambda t: probes.append(t) or f(t), t0, x_tol=1e-10, **kwargs)
            return res, probes

        res, probes = searched(f_tol=0.0)
        ref, ref_probes = searched()
        assert (res.t, res.fval, res.evals) == (ref.t, ref.fval, ref.evals)
        assert res.curvature == ref.curvature or np.isnan(res.curvature) and np.isnan(ref.curvature)
        assert probes == ref_probes

    def test_f_tol_sets_line_resolution(self):
        # a start 1e-6 from the minimum: at f_tol = 1e-12, δ = sqrt(2·f_tol
        # ·(|f| + 1)/κ) ≈ 2.4e-6, so the bracketing parabola accepts it; at
        # f_tol = 0, δ ≈ 3.7e-8 and the vertex is probed.  Located within δ
        # (or 2δ, by the bracket), f lies at most 4·f_tol·(|f| + 1) above
        # the minimum on a parabola
        def f(t):
            return (t - 0.3) ** 2 + 5.0

        coarse = line_minimize(f, 0.3 + 1e-6, x_tol=1e-12, f_tol=1e-12)
        fine = line_minimize(f, 0.3 + 1e-6, x_tol=1e-12, f_tol=0.0)
        assert coarse.bracketed
        assert coarse.evals < fine.evals
        assert coarse.fval - 5.0 <= 4.0 * 1e-12 * (abs(coarse.fval) + 1.0)

    @pytest.mark.parametrize("f_tol", [-1.0, float("nan"), float("inf")])
    def test_bad_f_tol_rejected(self, f_tol):
        calls = []
        with pytest.raises(ValueError, match="f_tol"):
            line_minimize(lambda t: calls.append(t) or (t - 1.0) ** 2, 1.0, f_tol=f_tol)
        assert calls == []

    def test_constant_function_terminates(self):
        # a flat bracket has curvature 0: no resolution floor, x_tol alone
        res = line_minimize(lambda t: 3.0, 1.0, x_tol=1e-10)
        assert res.evals < 100
        assert res.fval == 3.0

    def test_floor_leaves_nothing_resolvable_on_n6_lines(self):
        # On coordinate lines of the bundled n = 6 chart, fit a parabola to
        # 201 points within 10 line resolutions δ of the result; the fit
        # averages out f's rounding jitter (~1e-15 rms here, so single grid
        # points dip below fval by noise alone).  The refinement stops once
        # the minimum is bracketed within about 2δ of t, where the parabola
        # lies at most κ/2·(2δ)² = 4ε(|f| + 1) below fval.
        eps = np.finfo(float).eps
        objective = make_objective(NEG_LOG_QUALITY, 6, 3)
        x0 = bundled_chart_n6()
        for i in np.linspace(0, x0.size - 1, 10).astype(int):
            e = np.zeros(x0.size)
            e[i] = 1.0
            g = lambda t: objective(x0 + t * e)
            res = line_minimize(g, 1.0, x_tol=1e-9, f_origin=g(0.0))
            h = 1e-3
            kappa = (g(res.t + h) - 2.0 * res.fval + g(res.t - h)) / h**2
            unit = eps * (abs(res.fval) + 1.0)
            delta = np.sqrt(2.0 * unit / kappa)
            offsets = np.linspace(-10.0 * delta, 10.0 * delta, 201)
            values = np.array([g(res.t + s) for s in offsets])
            c2, c1, c0 = np.polyfit(offsets, values - res.fval, 2)
            fit_min = c0 - c1 * c1 / (4.0 * c2)
            assert c2 > 0.0, i
            assert fit_min >= -4.0 * unit, (i, fit_min / unit)


class TestPowellConfig:
    def test_defaults(self):
        cfg = PowellConfig()
        assert cfg.f_tol == 1e-10
        assert cfg.x_tol == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            PowellConfig(f_tol=0.0)
        with pytest.raises(ValueError):
            PowellConfig(x_tol=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            PowellConfig(x_tol=float("inf"))


class TestPowellMinimize:
    def test_quadratic_bowl_to_machine_precision(self):
        rng = np.random.default_rng(3)
        res = powell_minimize(lambda x: float(np.sum(x * x)), rng.normal(size=10))
        assert res.fun <= 1e-16
        assert res.converged

    def test_rosenbrock_standard_start(self):
        res = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), PowellConfig(), 200)
        assert res.fun <= 1e-8
        assert res.nit <= 200
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_history_non_increasing(self):
        h = []
        powell_minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda x, f, n, s: h.append(f))
        assert np.all(np.diff(h) <= 1e-12)

    def test_never_above_start(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=6)
        f = lambda x: float(np.sum(np.cos(x) + 0.1 * x * x))
        assert powell_minimize(f, x0).fun <= f(x0)

    def test_deterministic(self):
        ha, hb = [], []
        a = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda x, f, n, s: ha.append(f))
        b = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda x, f, n, s: hb.append(f))
        assert a.fun == b.fun
        assert np.array_equal(a.x, b.x)
        assert ha == hb

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            powell_minimize(lambda x: float("nan"), np.zeros(2))

    def test_max_sweeps_respected(self):
        res = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), PowellConfig(), 3)
        assert res.nit == 3
        assert not res.converged

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_non_positive_max_sweeps_rejected(self, max_sweeps):
        calls = []
        with pytest.raises(ValueError, match="max_sweeps"):
            powell_minimize(lambda x: calls.append(x) or 0.0, np.zeros(2), max_sweeps=max_sweeps)
        assert calls == []

    def test_callback_sees_every_sweep(self):
        sweeps = []
        powell_minimize(
            rosenbrock,
            np.array([-1.2, 1.0]),
            PowellConfig(),
            5,
            callback=lambda x, f, nfev, sweep: sweeps.append((sweep, f)),
        )
        assert [s for s, _ in sweeps] == [1, 2, 3, 4, 5]
        fs = [f for _, f in sweeps]
        assert fs == sorted(fs, reverse=True) or all(
            fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1)
        )

    def test_second_sweep_cheaper_on_separable_function(self):
        # each axis remembers twice its last step, so the second sweep
        # brackets on the scale of the first sweep's moves, not on 1 rad
        c = np.array([0.01, -0.02, 0.03, 0.015])
        nfev = []
        powell_minimize(
            lambda x: float(np.sum(-np.cos(x - c))),
            np.zeros(4),
            PowellConfig(),
            2,
            callback=lambda x, f, n, sweep: nfev.append(n),
        )
        first = nfev[0] - 1  # less the evaluation at x0
        second = nfev[1] - nfev[0]  # includes Powell's extrapolated point
        assert second < first

    def test_steps_reset_with_directions(self, monkeypatch):
        # force a reset to the axes whenever a direction is replaced; each
        # of the n line searches after it starts at the step accepted last
        # before it, as a direction with no line search of its own does
        dim = 3
        events = _record_lines(monkeypatch)

        def always_degenerate(directions):
            events.append(("replace",))
            return True

        monkeypatch.setattr(tomopack.powell, "_directions_degenerate", always_degenerate)
        a = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]])
        powell_minimize(
            lambda x: float((x - 0.1) @ a @ (x - 0.1) + np.sum((x - 0.1) ** 4)),
            np.array([0.7, -0.4, 0.9]),
            PowellConfig(),
            6,
            callback=lambda *args: events.append(("sweep",)),
        )
        sweeps = _sweeps(events, dim)
        resets = [k for k, sweep in enumerate(sweeps) if sweep["replaced"]]
        assert resets, "no direction was replaced"
        assert any(t0 != 1.0 for t0, _ in sweeps[resets[0]]["lines"])
        checked = []
        for k in resets:
            if k + 1 < len(sweeps):
                after = sweeps[k + 1]["lines"]
                assert [t0 for t0, _ in after] == [last for _, last in after]
                checked += [t0 for t0, _ in after]
        assert any(t0 != 1.0 for t0 in checked)  # not the rule's 1.0 fallback

    def test_fresh_direction_starts_at_last_accepted_step(self, monkeypatch):
        # minima at offsets of 1e-3 from x0: on the first sweep, line k + 1
        # starts at line k's accepted step, not at 1 rad, and so does the
        # sweep displacement's direction in the replaced slot n - 1
        dim = 3
        events = _record_lines(monkeypatch)
        real_degenerate = tomopack.powell._directions_degenerate

        def recording_degenerate(directions):
            events.append(("replace",))
            return real_degenerate(directions)

        monkeypatch.setattr(tomopack.powell, "_directions_degenerate", recording_degenerate)
        a = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]])
        c = np.array([2e-3, -1e-3, 5e-4])
        powell_minimize(
            lambda x: float((x - c) @ a @ (x - c)),
            np.zeros(dim),
            PowellConfig(),
            4,
            callback=lambda *args: events.append(("sweep",)),
        )
        sweeps = _sweeps(events, dim)
        first = [t0 for t0, _ in sweeps[0]["lines"]]
        moved = sweeps[0]["moved"]
        assert first[0] == 1.0
        assert all(t is not None for t in moved[:-1])
        assert first[1:] == [np.clip(2.0 * abs(t), 1e-6, 1.0) for t in moved[:-1]]
        assert max(first[1:]) < 1e-2
        replaced = [k for k, sweep in enumerate(sweeps[:-1]) if sweep["replaced"]]
        assert replaced, "no direction was replaced"
        for k in replaced:
            t0, last = sweeps[k + 1]["lines"][dim - 1]
            assert t0 == last
            assert t0 < 1e-2

    @pytest.mark.parametrize("forced_reset", [False, True])
    def test_curvature_follows_steps(self, monkeypatch, forced_reset):
        # each direction's line search gets the κ its last one returned; a
        # replacement moves slot n - 1's κ to the replaced slot, the new
        # direction in slot n - 1 has none, and a reset clears them all
        dim = 3
        events = []
        real_line = tomopack.powell.line_minimize
        real_degenerate = tomopack.powell._directions_degenerate

        def recording_line(f, t0=1.0, **kwargs):
            res = real_line(f, t0, **kwargs)
            if "curvature" in kwargs:  # not the sweep displacement's line
                events.append(("line", kwargs["f_origin"], kwargs["curvature"], res))
            return res

        def recording_degenerate(directions):
            events.append(("replace",))
            return forced_reset or real_degenerate(directions)

        monkeypatch.setattr(tomopack.powell, "line_minimize", recording_line)
        monkeypatch.setattr(tomopack.powell, "_directions_degenerate", recording_degenerate)
        a = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]])
        powell_minimize(
            lambda x: float((x - 0.1) @ a @ (x - 0.1) + np.sum((x - 0.1) ** 4)),
            np.array([0.7, -0.4, 0.9]),
            PowellConfig(),
            6,
        )
        expected = np.full(dim, np.nan)
        passed, moved, decreases = [], 0, []
        for event in events:
            if event[0] == "line":
                _, f_origin, curvature, res = event
                i = len(decreases) % dim
                passed.append(curvature)
                assert curvature == expected[i] or np.isnan(curvature) and np.isnan(expected[i])
                expected[i] = res.curvature
                decreases.append(f_origin - res.fval if res.fval < f_origin and res.t != 0.0 else 0.0)
            else:
                # the replaced slot is the sweep's line of largest decrease
                sweep = decreases[-dim:]
                big = sweep.index(max(sweep)) if max(sweep) > 0.0 else 0
                moved += big != dim - 1 and np.isfinite(expected[dim - 1])
                expected[big] = expected[dim - 1]
                expected[dim - 1] = np.nan
                if forced_reset:
                    expected[:] = np.nan
        assert np.isnan(passed[:dim]).all()  # the first sweep has none
        assert np.isfinite(passed).sum() >= (2 if forced_reset else dim)
        assert forced_reset or moved, "no κ moved to a replaced slot"

    @pytest.mark.parametrize("n,l", [(3, 1), (4, 2)])
    def test_first_sweep_gets_no_curvature(self, monkeypatch, n, l):
        # so a one-sweep run (n6_refine, `optimize --resume`) searches as it
        # did before directions kept a curvature
        passed = []
        real_line = tomopack.powell.line_minimize

        def recording_line(f, t0=1.0, **kwargs):
            passed.append(kwargs.get("curvature"))
            return real_line(f, t0, **kwargs)

        monkeypatch.setattr(tomopack.powell, "line_minimize", recording_line)
        objective = make_objective(NEG_LOG_QUALITY, n, l)
        x0 = random_chart(np.random.default_rng(1), n, l)
        powell_minimize(objective, x0, PowellConfig(x_tol=1e-9, f_tol=1e-12), 2)
        dim = x0.size
        assert all(c is not None and np.isnan(c) for c in passed[:dim])
        assert any(c is not None and np.isfinite(c) for c in passed[dim:])

    def test_extrapolated_point_evaluated_once(self, monkeypatch):
        # the line along the sweep displacement starts at t = 1, the
        # extrapolated point 2x - x_start, whose value Powell's test took
        replaced = []
        real_degenerate = tomopack.powell._directions_degenerate

        def recording_degenerate(directions):
            replaced.append(True)
            return real_degenerate(directions)

        monkeypatch.setattr(tomopack.powell, "_directions_degenerate", recording_degenerate)
        points = []
        after_sweep = []

        def recorded(x):
            points.append(x.tobytes())
            return rosenbrock(x)

        powell_minimize(
            recorded,
            np.array([-1.2, 1.0]),
            PowellConfig(),
            10,
            callback=lambda *args: after_sweep.append(len(points)),
        )
        assert replaced, "no direction was replaced"
        extrapolated = [points[k] for k in after_sweep if k < len(points)]
        assert len(extrapolated) >= 9
        for x_ext in extrapolated:
            assert points.count(x_ext) == 1

    def test_one_sweep_from_bundled_n6_chart(self):
        # the `optimize --resume` case: one volume sweep from the stored
        # chart, whose line minima lie at |t| ~ 1e-5; fresh directions that
        # start at 1 rad took 3,494 evaluations here, 5.71 per line, and
        # brackets grown by golden steps alone took 2,292, 3.74 per line
        # (2,104 with parabolic extrapolation, 2,000 with the V model on its
        # five lines that cross a θ₁ = π/2 wall of the chart map, 1,866 with
        # each line resolved to f_tol instead of machine epsilon; the margin
        # covers last-bit BLAS differences)
        objective = make_objective(NEG_LOG_QUALITY, 6, 3)
        x0 = bundled_chart_n6()
        res = powell_minimize(objective, x0, PowellConfig(x_tol=1e-9, f_tol=1e-12), 1)
        assert res.nfev <= 1950
        before = evaluate_quorum(quorum_from_chart(x0, 6, 3)).relative_deviation
        after = evaluate_quorum(quorum_from_chart(res.x_best, 6, 3)).relative_deviation
        assert after <= 0.98 * before

    def test_eight_sweeps_on_n4_chart(self):
        # from the second sweep on, a line that knows its direction's
        # curvature probes the vertex of the parabola through f(0) and f(t0)
        # instead of a golden step: 5,871 evaluations without it, 5,178
        # with it, and the run ends as low.  Lines resolved to f_tol = 1e-12
        # instead of machine epsilon take 4,289, and f ends at 0.0237957
        # instead of 0.0237974
        objective = make_objective(NEG_LOG_QUALITY, 4, 2)
        x0 = random_chart(np.random.default_rng(1), 4, 2)
        res = powell_minimize(objective, x0, PowellConfig(x_tol=1e-9, f_tol=1e-12), 8)
        assert res.nit == 8
        assert res.nfev <= 4600
        assert res.fun <= 0.0238

    def test_one_log_l_sweep_on_n4_chart(self):
        # ln L has a kink wherever a G_ij crosses zero, and a line minimum
        # sits on one: with golden sections where the parabola failed, this
        # sweep took 2,996 evaluations; the V model takes 2,182, and 1,810
        # with each line resolved to f_tol = 1e-12 instead of machine epsilon
        objective = make_objective(LOG_L, 4, 2)
        x0 = random_chart(np.random.default_rng(1), 4, 2)
        res = powell_minimize(objective, x0, PowellConfig(x_tol=1e-9, f_tol=1e-12), 1)
        assert res.nfev <= 2000
        assert res.fun < objective(x0)

    def test_degenerate_direction_set_detection(self):
        from tomopack.powell import _directions_degenerate

        assert not _directions_degenerate(np.eye(4))
        dup = np.eye(4)
        dup[3] = dup[2]
        assert _directions_degenerate(dup)
        zero_row = np.eye(4)
        zero_row[3, 3] = 0.0
        assert _directions_degenerate(zero_row)

    def test_chart_objective_dim2(self):
        # 4-parameter quorum chart: the optimum is the analytic bound
        objective = make_objective(NEG_LOG_QUALITY, 2, 1)
        x0 = random_chart(np.random.default_rng(7), 2, 1)
        res = powell_minimize(objective, x0, PowellConfig(), 200)
        target = -np.log(upper_bound(2, 1))
        assert res.fun <= target + 1e-6

    def test_x_best_is_lowest_evaluated(self):
        # the direction test evaluates 2x - x_start and may pass over it
        # although it lies below where the run ends; x_best must be the
        # lowest value the objective ever returned, wherever the run stopped
        objective = make_objective(NEG_LOG_QUALITY, 3, 1)
        cfg = PowellConfig(x_tol=1e-9, f_tol=1e-12)
        passed_over = 0
        for seed in range(12):
            x0 = random_chart(np.random.default_rng(seed), 3, 1)
            for sweeps in (1, 2, 3):
                values = []

                def recorded(x):
                    values.append(objective(x))
                    return values[-1]

                res = powell_minimize(recorded, x0, cfg, sweeps)
                assert objective(res.x_best) == min(values)
                passed_over += not np.array_equal(res.x_best, res.x)
        assert passed_over > 0  # the case the test is about does occur

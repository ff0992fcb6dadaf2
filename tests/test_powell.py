import numpy as np
import pytest

import tomopack.powell
from tomopack import bundled_chart_n6
from tomopack.hilbert import quorum_from_chart, random_chart
from tomopack.metrics import evaluate_quorum, upper_bound
from tomopack.powell import LineResult, PowellConfig, line_minimize, powell_minimize
from tomopack.schedule import NEG_LOG_QUALITY, make_objective


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

    @pytest.mark.parametrize(
        "f,t0",
        [
            pytest.param(lambda t: (t - 2.0) ** 2, 1.0, id="quadratic"),
            pytest.param(lambda t: -np.cos(t - 0.01), 1.0, id="cosine"),
            pytest.param(lambda t: (t - 0.3) ** 4 + (t - 0.3) ** 2, -0.5, id="quartic"),
            pytest.param(lambda t: np.exp(t) - 3.0 * t, 0.1, id="exponential"),
            pytest.param(lambda t: abs(t - 1.0), 1.5, id="kink"),
            pytest.param(lambda t: abs(t + 0.7) + 0.5 * abs(t - 0.2), 0.3, id="two-kinks"),
            pytest.param(lambda t: np.sin(37 * t) + 0.1 * t * t, 1.0, id="fast-oscillation"),
            pytest.param(lambda t: np.cos(5.0 * t) * np.exp(-0.1 * t * t), 0.2, id="damped-wave"),
        ],
    )
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

    def test_quadratic_exact(self):
        res = line_minimize(lambda t: (t - 2.0) ** 2, 1.0)
        assert res.bracketed
        assert abs(res.t - 2.0) <= 1e-10

    def test_absolute_value_kink(self):
        res = line_minimize(lambda t: abs(t - 1.0), 1.5)
        assert res.bracketed
        assert abs(res.t - 1.0) <= 1e-8

    def test_negative_direction(self):
        res = line_minimize(lambda t: (t + 3.0) ** 2, 1.0)
        assert abs(res.t + 3.0) <= 1e-8

    def test_monotone_returns_best_sample_with_flag(self):
        res = line_minimize(lambda t: t, 1.0)
        assert not res.bracketed
        assert res.evals == 100
        assert res.t < 0  # walked downhill as far as the budget allowed
        assert res.fval == res.t

    def test_never_worse_than_origin(self):
        # a nasty oscillation: whatever happens, the result must not be uphill
        res = line_minimize(lambda t: np.sin(37 * t) + 0.1 * t * t, 1.0)
        assert res.fval <= 0.0 + 1e-15  # f(0) = 0

    def test_zero_t0_rejected(self):
        with pytest.raises(ValueError):
            line_minimize(lambda t: t * t, 0.0)

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
        # start at 1 rad took 3,494 evaluations here, 5.71 per line
        objective = make_objective(NEG_LOG_QUALITY, 6, 3)
        x0 = bundled_chart_n6()
        res = powell_minimize(objective, x0, PowellConfig(x_tol=1e-9, f_tol=1e-12), 1)
        assert res.nfev <= 2600
        before = evaluate_quorum(quorum_from_chart(x0, 6, 3)).relative_deviation
        after = evaluate_quorum(quorum_from_chart(res.x_best, 6, 3)).relative_deviation
        assert after <= 0.98 * before

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

import numpy as np
import pytest

import tomopack.powell
from tomopack import bundled_chart_n6
from tomopack.metrics import upper_bound
from tomopack.powell import LineResult, PowellConfig, line_minimize, powell_minimize
from tomopack.schedule import NEG_LOG_QUALITY, make_objective, random_chart


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


class TestLineMinimize:
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
        # golden step instead took 28 evaluations here, and 11 before the
        # refinement stopped at the line's resolution
        res = line_minimize(lambda t: -np.cos(t - 0.01), 1.0, x_tol=1e-9)
        assert abs(res.t - 0.01) <= 1e-8
        assert res.evals <= 9

    def test_refinement_stops_at_line_resolution(self):
        # f changes by less than one rounding unit within ~1e-8 of 0.3, so
        # x_tol = 1e-12 cannot be met; refining toward it took 42
        # evaluations and ended 1.8e-8 away
        res = line_minimize(lambda t: (t - 0.3) ** 2 + 5.0, 1.0, x_tol=1e-12)
        assert res.bracketed
        assert res.evals <= 6
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
        assert cfg.max_iterations == 200
        assert cfg.f_tol == 1e-10
        assert cfg.x_tol == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            PowellConfig(max_iterations=0)
        with pytest.raises(ValueError):
            PowellConfig(f_tol=0.0)
        with pytest.raises(ValueError):
            PowellConfig(x_tol=float("nan"))


class TestPowellMinimize:
    def test_quadratic_bowl_to_machine_precision(self):
        rng = np.random.default_rng(3)
        res = powell_minimize(lambda x: float(np.sum(x * x)), rng.normal(size=10))
        assert res.fun <= 1e-16
        assert res.converged

    def test_rosenbrock_standard_start(self):
        res = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), PowellConfig(max_iterations=200))
        assert res.fun <= 1e-8
        assert res.nit <= 200
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_history_non_increasing(self):
        res = powell_minimize(rosenbrock, np.array([-1.2, 1.0]))
        h = np.array(res.history)
        assert np.all(np.diff(h) <= 1e-12)

    def test_never_above_start(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=6)
        f = lambda x: float(np.sum(np.cos(x) + 0.1 * x * x))
        assert powell_minimize(f, x0).fun <= f(x0)

    def test_deterministic(self):
        a = powell_minimize(rosenbrock, np.array([-1.2, 1.0]))
        b = powell_minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert a.fun == b.fun
        assert np.array_equal(a.x, b.x)
        assert a.history == b.history

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            powell_minimize(lambda x: float("nan"), np.zeros(2))

    def test_max_iterations_respected(self):
        res = powell_minimize(rosenbrock, np.array([-1.2, 1.0]), PowellConfig(max_iterations=3))
        assert res.nit == 3
        assert not res.converged

    def test_callback_sees_every_sweep(self):
        sweeps = []
        powell_minimize(
            rosenbrock,
            np.array([-1.2, 1.0]),
            PowellConfig(max_iterations=5),
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
            PowellConfig(max_iterations=2),
            callback=lambda x, f, n, sweep: nfev.append(n),
        )
        first = nfev[0] - 1  # less the evaluation at x0
        second = nfev[1] - nfev[0]  # includes Powell's extrapolated point
        assert second < first

    def test_steps_reset_with_directions(self, monkeypatch):
        # force a reset to the axes whenever a direction is replaced; the
        # n line searches after it must all start at 1.0 again
        dim = 3
        events = []
        real_line = tomopack.powell.line_minimize

        def recording_line(f, t0=1.0, **kwargs):
            events.append(("line", t0))
            return real_line(f, t0, **kwargs)

        def always_degenerate(directions):
            events.append(("reset", None))
            return True

        monkeypatch.setattr(tomopack.powell, "line_minimize", recording_line)
        monkeypatch.setattr(tomopack.powell, "_directions_degenerate", always_degenerate)
        a = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]])
        powell_minimize(
            lambda x: float((x - 0.1) @ a @ (x - 0.1) + np.sum((x - 0.1) ** 4)),
            np.array([0.7, -0.4, 0.9]),
            PowellConfig(max_iterations=6),
        )
        resets = [k for k, (kind, _) in enumerate(events) if kind == "reset"]
        assert resets, "no direction was replaced"
        assert any(kind == "line" and t0 != 1.0 for kind, t0 in events[: resets[0]])
        for k in resets:
            after = events[k + 1 : k + 1 + dim]
            assert all(kind == "line" and t0 == 1.0 for kind, t0 in after)

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
        res = powell_minimize(objective, x0, PowellConfig(max_iterations=200))
        target = -np.log(upper_bound(2, 1))
        assert res.fun <= target + 1e-6

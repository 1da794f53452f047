import inspect
import math

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit._rk import IntegrationError, _rms, integrate_dense, rk_fixed_step
from gaugekit.gauge import FlowMap, gauge_transform
from gaugekit.identify import identify
from gaugekit.matcurve import ClosedFormCurve, ExponentialCurve, solve_gauge_ode
from gaugekit.odeint import Trajectory, integrate, verify_correspondence
from gaugekit.polyfield import PolyField

from conftest import random_field


J = np.array([[0.0, -1.0], [1.0, 0.0]])


def p2_field() -> PolyField:
    return PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})


def p2_exact_solution(v, t):
    den = (1 - t * v[0]) ** 2 + (t * v[1]) ** 2
    return np.array([v[0] - t * (v[0] ** 2 + v[1] ** 2), v[1]]) / den


def rotation_curve(theta_src: str) -> ClosedFormCurve:
    th = tx.parse_expr(theta_src)
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    return ClosedFormCurve([[c, tx.Neg(s)], [s, c]], [[c, s], [tx.Neg(s), c]])


def cubic_norm_field() -> PolyField:
    return PolyField(2, {(0, (3, 0)): -1.0, (0, (1, 2)): -1.0,
                         (1, (2, 1)): -1.0, (1, (0, 3)): -1.0})


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_constant_solution():
    f = PolyField.zero(2)
    traj = integrate(f, [0.4, -0.7], (0.0, 1.0))
    assert np.allclose(traj.states, [0.4, -0.7])
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_integrate_p2_explicit_solution():
    v = np.array([0.3, 0.4])
    traj = integrate(p2_field(), v, (0.0, 0.5), tol=1e-10)
    for t, x in zip(traj.times, traj.states):
        assert np.max(np.abs(x - p2_exact_solution(v, t))) <= 1e-8


def test_integrate_rotation():
    f = PolyField.from_linear(J)
    traj = integrate(f, [1.0, 0.0], (0.0, 1.0), tol=1e-10)
    for t, x in zip(traj.times, traj.states):
        assert np.max(np.abs(x - [math.cos(t), math.sin(t)])) <= 1e-8


def test_dense_output_accuracy_between_steps():
    # the quartic interpolant must hold the integration accuracy at off-step
    # sample points, not just at accepted steps
    f = PolyField.from_linear(J)
    traj = integrate(f, [1.0, 0.0], (0.0, 2.0), tol=1e-12, samples=1000)
    worst = max(np.max(np.abs(x - [math.cos(t), math.sin(t)]))
                for t, x in zip(traj.times, traj.states))
    assert worst <= 1e-10


def test_integrate_nonautonomous_callable():
    traj = integrate(lambda t, x: np.array([math.cos(t)]), [0.0], (0.0, 1.5))
    for t, x in zip(traj.times, traj.states):
        assert abs(x[0] - math.sin(t)) <= 1e-8


def test_integrate_blowup_truncates():
    # z' = p2(z) from (2, 0) blows up at t = 1/2
    traj = integrate(p2_field(), [2.0, 0.0], (0.0, 1.0))
    assert traj.meta["blowup"]
    assert traj.times[-1] < 0.51
    assert np.all(np.isfinite(traj.states))


def test_trajectory_validation_and_json():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 2)))
    traj = integrate(PolyField.from_linear(J), [1.0, 0.0], (0.0, 0.3), samples=7)
    again = Trajectory.from_dict(traj.to_dict())
    assert np.allclose(again.states, traj.states)


# ---------------------------------------------------------------------------
# verify_correspondence
# ---------------------------------------------------------------------------

def test_correspondence_identity_curve():
    f = random_field(np.random.default_rng(0), 2, [1, 2], scale=0.5)
    A = ClosedFormCurve([["1", "0"], ["0", "1"]])
    assert verify_correspondence(f, A, [0.2, -0.1], (0.0, 1.0)) <= 2e-10


def test_correspondence_p2_exponential_matches_paper_solution():
    lam, mu = 1.0, 2.0
    A = ExponentialCurve(np.diag([lam, mu]), -1)
    v = np.array([0.3, 0.4])
    dev = verify_correspondence(p2_field(), A, v, (0.0, 0.5))
    assert dev <= 1e-6
    # the transformed solution agrees with the explicit display
    ev = gauge_transform(p2_field(), A)
    w = integrate(ev, v, (0.0, 0.5), tol=1e-11)
    for t, x in zip(w.times, w.states):
        expected = np.diag([math.exp(-lam * t), math.exp(-mu * t)]) \
            @ p2_exact_solution(v, t)
        assert np.max(np.abs(x - expected)) <= 1e-6


def test_correspondence_rotating_frame_cubic():
    rng = np.random.default_rng(1)
    K = rng.uniform(-1, 1, size=(2, 2))
    f = PolyField.from_linear(K) + cubic_norm_field()
    A = rotation_curve("t + 0.5*t^2")
    x0 = rng.uniform(-0.5, 0.5, size=2)
    assert verify_correspondence(f, A, x0, (0.0, 1.0)) <= 1e-6


def test_correspondence_corpus():
    # 20 seeded systems x 3 curve families
    rng = np.random.default_rng(2)
    curves = [
        ExponentialCurve(np.array([[0.3, -0.8], [0.8, 0.1]]), -1),
        rotation_curve("t + 0.3*t^2"),
        solve_gauge_ode([["0", "sin(t)"], ["0.2", "0"]],
                        np.array([[0.1, 0.0], [0.0, -0.2]]), np.eye(2)),
    ]
    for k in range(20):
        f = random_field(rng, 2, [0, 1, 2], scale=0.6)
        x0 = rng.uniform(-0.4, 0.4, size=2)
        A = curves[k % 3]
        assert verify_correspondence(f, A, x0, (0.0, 1.0)) <= 1e-6


def test_correspondence_emits_no_closed_form(monkeypatch):
    # the verifier integrates the transform's numeric right-hand side only
    from gaugekit import gauge

    def no_emission(*args, **kwargs):
        raise AssertionError("closed form emitted")

    monkeypatch.setattr(gauge, "_emit_closed_form", no_emission)
    A = ExponentialCurve(np.diag([1.0, 2.0]), -1)
    assert verify_correspondence(p2_field(), A, [0.3, 0.4], (0.0, 0.5)) <= 1e-6
    with pytest.raises(AssertionError, match="closed form emitted"):
        gauge_transform(p2_field(), A)


def test_correspondence_blowup_truncated():
    # blow-up at t = 0.4 inside the span: the verifier truncates the
    # comparison interval instead of raising; accuracy near the singular
    # time is necessarily degraded, so only finiteness is asserted there
    A = ExponentialCurve(np.diag([1.0, 2.0]), -1)
    dev = verify_correspondence(p2_field(), A, [2.5, 0.0], (0.0, 1.0))
    assert np.isfinite(dev)
    # strictly inside the maximal interval the bound holds as usual
    assert verify_correspondence(p2_field(), A, [2.5, 0.0], (0.0, 0.39)) <= 1e-5


def test_second_order_lift_correspondence():
    # x'' = -x - |x|^2 x recast as first order in (x, y); the block lift of a
    # matrix curve transforms it with the same solution correspondence
    from gaugekit.matcurve import second_order_lift
    F = PolyField(4, {
        (0, (0, 0, 1, 0)): 1.0,
        (1, (0, 0, 0, 1)): 1.0,
        (2, (1, 0, 0, 0)): -1.0,
        (3, (0, 1, 0, 0)): -1.0,
        (2, (3, 0, 0, 0)): -1.0, (2, (1, 2, 0, 0)): -1.0,
        (3, (2, 1, 0, 0)): -1.0, (3, (0, 3, 0, 0)): -1.0,
    })
    bases = [
        rotation_curve("t + 0.2*t^2"),
        solve_gauge_ode([["0", "sin(t)"], ["0.3", "0"]],
                        np.array([[0.1, 0.0], [0.0, -0.2]]), np.eye(2)),
    ]
    for base in bases:
        L = second_order_lift(base)
        dev = verify_correspondence(F, L, [0.3, -0.2, 0.1, 0.4], (0.0, 1.0))
        assert dev <= 1e-6


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------

def test_integrator_order_step_halving():
    # the propagated solution is 5th order: halving the step cuts the error
    # by about 2^5; assert a conservative floor of 4x per halving on average
    fixtures = [
        (lambda t, x: J @ x, np.array([1.0, 0.0]), 1.0,
         lambda t: np.array([math.cos(t), math.sin(t)])),
        (lambda t, x: p2_field().eval(x), np.array([0.3, 0.4]), 0.5,
         lambda t: p2_exact_solution(np.array([0.3, 0.4]), t)),
    ]
    ratios = []
    for rhs, x0, T, exact in fixtures:
        prev = None
        for n in (20, 40, 80):
            err = np.linalg.norm(rk_fixed_step(rhs, 0.0, T, x0, n) - exact(T))
            if prev is not None and err > 0:
                ratios.append(prev / err)
            prev = err
    assert np.mean(ratios) >= 4.0


def test_integrate_lands_exactly_on_awkward_endpoints():
    f = PolyField.from_linear(J)
    for span in [(0.0, 0.1 + 0.2), (0.3, 1.7), (1.0, 0.3), (-0.7, 0.55)]:
        traj = integrate(f, [1.0, 0.0], span, tol=1e-10, samples=5)
        assert span[1] in (traj.times[0], traj.times[-1])
        dt = span[1] - span[0]
        end = traj.states[-1] if traj.times[-1] == span[1] else traj.states[0]
        assert np.max(np.abs(end - [math.cos(dt), math.sin(dt)])) <= 1e-8


def test_integrator_error_tracks_tolerance():
    # adaptive mode: tightening the tolerance strictly improves the endpoint error
    f = PolyField.from_linear(J)
    exact = np.array([math.cos(1.0), math.sin(1.0)])
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj = integrate(f, [1.0, 0.0], (0.0, 1.0), tol=tol, samples=2)
        errs.append(np.linalg.norm(traj.states[-1] - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-9


# ---------------------------------------------------------------------------
# the integrator's settings
# ---------------------------------------------------------------------------

def test_every_integration_runs_at_the_one_tolerance(monkeypatch):
    # flows, trajectories and the correspondence check all integrate at
    # _rk.TOL unless told otherwise; trajectories stop at _rk.BLOWUP_NORM,
    # flows never stop early
    from gaugekit import _rk, gauge, matcurve, odeint
    assert (_rk.TOL, _rk.BLOWUP_NORM) == (1e-10, 1e8)
    signature = inspect.signature(integrate_dense)
    calls = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["tol"], bound.arguments["blowup_norm"]))
        return integrate_dense(*args, **kwargs)

    for mod in (gauge, matcurve, odeint):
        monkeypatch.setattr(mod, "integrate_dense", recording)
    flow, trajectory = (_rk.TOL, None), (_rk.TOL, _rk.BLOWUP_NORM)
    A = ExponentialCurve(np.array([[0.3, -0.8], [0.5, 0.1]]), -1)
    q = gauge_transform(p2_field(), A).closed_form
    x0 = np.array([0.3, 0.4])
    runs = [
        (lambda: identify(q), [flow]),  # C = A'A^-1 is not 0: the T flow
        (lambda: FlowMap(p2_field(), 0.3)(x0), [trajectory]),
        (lambda: integrate(q, x0, (0.0, 0.5)), [trajectory]),
        (lambda: verify_correspondence(p2_field(), A, x0, (0.0, 0.5)), [trajectory] * 2),
        (lambda: solve_gauge_ode(q.linear, np.eye(2), np.eye(2)), [flow]),
    ]
    for run, want in runs:
        calls.clear()
        run()
        assert calls == want


def test_rms_equals_sqrt_of_mean_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(5000):
        n = int(rng.integers(1, 20))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, size=n)
        got = _rms(v)
        assert got == np.sqrt(np.mean(v ** 2)) and type(got) is float


def test_integration_messages_print_times_as_floats():
    sol = integrate_dense(lambda _t, y: [-v for v in y], 0.0, 1.0, np.ones(2))
    assert all(type(t) is float for t in sol.t_starts + sol.hs + [sol.t_end])
    # a span whose end was left as a numpy float still prints plain numbers
    sol.t_end = np.float64(sol.t_end)
    with pytest.raises(IntegrationError) as err:
        sol(np.float64(2.0))
    assert str(err.value) == "t=2.0 outside the integrated span [0.0, 1.0]"

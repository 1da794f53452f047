import hashlib
import inspect
import math

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit._rk import (_A, _B, _C, _E3, _E5, BLOWUP_NORM, IntegrationError, _P, _rms,
                          _stepper, integrate_dense, rk_fixed_step)
from gaugekit.gauge import FlowMap, gauge_transform
from gaugekit.identify import identify
from gaugekit.matcurve import ClosedFormCurve, ExponentialCurve, FlowCurve, solve_gauge_ode
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
    # the 7th-order interpolant must hold the integration accuracy at
    # off-step sample points, not just at accepted steps
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


def test_integrate_blowup_by_step_underflow_truncates():
    # y' = y^k, y(0) = 1 escapes at t = 1/(k-1); from k = 3 on the state
    # passes BLOWUP_NORM only closer to that time than a step resolves, so
    # the step underflows first, which stops a trajectory as blown up too
    for k in range(2, 7):
        f = PolyField(1, {(0, (k,)): 1.0})
        traj = integrate(f, [1.0], (0.0, 2.0))
        assert traj.meta["blowup"]
        assert abs(traj.meta["t_end"] - 1 / (k - 1)) <= 1e-6
        assert np.all(np.isfinite(traj.states))
    # without a blow-up norm (flows) the underflow still raises
    with pytest.raises(IntegrationError, match="step size underflow at t=0.5"):
        integrate_dense(PolyField(1, {(0, (3,)): 1.0}).rhs(), 0.0, 1.0, [1.0])


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


def test_correspondence_nan_start_fails_every_tolerance():
    # a NaN deviation is kept by the maximum, not dropped in favour of 0
    A = ExponentialCurve(np.diag([1.0, 2.0]), -1)
    dev = verify_correspondence(p2_field(), A, [float("nan"), 0.1], (0.0, 0.5))
    assert math.isnan(dev)
    assert not dev <= 1.0


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
    # the propagated solution is 8th order: halving the step cuts the error
    # by about 2^8; assert a floor of 2^7 per halving on average.  From 20
    # steps on the errors are already at rounding, so halve from 2 steps
    fixtures = [
        (lambda t, x: J @ x, np.array([1.0, 0.0]), 1.0,
         lambda t: np.array([math.cos(t), math.sin(t)])),
        (lambda t, x: p2_field().eval(x), np.array([0.3, 0.4]), 0.5,
         lambda t: p2_exact_solution(np.array([0.3, 0.4]), t)),
    ]
    ratios = []
    for rhs, x0, T, exact in fixtures:
        prev = None
        for n in (2, 4, 8):
            err = np.linalg.norm(rk_fixed_step(rhs, 0.0, T, x0, n) - exact(T))
            if prev is not None and err > 0:
                ratios.append(prev / err)
            prev = err
    assert np.mean(ratios) >= 128.0


def test_dop853_tableau_literals():
    # read the written-out tableau back through the step itself: from y = 0
    # with hd = 1, and a right-hand side whose i-th call returns the unit
    # vector e_i, every call sees (c_i, row i of A), y_new is b, and the
    # error estimates are their weight vectors
    eye = np.eye(16)
    calls = []

    def probe(t, y):
        calls.append((t, y))
        return eye[len(calls)].tolist()

    zero = [0.0] * 16
    step, dense_stages = _stepper(16)
    y_new, ks, e5, e3 = step(probe, 0.0, zero, eye[0].tolist(), 1.0, 1.0)
    ks += dense_stages(probe, 0.0, zero, 1.0, ks)
    assert np.reshape(ks, (16, 16)).tolist() == eye.tolist()
    c = np.array([0.0] + [t for t, _ in calls])
    A = np.array([zero] + [y for _, y in calls])
    b, e5, e3 = np.array(y_new), np.array(e5), np.array(e3)
    assert np.array_equal(A[12], b) and c[12] == 1.0  # k13 = rhs(t_new, y_new)
    assert np.allclose(A.sum(axis=1), c, rtol=0.0, atol=1e-14)
    # the solution and its error estimates weigh the first 12 stages only
    assert not (b[12:].any() or e5[12:].any() or e3[12:].any())
    # and they are the tableau's data, exactly: a step that drops a term,
    # re-signs it or weighs another stage with it reads back otherwise (the
    # digests below catch a reordered sum)
    tableau = np.zeros((16, 16))
    for i, row in _A.items():
        for j, a in row:
            tableau[i - 1, j - 1] = a
    assert np.array_equal(np.delete(A, 12, axis=0), np.delete(tableau, 12, axis=0))
    assert np.array_equal(np.delete(c, 12), [0.0] + [_C[i] for i in sorted(_C)])
    assert np.array_equal(b, _B) and np.array_equal(e5, _E5) and np.array_equal(e3, _E3)
    A, c12, b, e5, e3 = A[:12, :12], c[:12], b[:12], e5[:12], e3[:12]
    for k in range(1, 9):
        assert abs(b @ c12 ** (k - 1) - 1 / k) <= 1e-14
        if k < 8:
            assert abs(b @ A @ c12 ** (k - 1) - 1 / (k * (k + 1))) <= 1e-14
    # the error estimates are of orders 5 and 3, and not higher
    for e, order in ((e5, 5), (e3, 3)):
        assert all(abs(e @ c12 ** (k - 1)) <= 1e-14 for k in range(1, order + 1))
        assert abs(e @ c12 ** order) > 1e-4
    # the dense output is a continuous extension of order 7 (HNW II.6),
    # to the rounding of power-basis weights up to 545 in size:
    # sum_i b_i(x) c_i^(k-1) = x^k / k, with b_i(x) = sum_j _P[i, j] x^(j+1)
    powers = np.arange(1, 8)
    for k in range(1, 8):
        assert np.allclose(c ** (k - 1) @ _P, (powers == k) / k, rtol=0.0, atol=4e-12)
    # at x = 0 it is y_old (no constant column) and at x = 1 y_new; its
    # derivative is k1 at x = 0 and k13 at x = 1
    assert _P.shape == (16, 7)
    assert np.allclose(_P.sum(axis=1), np.append(b, [0.0] * 4), rtol=0.0, atol=4e-12)
    assert np.allclose(_P[:, 0], eye[0], rtol=0.0, atol=4e-12)
    assert np.allclose(_P @ powers, eye[12], rtol=0.0, atol=4e-12)


# SHA-256 of a step's y_new, stages, e5 and e3, and of its dense stages, as
# the step with the tableau written out by hand computed them.  The
# right-hand side is a polynomial, so a step is + and * alone and the digests
# cannot depend on libm.
_STEP_SHA256 = {
    (1, 0.07): ("46e19cda25008b06a752fac3b71531096f0530ba04f49e188f89b93368f7c994",
                "70db2479c5f6550f35c832c1899613110b4cc64e9735356d6b279723d6dd4ff4"),
    (1, -0.11): ("9a7f2a287369473c198780a96703cfb62e67744cca3b8491b1f1a180d4f31153",
                 "14b8c2ee5338eef21cf0aeaeac36596bd7da37658c3b4e9746458ea3caf5d847"),
    (2, 0.07): ("8c7e66281382a3d7e3a9569524e01657241f6187255e61c216c4d07b8ca8b9ec",
                "751f980141601d08af930025350ebf338de2d0d76c38621550c150107b6aeb8e"),
    (2, -0.11): ("e64089ad64a6d99c8978d1002ad76a77d0961c5048b039914f55c33637713ed0",
                 "6e5b7892c6ae4a682587fc82e87c226cf99f535fbe315c06198fda6d92078851"),
    (4, 0.07): ("09e654c119d2733f6b9dd43c299aa95eb793aaacc166a5166b0421217c2354b2",
                "11bcc87b56bd3a3fc2d6b970653ce5ce11b4a7aefafa459258450864e6d8e944"),
    (4, -0.11): ("ba856ea42fe722cf7b95f786691d593d148cdf72a7e410a304998af7570255ea",
                 "df7f84de8ce69137dbfcf4da9fef29e791cc6e20d1bc5ac630f6a79b804b510f"),
    (9, 0.07): ("d335bc69e340926adac64d200dd16c79efcd913baa833895b1fe7f0307a6c054",
                "f243ee8ca8cca6e1a758eeeb98fbf58599a42e24c0719b323a2878ada26223b8"),
    (9, -0.11): ("6a7e1e15d30913f8ee1eef251ee476f0f245f444a00e89aa6ec440f6bdbf0482",
                 "3988ff00a79d7353ded5ce33461101cfd167a2d93e4d577b1c46583cfdfc70ea"),
    (16, 0.07): ("8b9ce4c8e5743da38973c9f617b5d566a69ea36b467375442c991375565d4bd8",
                 "73a39611c71a7b71fd4dd4394ac4e964a3a5d6745b842b6408a3b9c83833290d"),
    (16, -0.11): ("bcc68cbfa543e9cc8e60f926118af6928c664ce0585ac20ef605380610169556",
                  "8f576f735b66284738e59b43dd67457b05a2863911a66d758bb803c37b033437"),
}


def _polynomial_rhs(t, y):
    n = len(y)
    return [0.5 * y[i - 1] * y[i] - y[(i + 1) % n] + t * (0.25 * i + 1.0) for i in range(n)]


def _sha256(*vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update(np.asarray(v, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, hd", list(_STEP_SHA256))
def test_step_is_bit_identical_to_the_recorded_digests(n, hd):
    t, y = 0.3, [0.125 * i - 0.7 for i in range(n)]
    step, dense_stages = _stepper(n)
    y_new, ks, e5, e3 = step(_polynomial_rhs, t, y, _polynomial_rhs(t, y), hd, t + hd)
    dense = dense_stages(_polynomial_rhs, t, y, hd, ks)
    assert (_sha256(y_new, *ks, e5, e3), _sha256(*dense)) == _STEP_SHA256[n, hd]


def _flow_leg():
    (leg,) = FlowCurve([["t", "1"], ["-t*t", "0.5"]], [[0.25, -1.0], [0.5, 0.0]],
                       [[1.0, 0.5], [0.0, 1.0]], t_span=(0.0, 1.5)).legs
    return leg


# SHA-256 of whole solves, as the zip-form step, which the generated stage
# code replaced, computed them: steps, rejections, dense output and all.  The
# right-hand sides are polynomials; the flow leg's also multiplies 2 x 2
# matrices through numpy.
_SOLVE_SHA256 = {
    "forward n = 2": (
        lambda: integrate_dense(_polynomial_rhs, 0.3, 2.1, [0.4, -0.6]),
        "7b35842f457ffbd76e91106be02bd8cecc3bcf21c79ffab2e7e77cada0876d24"),
    "backward n = 2": (
        lambda: integrate_dense(_polynomial_rhs, 0.3, -1.4, [0.4, -0.6], tol=1e-12),
        "4dcb4e39286d60a4e08e9db05fdb6036e541576793418aaddf6a4d2d7e3be437"),
    "flow leg n = 4": (
        _flow_leg, "94c8386d54d6ed51079037364dd89c2bd71ca02c93e6deca2637b369fd31e6be"),
    # z' = z^2 from z = 1 blows up at t = 1
    "blow-up n = 2": (
        lambda: integrate_dense(p2_field().rhs(), 0.0, 2.0, [1.0, 0.0],
                                blowup_norm=BLOWUP_NORM),
        "90525e05b0e87291c5e8a83854b3e9729d838b020886f65630ac6e3bb1b1aca5"),
}


@pytest.mark.parametrize("case", list(_SOLVE_SHA256))
def test_solve_is_bit_identical_to_the_recorded_digests(case):
    solve, digest = _SOLVE_SHA256[case]
    s = solve()
    assert _sha256(s.t_starts, s.hs, s.Y, s.Q, s.y_end, s.steps_rejected,
                   s.rhs_calls) == digest


def test_fixed_step_endpoint_is_bit_identical_to_the_recorded_digest():
    y = rk_fixed_step(_polynomial_rhs, 0.3, 1.1, [0.4, -0.6, 0.2], 7)
    assert _sha256(y) == "f4768af552d2ec1a56db6b07ddf98830017b381912bc390d0d082553cd5fcbeb"


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
    assert sol.t_starts.dtype == sol.hs.dtype == np.float64 and type(sol.t_end) is float
    # a span whose end was left as a numpy float still prints plain numbers
    sol.t_end = np.float64(sol.t_end)
    with pytest.raises(IntegrationError) as err:
        sol(np.float64(2.0))
    assert str(err.value) == "t=2.0 outside the integrated span [0.0, 1.0]"

import math
import re

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit._rk import DenseSolution
from gaugekit.matcurve import (
    ClosedFormCurve, ExponentialCurve, IntegrationError,
    _pade_order, curve_from_dict, curve_to_dict, mat_exp, second_order_lift,
    solve_gauge_ode,
)
from gaugekit.polyfield import NearSingularMatrixError


def series_expm(M, terms=40):
    """Truncated power-series oracle, valid for moderate norms."""
    M = np.asarray(M, dtype=float)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def rotation_entries(theta_src: str):
    th = tx.parse_expr(theta_src)
    return [[tx.Fun("cos", th), tx.Neg(tx.Fun("sin", th))],
            [tx.Fun("sin", th), tx.Fun("cos", th)]]


# ---------------------------------------------------------------------------
# mat_exp
# ---------------------------------------------------------------------------

def test_mat_exp_zero():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_mat_exp_rotation_generator():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for t in (0.1, 0.7, 1.3, 2.0):
        expected = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert np.max(np.abs(mat_exp(t * J) - expected)) <= 1e-13
        assert np.max(np.abs(mat_exp(t * J) - series_expm(t * J))) <= 1e-12


def test_mat_exp_diagonal():
    lam, mu, t = 0.5, -1.25, 1.7
    got = mat_exp(np.diag([lam * t, mu * t]))
    assert np.allclose(got, np.diag([math.exp(lam * t), math.exp(mu * t)]), rtol=1e-13)


def test_mat_exp_series_oracle_random():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5):
        for _ in range(5):
            M = rng.uniform(-1, 1, size=(n, n))
            assert np.max(np.abs(mat_exp(M) - series_expm(M))) <= 1e-12


def test_mat_exp_symmetric_eigh_oracle_large_norm():
    # independent spectral route for symmetric matrices at desk-scale norms
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        M = rng.uniform(-1, 1, size=(n, n))
        M = 6.0 * (M + M.T)
        w, V = np.linalg.eigh(M)
        expected = V @ np.diag(np.exp(w)) @ V.T
        assert np.max(np.abs(mat_exp(M) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_mat_exp_group_law():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.uniform(-1, 1, size=(3, 3))
        s, u = rng.uniform(-1, 1, size=2)
        lhs = mat_exp((s + u) * M)
        rhs = mat_exp(s * M) @ mat_exp(u * M)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_mat_exp_derivative_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(5):
        M = rng.uniform(-1, 1, size=(3, 3))
        t = rng.uniform(-1, 1)
        fd = (mat_exp((t + h) * M) - mat_exp((t - h) * M)) / (2 * h)
        assert np.max(np.abs(fd - M @ mat_exp(t * M))) <= 1e-6


def test_mat_exp_rejects_nonsquare():
    with pytest.raises(ValueError):
        mat_exp(np.zeros((2, 3)))


def test_stacked_mat_exp_equals_each_lone_call_bit_for_bit():
    # norms from 1e-3 to ~1e3 reach every Pade order (3, 5, 7, 9, 13) and
    # scalings s = 0..8 within one stack, negative times included
    rng = np.random.default_rng(11)
    ts = np.linspace(-1.5, 2.0, 36)
    orders = set()
    for n in (1, 2, 3, 4):
        for scale in (1e-3, 0.1, 1.0, 10.0, 100.0):
            B = rng.normal(size=(n, n)) * scale
            stack = ts[:, None, None] * B
            got = mat_exp(stack)
            assert got.shape == stack.shape
            for k, M in enumerate(stack):
                orders.add(_pade_order(float(np.linalg.norm(M, 1))))
                lone = mat_exp(M)
                assert lone.shape == (n, n)
                assert np.array_equal(got[k], lone)
    assert {m for m, _ in orders} == {3, 5, 7, 9, 13}
    assert {s for _, s in orders} >= set(range(9))
    one = rng.normal(size=(1, 3, 3))
    assert np.array_equal(mat_exp(one), [mat_exp(one[0])])
    with pytest.raises(ValueError, match=r"got shape \(2, 2, 3\)"):
        mat_exp(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match=r"got shape \(2, 2, 2, 2\)"):
        mat_exp(np.zeros((2, 2, 2, 2)))


def test_mat_exp_of_a_nonfinite_slice_is_nonfinite():
    stack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]])
    with np.errstate(invalid="ignore", over="ignore"):
        got = mat_exp(stack)
    assert np.array_equal(got[0], mat_exp(np.eye(2)))
    assert not np.isfinite(got[1]).all() and not np.isfinite(got[2]).all()


# ---------------------------------------------------------------------------
# curve value / derivative / inverse
# ---------------------------------------------------------------------------

def test_exponential_curve_at_zero():
    M = np.array([[0.3, 1.0], [0.0, -0.2]])
    A = ExponentialCurve(M, -1)
    assert np.allclose(A.value(0.0), np.eye(2))
    assert np.allclose(A.derivative(0.0), -M)


def test_exponential_group_property():
    A = ExponentialCurve(np.array([[0.1, -0.8], [0.8, 0.1]]), 1)
    for s, u in [(0.2, 0.5), (-0.3, 0.9)]:
        assert np.max(np.abs(A.value(s + u) - A.value(s) @ A.value(u))) <= 1e-10


def test_closed_form_rotation_derivative():
    A = ClosedFormCurve(rotation_entries("t^2"))
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    exact = A.derivative(1.0)
    assert np.max(np.abs(exact - 2.0 * J @ A.value(1.0))) <= 1e-10
    h = 1e-6
    fd = (A.value(1.0 + h) - A.value(1.0 - h)) / (2 * h)
    assert np.max(np.abs(exact - fd)) <= 1e-6


def test_closed_form_derivative_of_a_quotient_near_its_pole():
    # f = 1e-9/(t - 0.5): the derivative tables divide by t - 0.5 = 5e-8,
    # not by its square, 2.5e-15, which the 1e-14 denominator check refuses
    A = ClosedFormCurve([["1", "0"], ["0", "1 + 1e-9/(t - 0.5)"]])
    t, s = 0.50000005, 0.50000005 - 0.5
    assert A.derivative(t)[1, 1] == pytest.approx(-1e-9 / s ** 2, rel=1e-6)
    assert A.derivative(t)[1, 1] == pytest.approx(-4.0e5, rel=1e-6)
    assert A.second_derivative(t)[1, 1] == pytest.approx(2e-9 / s ** 3, rel=1e-6)
    assert A.second_derivative(t)[1, 1] == pytest.approx(1.6e13, rel=1e-6)


@pytest.mark.parametrize("make", [
    lambda: ExponentialCurve(np.array([[0.2, -1.1], [0.6, -0.3]]), -1),
    lambda: ClosedFormCurve(rotation_entries("t + 0.5*t^2")),
    lambda: solve_gauge_ode([["sin(t)", "0"], ["t", "0.2"]],
                            np.array([[0.1, 0.0], [0.4, -0.3]]), np.eye(2)),
])
def test_inverse_derivative_identity(make):
    # d/dt A^{-1} = -A^{-1} A' A^{-1}, checked by finite differences
    A = make()
    h = 1e-6
    for t in (0.15, 0.5, 0.85):
        fd = (A.inverse(t + h) - A.inverse(t - h)) / (2 * h)
        expected = -A.inverse(t) @ A.derivative(t) @ A.inverse(t)
        assert np.max(np.abs(fd - expected)) <= 1e-6


def test_closed_form_explicit_inverse_used():
    th = "t"
    inv = [["cos(t)", "sin(t)"], ["-sin(t)", "cos(t)"]]
    A = ClosedFormCurve(rotation_entries(th), inv)
    for t in np.linspace(0, 1, 7):
        assert np.max(np.abs(A.value(t) @ A.inverse(t) - np.eye(2))) <= 1e-10


def test_closed_form_adjugate_inverse_n2_n3():
    A2 = ClosedFormCurve([["1+t", "t"], ["0", "2"]])
    for t in np.linspace(0, 1, 5):
        assert np.max(np.abs(A2.value(t) @ A2.inverse(t) - np.eye(2))) <= 1e-10
    A3 = ClosedFormCurve([["2", "t", "0"], ["0", "1+t^2", "sin(t)"], ["t", "0", "3"]])
    for t in np.linspace(0, 1, 5):
        assert np.max(np.abs(A3.value(t) @ A3.inverse(t) - np.eye(3))) <= 1e-10


def test_closed_form_numeric_inverse_n4():
    entries = [["1", "t", "0", "0"],
               ["0", "1", "0", "t^2"],
               ["0", "0", "2", "0"],
               ["0", "0", "0", "1+t"]]
    A = ClosedFormCurve(entries)
    assert A.inverse_entries is None
    for t in (0.0, 0.5, 1.0):
        assert np.max(np.abs(A.value(t) @ A.inverse(t) - np.eye(4))) <= 1e-10


def test_closed_form_singular_at_zero_rejected():
    with pytest.raises(NearSingularMatrixError):
        ClosedFormCurve([["t", "0"], ["0", "1"]])


def test_closed_form_wrong_inverse_rejected():
    with pytest.raises(ValueError, match="does not invert"):
        ClosedFormCurve(rotation_entries("t"),
                        [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]])


def test_closed_form_inverse_checked_only_where_asked():
    # the supplied inverse is off by 0.1 sin(2 pi t): exact at 0, 0.5 and 1
    A = ClosedFormCurve([["exp(t)", "0"], ["0", "1"]],
                        [["exp(-t) + 0.1*sin(6.283185307179586*t)", "0"], ["0", "1"]])
    A.check_inverse([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="does not invert the curve at t=0.25"):
        A.check_inverse([0.0, 0.25])
    # built inverses are exact and never checked
    ClosedFormCurve([["exp(t)", "0"], ["0", "1"]]).check_inverse([0.25])


# ---------------------------------------------------------------------------
# solve_gauge_ode
# ---------------------------------------------------------------------------

def test_gauge_ode_zero_C_gives_exponential():
    B = np.array([[0.5, -1.0], [0.3, 0.2]])
    A = solve_gauge_ode(None, B, np.eye(2))
    for t in np.linspace(0, 1, 9):
        assert np.max(np.abs(A.value(t) - mat_exp(-t * B))) <= 1e-9


def test_gauge_ode_commutator_identity_solution():
    B = np.array([[0.4, 0.7], [-0.2, 0.1]])
    C = [[str(B[i, j]) for j in range(2)] for i in range(2)]
    A = solve_gauge_ode(C, B, np.eye(2))
    for t in np.linspace(0, 1, 9):
        assert np.max(np.abs(A.value(t) - np.eye(2))) <= 1e-10


def test_gauge_ode_nilpotent_time_varying():
    A = solve_gauge_ode([["0", "t"], ["0", "0"]], np.zeros((2, 2)), np.eye(2))
    for t in np.linspace(0, 1, 9):
        expected = np.array([[1.0, t * t / 2.0], [0.0, 1.0]])
        assert np.max(np.abs(A.value(t) - expected)) <= 1e-10


def test_gauge_ode_constant_C_matches_exponential():
    rng = np.random.default_rng(3)
    Chat = rng.uniform(-1, 1, size=(3, 3))
    A = solve_gauge_ode([[str(Chat[i, j]) for j in range(3)] for i in range(3)],
                        np.zeros((3, 3)), np.eye(3))
    for t in np.linspace(0, 1, 9):
        assert np.max(np.abs(A.value(t) - mat_exp(t * Chat))) <= 1e-8


def test_gauge_ode_initial_value_exact_and_general_A0():
    A0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = solve_gauge_ode([["0", "sin(t)"], ["0", "0"]], B, A0)
    assert np.array_equal(A.value(0.0), A0)


def test_gauge_ode_residual_and_liouville():
    A = solve_gauge_ode([["sin(t)", "t"], ["0", "cos(t)"]],
                        np.array([[0.2, 0.0], [0.1, -0.4]]), np.eye(2))
    # the flow satisfies the ODE at every dense-output checkpoint
    assert A.residual_max() <= 1e-10 * (1.0 + 3.0)
    A.assert_invertible_on_span()
    # and the dense values themselves track a much tighter reference run
    ref = solve_gauge_ode([["sin(t)", "t"], ["0", "cos(t)"]],
                          np.array([[0.2, 0.0], [0.1, -0.4]]), np.eye(2), tol=1e-13)
    for t in np.linspace(0, 1, 33):
        assert np.max(np.abs(A.value(t) - ref.value(t))) <= 1e-9


def test_dense_sample_equals_pointwise_calls():
    B = np.array([[0.2, -0.7], [0.4, -0.1]])
    A0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    C = [["sin(3*t)", "t"], ["0.3", "cos(2*t)"]]
    for span in ((0.0, 1.0), (-0.7, 1.3)):
        A = solve_gauge_ode(C, B, A0, t_span=span)
        for sol in A.legs:
            # segment boundaries (t = 0 among them), the end point, and
            # points inside each segment
            starts = sol.t_starts
            ends = np.append(starts[1:], sol.t_end)
            ts = np.concatenate([starts, [sol.t_end], (starts + ends) / 2,
                                 starts + 0.3 * (ends - starts)])
            assert np.array_equal(sol.sample(ts), np.array([sol(float(t)) for t in ts]))
            with pytest.raises(IntegrationError, match=f"t={2.0 * sol.t_end!r}"):
                sol.sample([sol.t_end, 2.0 * sol.t_end, 3.0 * sol.t_end])
        ts = np.concatenate([np.linspace(span[0], 0.0, 7), np.linspace(0.1, span[1], 11)])
        got = A.sample(ts)
        assert np.array_equal(got, np.array([A.value(float(t)) for t in ts]))
        assert np.array_equal(got[6], A0)
    # an interpolant that is x^3 and x^7 itself: sample takes its powers as
    # scalar powers, which numpy's vectorized power does not always match
    y_old, h = np.zeros(2), 1.0
    Q = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    sol = DenseSolution(direction=1, t_starts=np.array([0.0]), hs=np.array([h]),
                        Y=y_old[None], Q=Q[None], t_end=1.0, y_end=np.ones(2),
                        status="done", steps_rejected=0, rhs_calls=0)
    ts = np.linspace(0.0, 1.0, 101)
    want = [y_old + h * (Q @ np.array([x, x * x, x ** 3, x ** 4, x ** 5, x ** 6, x ** 7]))
            for x in ts.tolist()]
    assert np.array_equal(sol.sample(ts), np.array(want))


def test_gauge_ode_invertibility_check_reads_every_checkpoint():
    A = solve_gauge_ode([["sin(t)", "t"], ["0", "cos(t)"]],
                        np.array([[0.2, 0.0], [0.1, -0.4]]), np.eye(2), t_span=(-1.0, 1.0))
    A.assert_invertible_on_span()
    assert len(A.legs) == 2
    for sol in A.legs:
        for bad in (np.diag([1.0, -1.0]), np.zeros((2, 2))):
            kept = sol.Y[-2].copy()
            sol.Y[-2] = bad.ravel()
            with pytest.raises(NearSingularMatrixError, match="lost invertibility"):
                A.assert_invertible_on_span()
            sol.Y[-2] = kept
        kept = sol.y_end
        sol.y_end = kept * np.array([-1.0, -1.0, 1.0, 1.0])  # first row negated
        with pytest.raises(NearSingularMatrixError, match="lost invertibility"):
            A.assert_invertible_on_span()
        sol.y_end = kept
    A.assert_invertible_on_span()


def test_gauge_ode_second_derivative_matches_difference_of_derivative():
    A = solve_gauge_ode([["sin(t)", "t^2"], ["exp(-t)", "cos(2*t)"]],
                        np.array([[0.2, 0.0], [0.1, -0.4]]), np.eye(2), tol=1e-12)
    h = 1e-4
    for t in (0.2, 0.5, 0.9):
        fd = (A.derivative(t + h) - A.derivative(t - h)) / (2 * h)
        assert np.max(np.abs(A.second_derivative(t) - fd)) <= 1e-6


def test_gauge_ode_with_C_as_a_callable():
    # C(t) read through a compiled system table gives the flow of its
    # expression table bit for bit; its second derivative needs the table
    from gaugekit.identify import NonAutoSystem
    q = NonAutoSystem(2, linear=[["sin(t)", "t^2"], ["exp(-t)", "cos(2*t)"]])
    B = np.array([[0.2, 0.0], [0.1, -0.4]])
    ts = np.linspace(-0.5, 1.0, 13)
    A = solve_gauge_ode(q.linear_at, B, np.eye(2), t_span=(-0.5, 1.0))
    ref = solve_gauge_ode(q.linear, B, np.eye(2), t_span=(-0.5, 1.0))
    assert np.array_equal(A.sample(ts), ref.sample(ts))
    assert np.array_equal(A.derivative(0.3), ref.derivative(0.3))
    with pytest.raises(ValueError, match="second derivative needs C.t. as an expression table"):
        A.second_derivative(0.3)
    ref.second_derivative(0.3)


def test_gauge_ode_reads_outside_the_span_raise(monkeypatch):
    # a flow integrates [min(t0, 0), max(t1, 0)] once, one leg each way from
    # 0, and refuses to read past either end of it
    from gaugekit import matcurve
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[1:3])
        return integrate_dense(*args, **kwargs)

    integrate_dense = matcurve.integrate_dense
    monkeypatch.setattr(matcurve, "integrate_dense", recording)
    B = np.array([[0.0, -1.0], [1.0, 0.0]])
    for span, legs in (((0.0, 0.5), [(0.0, 0.5)]), ((-0.7, 1.3), [(0.0, 1.3), (0.0, -0.7)]),
                       ((-1.0, -0.5), [(0.0, -1.0)]), ((0.0, 0.0), [])):
        calls.clear()
        A = solve_gauge_ode(None, B, np.eye(2), t_span=span)
        assert calls == legs and len(A.legs) == len(legs)
        lo, hi = min(span[0], 0.0), max(span[1], 0.0)
        assert A.span == (lo, hi)
        for t in np.linspace(lo, hi, 7):
            assert np.max(np.abs(A.value(t) - mat_exp(-t * B))) <= 1e-8
        for t in (lo - 0.5, hi + 0.5):
            with pytest.raises(IntegrationError,
                               match=re.escape(f"t={t!r} outside the integrated span "
                                               f"[{lo!r}, {hi!r}]")):
                A.value(t)
            with pytest.raises(IntegrationError):
                A.sample([0.0, t])
        assert calls == legs  # reads never integrate


def test_gauge_ode_span_reaching_just_below_zero():
    # the backward leg from 0 to -1.4e-45 is one step shorter than the step
    # resolution, not a step-size underflow
    C = [["sin(t)", "1"], ["-1", "t"]]
    A = solve_gauge_ode(C, np.eye(2), np.eye(2), t_span=(-1.401298464324817e-45, 1.0))
    assert A.span == (-1.401298464324817e-45, 1.0)
    assert np.max(np.abs(A.sample([-1.401298464324817e-45])[0] - np.eye(2))) <= 1e-44


def test_gauge_ode_pole_in_coefficient():
    # off-diagonal forcing 1/(t-0.5) makes the solution blow up logarithmically
    # at the pole; the solver must fail loudly rather than step across it
    with pytest.raises((tx.EvalError, IntegrationError)):
        solve_gauge_ode([["0", "1/(t-0.5)"], ["0", "0"]],
                        np.zeros((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# second-order lift
# ---------------------------------------------------------------------------

def test_lift_constant_identity():
    A = ClosedFormCurve([["1", "0"], ["0", "1"]])
    L = second_order_lift(A)
    assert np.allclose(L.value(0.7), np.eye(4))


def test_lift_exponential_blocks():
    M = np.array([[0.3, -0.5], [0.5, 0.1]])
    L = second_order_lift(ExponentialCurve(M, 1))
    for t in (0.0, 0.4, 1.1):
        V = L.value(t)
        assert np.allclose(V[2:, :2], M @ mat_exp(t * M), atol=1e-12)
        assert np.allclose(V[:2, 2:], 0.0)


def test_lift_determinant_identity():
    A = ClosedFormCurve(rotation_entries("t + 0.3*t^2"))
    L = second_order_lift(A)
    for t in np.linspace(0, 1, 7):
        assert abs(np.linalg.det(L.value(t)) - np.linalg.det(A.value(t)) ** 2) <= 1e-10


def test_lift_inverse_and_derivative():
    A = ExponentialCurve(np.array([[0.2, -0.9], [0.9, 0.2]]), -1)
    L = second_order_lift(A)
    h = 1e-6
    for t in (0.3, 0.8):
        assert np.max(np.abs(L.value(t) @ L.inverse(t) - np.eye(4))) <= 1e-12
        fd = (L.value(t + h) - L.value(t - h)) / (2 * h)
        assert np.max(np.abs(fd - L.derivative(t))) <= 1e-6


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_curve_json_roundtrip_closed_form():
    d = {"dim": 2, "kind": "closed_form",
         "entries": [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]],
         "inverse": [["cos(t)", "sin(t)"], ["-sin(t)", "cos(t)"]]}
    A = curve_from_dict(d)
    d2 = curve_to_dict(A)
    A2 = curve_from_dict(d2)
    for t in (0.0, 0.5):
        assert np.allclose(A.value(t), A2.value(t))
        assert np.allclose(A.inverse(t), A2.inverse(t))


def test_curve_json_roundtrip_exp():
    d = {"dim": 2, "kind": "exp", "generator": [[1.0, 0.0], [0.0, 2.0]], "sign": -1}
    A = curve_from_dict(d)
    assert isinstance(A, ExponentialCurve)
    assert curve_to_dict(A) == d


def test_curve_json_validation():
    with pytest.raises(ValueError):
        curve_from_dict({"dim": 2})
    with pytest.raises(ValueError):
        curve_from_dict({"dim": 2, "kind": "spline"})
    with pytest.raises(ValueError):
        curve_from_dict({"dim": 2, "kind": "exp"})
    with pytest.raises(ValueError, match=r"entries\[0\]\[0\]: "):
        curve_from_dict({"dim": 1, "kind": "closed_form", "entries": [["exp(t"]]})
    with pytest.raises(ValueError, match=r"inverse\[0\]\[1\]: unknown function 'foo'"):
        curve_from_dict({"dim": 2, "kind": "closed_form", "entries": [["1", "0"], ["0", "1"]],
                         "inverse": [["1", "foo(t)"], ["0", "1"]]})
    with pytest.raises(ValueError, match="'dim' is 2, but the curve is 1 x 1"):
        curve_from_dict({"dim": 2, "kind": "exp", "generator": [[1.0]]})


@pytest.mark.parametrize("d, key", [
    ({"dim": 1, "kind": "exp", "generator": [[1.0]], "generater": [[2.0]]}, "generater"),
    ({"dim": 1, "kind": "exp", "generator": [[1.0]], "entries": [["t"]]}, "entries"),
    ({"dim": 1, "kind": "closed_form", "entries": [["1"]], "sign": -1}, "sign"),
    ({"dim": 1, "kind": "closed_form", "entries": [["1"]], "inverses": [["1"]]}, "inverses"),
])
def test_curve_loader_refuses_keys_it_does_not_read(d, key):
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        curve_from_dict(d)


def test_curve_writer_output_loads():
    for A in (ClosedFormCurve(rotation_entries("t^2")),
              ClosedFormCurve([["1", "t"], ["0", "1"]], [["1", "-t"], ["0", "1"]]),
              ExponentialCurve(np.array([[0.2, -1.1], [0.6, -0.3]]), -1)):
        assert curve_to_dict(curve_from_dict(curve_to_dict(A))) == curve_to_dict(A)


@pytest.mark.parametrize("entry", ["nan", float("inf"), float("-inf")])
def test_exponential_curve_rejects_nonfinite_generator(entry):
    with pytest.raises(ValueError, match="finite"):
        ExponentialCurve(np.array([[float(entry)]]))
    with pytest.raises(ValueError, match="bad generator matrix"):
        curve_from_dict({"dim": 1, "kind": "exp", "generator": [[entry]]})


import math

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit.gauge import (
    FlowMap, conjugate_map, frozen_transform_field, gauge_transform,
    hat_transform, mixed_bracket_residual, transform_solution,
)
from gaugekit.matcurve import ClosedFormCurve, ExponentialCurve, mat_exp, solve_gauge_ode
from gaugekit.odeint import Trajectory, integrate
from gaugekit.polyfield import PolyField, lie_bracket, linear_pushforward

from conftest import random_field


J = np.array([[0.0, -1.0], [1.0, 0.0]])


def p2_field() -> PolyField:
    return PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})


def cubic_norm_field() -> PolyField:
    # -|x|^2 x in two dimensions
    return PolyField(2, {(0, (3, 0)): -1.0, (0, (1, 2)): -1.0,
                         (1, (2, 1)): -1.0, (1, (0, 3)): -1.0})


def rotation_curve(theta_src: str) -> ClosedFormCurve:
    th = tx.parse_expr(theta_src)
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    return ClosedFormCurve([[c, tx.Neg(s)], [s, c]],
                           [[c, s], [tx.Neg(s), c]])


def identity_curve(n: int = 2) -> ClosedFormCurve:
    return ClosedFormCurve([["1" if i == j else "0" for j in range(n)]
                            for i in range(n)])


# ---------------------------------------------------------------------------
# gauge_transform
# ---------------------------------------------------------------------------

def test_identity_gauge_is_identity():
    f = random_field(np.random.default_rng(0), 2, [0, 1, 2, 3])
    ev = gauge_transform(f, identity_curve())
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.uniform(0, 1)
        x = rng.uniform(-1, 1, size=2)
        assert np.allclose(ev(t, x), f.eval(x), atol=1e-12)


def test_closed_form_keeps_terms_that_grow_inside_the_span():
    # 1e-12 e^(3t) x2^2 is below the drop threshold on [0, 1] but 2.7 at
    # t = 10: zero tests and validation must sample the caller's span
    f = PolyField(2, {(0, (2, 0)): 1.0, (1, (0, 2)): 1e-12})
    ev = gauge_transform(f, ExponentialCurve(np.diag([0.0, 3.0]), -1), t_span=(0.0, 10.0))
    assert ev.closed_form is not None
    assert (1, (0, 2)) in ev.closed_form.terms
    y = np.array([0.5, -0.5])
    want = ev.rhs(10.0, y)
    assert want[1] == pytest.approx(1.5 + 0.25e-12 * math.exp(30.0), rel=1e-12)
    assert np.max(np.abs(ev.closed_form.eval(10.0, y) - want)) <= 1e-9 * np.max(np.abs(want))


def test_supplied_inverse_is_checked_over_the_span():
    # 0.1 sin(2 pi t) vanishes at t = 0, 0.5 and 1, where the curve checks
    # the table on construction; the transform checks its own sample times
    A = ClosedFormCurve([["exp(t)", "0"], ["0", "1"]],
                        [["exp(-t) + 0.1*sin(6.283185307179586*t)", "0"], ["0", "1"]])
    f = PolyField(2, {(0, (2, 0)): 1.0, (1, (1, 1)): 1.0})
    with pytest.raises(ValueError, match=r"does not invert the curve at t=0\.\d+"):
        gauge_transform(f, A)
    with pytest.raises(ValueError, match=r"at t=2\.\d+"):
        gauge_transform(f, A, t_span=(2.0, 3.0))
    good = ClosedFormCurve([["exp(t)", "0"], ["0", "1"]], [["exp(-t)", "0"], ["0", "1"]])
    assert gauge_transform(f, good, t_span=(-2.0, 5.0)).closed_form is not None


def test_rotating_frame_cubic_part_invariant():
    # only the linear part changes: the cubic -|x|^2 x is rotation-invariant
    rng = np.random.default_rng(2)
    K = rng.uniform(-1, 1, size=(2, 2))
    f = PolyField.from_linear(K) + cubic_norm_field()
    A = rotation_curve("t + 0.5*t^2")
    ev = gauge_transform(f, A)
    assert ev.closed_form is not None
    expected_cubic = cubic_norm_field()
    for t in np.linspace(0.0, 1.0, 10):
        cubic = ev.closed_form.degree_part_at(float(t), 3)
        assert cubic.coeff_distance(expected_cubic) <= 1e-12
        L = ev.closed_form.linear_at(float(t))
        want = A.derivative(t) @ A.inverse(t) + A.value(t) @ K @ A.inverse(t)
        assert np.max(np.abs(L - want)) <= 1e-10


def test_exponential_gauge_closed_form_coefficients():
    lam, mu = 1.0, 2.0
    A = ExponentialCurve(np.diag([lam, mu]), -1)
    ev = gauge_transform(p2_field(), A)
    ns = ev.closed_form
    assert ns is not None
    for t in np.linspace(0.0, 1.0, 7):
        t = float(t)
        assert np.allclose(ns.linear_at(t), -np.diag([lam, mu]), atol=1e-12)
        quad = ns.degree_part_at(t, 2)
        expected = PolyField(2, {
            (0, (2, 0)): math.exp(lam * t),
            (0, (0, 2)): -math.exp((2 * mu - lam) * t),
            (1, (1, 1)): 2 * math.exp(lam * t)})
        assert quad.coeff_distance(expected) <= 1e-10


def test_closed_form_agrees_with_direct_evaluator():
    A = ExponentialCurve(np.array([[0.5, -0.4], [0.4, 0.1]]), -1)
    f = random_field(np.random.default_rng(3), 2, [0, 1, 2])
    ev = gauge_transform(f, A)
    assert ev.closed_form is not None
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = rng.uniform(0, 1)
        x = rng.uniform(-1, 1, size=2)
        direct = ev(t, x)
        assert np.max(np.abs(ev.closed_form.eval(t, x) - direct)) \
            <= 1e-10 * (1 + np.max(np.abs(direct)))


def test_constant_field_transform():
    # f = b constant: the transform is A'A^{-1} y + A b
    b = np.array([0.7, -0.3])
    f = PolyField.from_constant(b)
    A = rotation_curve("t")
    ev = gauge_transform(f, A)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.uniform(0, 1)
        y = rng.uniform(-1, 1, size=2)
        want = A.derivative(t) @ A.inverse(t) @ y + A.value(t) @ b
        assert np.allclose(ev(t, y), want, atol=1e-12)
    assert ev.closed_form is not None
    for t in (0.0, 0.4, 1.0):
        got_c = ev.closed_form.constant_at(t)
        assert np.max(np.abs(got_c - A.value(t) @ b)) <= 1e-12


def test_symbolic_exponential_entries_complex_pair():
    from gaugekit.gauge import _symbolic_expm_entries
    from gaugekit.matcurve import mat_exp
    M = np.array([[0.3, -2.0], [2.0, 0.3]])  # eigenvalues 0.3 +- 2i
    S = _symbolic_expm_entries(M, 1)
    assert S is not None
    for t in np.linspace(0.0, 1.0, 9):
        got = np.array([[tx.eval_expr(e, float(t)) for e in row] for row in S])
        assert np.max(np.abs(got - mat_exp(t * M))) <= 1e-9
    rendered = tx.format_expr(S[0][0])
    assert "exp" in rendered and "cos" in rendered


def test_defective_generator_has_no_closed_form():
    from gaugekit.gauge import _symbolic_expm_entries
    M = np.array([[0.0, 1.0], [0.0, 0.0]])  # defective: one eigenvector
    assert _symbolic_expm_entries(M, -1) is None
    ev = gauge_transform(p2_field(), ExponentialCurve(M, -1))
    assert ev.closed_form is None
    assert np.all(np.isfinite(ev(0.5, np.array([0.2, 0.1]))))


def test_flow_curve_has_no_closed_form():
    A = solve_gauge_ode([["0", "t"], ["0", "0"]], np.zeros((2, 2)), np.eye(2))
    ev = gauge_transform(p2_field(), A)
    assert ev.closed_form is None
    # but the numeric evaluator still works
    assert np.all(np.isfinite(ev(0.5, np.array([0.3, 0.1]))))


def test_gauge_transform_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        gauge_transform(PolyField.zero(3), identity_curve(2))


# ---------------------------------------------------------------------------
# transform_solution
# ---------------------------------------------------------------------------

def p2_exact_solution(v, t):
    den = (1 - t * v[0]) ** 2 + (t * v[1]) ** 2
    return np.array([v[0] - t * (v[0] ** 2 + v[1] ** 2), v[1]]) / den


def test_transform_solution_identity_and_zero():
    z = Trajectory(np.linspace(0, 1, 5), np.random.default_rng(0).uniform(size=(5, 2)))
    same = transform_solution(z, identity_curve())
    assert np.allclose(same.states, z.states)
    zero = Trajectory(np.linspace(0, 1, 5), np.zeros((5, 2)))
    mapped = transform_solution(zero, rotation_curve("t"))
    assert np.allclose(mapped.states, 0.0)


def test_transform_solution_matches_explicit_formula():
    lam, mu = 1.0, 2.0
    v = np.array([0.3, 0.4])
    z = integrate(p2_field(), v, (0.0, 0.5), tol=1e-12)
    w = transform_solution(z, ExponentialCurve(np.diag([lam, mu]), -1))
    for t, got in zip(w.times, w.states):
        expected = np.diag([math.exp(-lam * t), math.exp(-mu * t)]) @ p2_exact_solution(v, t)
        assert np.max(np.abs(got - expected)) <= 1e-6


# ---------------------------------------------------------------------------
# conjugate_map
# ---------------------------------------------------------------------------

def test_conjugate_identity_map():
    ident = PolyField(2, {(0, (1, 0)): 1.0, (1, (0, 1)): 1.0})
    gamma = conjugate_map(ident, rotation_curve("t^2"), 0.7)
    x = np.array([0.4, -0.2])
    assert np.allclose(gamma(x), x, atol=1e-12)


def test_conjugate_linear_exponential():
    A = rotation_curve("t + 0.2*t^2")
    s, t = 0.6, 0.35
    B = np.array([[0.1, -0.7], [0.7, 0.1]])
    gamma = conjugate_map(lambda u: mat_exp(s * B) @ u, A, t)
    x = np.array([0.5, 0.1])
    want = A.value(t) @ mat_exp(s * B) @ A.inverse(t) @ x
    assert np.allclose(gamma(x), want, atol=1e-12)


def test_conjugate_flow_map_matches_linear_flow():
    # the time-s flow of the linear field Jx is exp(sJ)
    hx = PolyField.from_linear(J)
    fm = FlowMap(hx, 0.8)
    x = np.array([0.3, -0.5])
    assert np.max(np.abs(fm(x) - mat_exp(0.8 * J) @ x)) <= 1e-9


def test_flow_map_escape_raises():
    from gaugekit.odeint import IntegrationError
    # the p2 flow from (2, 0) leaves every bounded set before s = 1
    with pytest.raises(IntegrationError, match="escaped"):
        FlowMap(p2_field(), 1.0)(np.array([2.0, 0.0]))


def test_conjugate_map_preserves_solutions():
    # Phi = exp(sJ) is a symmetry of f = Jx; its conjugate maps solutions of
    # the transformed system to solutions of the transformed system
    f = PolyField.from_linear(J)
    A = rotation_curve("t + 0.5*t^2")
    ev = gauge_transform(f, A)
    w0 = np.array([0.4, 0.3])
    w = integrate(ev, w0, (0.0, 1.0), tol=1e-11, samples=33)
    s = 0.7
    mapped = np.array([conjugate_map(FlowMap(f, s), A, float(t))(x)
                       for t, x in zip(w.times, w.states)])
    w2 = integrate(ev, mapped[0], (0.0, 1.0), tol=1e-11, samples=33)
    assert np.max(np.abs(w2.states - mapped)) <= 1e-6


# ---------------------------------------------------------------------------
# hat_transform
# ---------------------------------------------------------------------------

def test_hat_identity():
    h = random_field(np.random.default_rng(6), 2, [1, 2])
    assert hat_transform(h, identity_curve(), 0.3).coeff_distance(h) <= 1e-12


def test_hat_linear_is_conjugation():
    B = np.array([[0.3, 1.0], [-0.5, 0.2]])
    A = rotation_curve("t")
    for t in (0.0, 0.5, 1.0):
        got = hat_transform(PolyField.from_linear(B), A, t)
        want = A.value(t) @ B @ A.inverse(t)
        assert np.max(np.abs(got.linear_matrix() - want)) <= 1e-12


def test_hat_matches_pushforward():
    rng = np.random.default_rng(7)
    h = random_field(rng, 2, [0, 1, 2])
    A = rotation_curve("t + 0.1*t^2")
    for t in rng.uniform(0, 1, size=10):
        t = float(t)
        assert hat_transform(h, A, t).coeff_distance(
            linear_pushforward(A.value(t), h)) == 0.0


# ---------------------------------------------------------------------------
# mixed bracket identity
# ---------------------------------------------------------------------------

def test_mixed_bracket_constant_identity_curve():
    rng = np.random.default_rng(8)
    h = random_field(rng, 2, [1, 2])
    f = random_field(rng, 2, [1, 2])
    assert mixed_bracket_residual(h, f, identity_curve(), 0.4, [0.3, -0.2]) == 0.0


def test_mixed_bracket_symmetry_specialization():
    # [h, f] = 0, so the x-bracket of the transformed pair equals D_t h_hat
    h = PolyField.from_linear(J)
    f = PolyField.from_linear(J) + cubic_norm_field()
    assert lie_bracket(h, f).is_zero()
    A = rotation_curve("t + 0.5*t^2")
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-1, 1, size=2)
        # residual reduces to |[h_hat, f_star]_x - D_t h_hat|
        assert mixed_bracket_residual(h, f, A, t, x) <= 1e-8


def test_mixed_bracket_random_tuples():
    rng = np.random.default_rng(10)
    curves = [rotation_curve("t"), rotation_curve("t + 0.5*t^2"),
              ExponentialCurve(np.array([[0.2, -0.6], [0.6, 0.2]]), -1)]
    for k in range(50):
        h = random_field(rng, 2, [1, 2])
        f = random_field(rng, 2, [1, 2])
        A = curves[k % len(curves)]
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-1, 1, size=2)
        At, Adot, Ainv = A.value(t), A.derivative(t), A.inverse(t)
        u = Ainv @ x
        scale = (np.linalg.norm(lie_bracket(linear_pushforward(At, h),
                                            frozen_transform_field(f, A, t)).eval(x))
                 + np.linalg.norm(Adot @ h.eval(u))
                 + np.linalg.norm(linear_pushforward(At, lie_bracket(h, f)).eval(x)))
        assert mixed_bracket_residual(h, f, A, t, x) <= 1e-8 * (1.0 + scale)


# ---------------------------------------------------------------------------
# conjugated quadratic map: computed coefficients pinned
# ---------------------------------------------------------------------------

def test_conjugated_quadratic_map_coefficients():
    # Phi = (x1 x2, x2^2) conjugated by a rotation: R Phi(R^{-1} w) works out to
    #   ( -sin(th) w1^2 + cos(th) w1 w2,  -sin(th) w1 w2 + cos(th) w2^2 )
    # pinned here against the numeric pushforward
    phi = PolyField(2, {(0, (1, 1)): 1.0, (1, (0, 2)): 1.0})
    for th in (0.0, 0.3, math.pi / 2, 2.0):
        c, s = math.cos(th), math.sin(th)
        R = np.array([[c, -s], [s, c]])
        got = linear_pushforward(R, phi)
        expected = PolyField(2, {(0, (2, 0)): -s, (0, (1, 1)): c,
                                 (1, (1, 1)): -s, (1, (0, 2)): c})
        assert got.coeff_distance(expected) <= 1e-12

import math
import re

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit.gauge import (
    FlowMap, conjugate_map, frozen_transform_field, gauge_transform,
    hat_transform, mixed_bracket_residual, transform_solution,
)
from gaugekit.identify import NonAutoSystem
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


def test_a_built_inverse_that_fails_leaves_no_closed_form():
    f = PolyField(2, {(0, (2, 0)): 1.0, (1, (1, 1)): 1.0})
    # the determinant folds to inf, so every built entry folds to 0
    ev = gauge_transform(f, ClosedFormCurve([["1e200", "0"], ["0", "1e200"]]))
    assert ev.closed_form is None
    assert re.fullmatch(r"built inverse table does not invert the curve at t=0\.\d+", ev.reason)
    # the determinant evaluates to 0, so the built table cannot be evaluated
    ev = gauge_transform(f, ClosedFormCurve([["1e-162 + 1e-170*t", "0"], ["0", "1e-162"]]))
    assert ev.closed_form is None
    assert ev.reason.startswith("near-zero denominator at t=0.")


@pytest.mark.parametrize("entry, want", [("1e160*exp(t)", [2.0, -2.0]), ("1e160", [1.0, -2.0])])
def test_the_direct_rhs_inverts_the_curve_not_a_refused_table(entry, want):
    # the determinant folds to inf and every built inverse entry to 0, so
    # the table is refused; the direct RHS inverts A(t) itself and still
    # gives A'A^{-1} y + A f(A^{-1} y) = diag(1 + e', -1) y
    f = PolyField(2, {(0, (1, 0)): 1.0, (1, (0, 1)): -1.0})
    ev = gauge_transform(f, ClosedFormCurve([[entry, "0"], ["0", "1e160"]]))
    assert ev.closed_form is None
    assert re.fullmatch(r"built inverse table does not invert the curve at t=0\.\d+", ev.reason)
    assert np.max(np.abs(ev.rhs(0.5, [1.0, 2.0]) - want)) <= 1e-14


def test_closed_form_refused_where_the_direct_rhs_is_not_finite():
    # exp(1000 t) overflows from t ~ 0.71, where the direct RHS is NaN; the
    # candidate y' = 1000 y + exp(-1000 t) y^2 is NaN there too, and a NaN
    # comparison must not let it pass
    f = PolyField(1, {(0, (2,)): 1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        ev = gauge_transform(f, ExponentialCurve(np.array([[1000.0]])))
    assert ev.closed_form is None
    assert ev.reason == "validation refused at t = 0.781943: non-finite value"
    assert ev.rhs(0.0, np.array([1.0]))[0] == pytest.approx(1001.0, rel=1e-12)


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


def _linear_values(q: NonAutoSystem, t: float) -> np.ndarray:
    """C(t) of a system, each entry read by eval_expr."""
    return np.array([[tx.eval_expr(e, t) for e in row] for row in q.linear])


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
        L = _linear_values(ev.closed_form, float(t))
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
        assert np.allclose(_linear_values(ns, t), -np.diag([lam, mu]), atol=1e-12)
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
    # the constant part of the transform of a constant field b is exp(tM) b,
    # so the closed forms for b = e1 and e2 are the columns of exp(tM): sums
    # of exp(0.3 t) times cos(2 t) and sin(2 t), each conjugate pair summed
    M = np.array([[0.3, -2.0], [2.0, 0.3]])  # eigenvalues 0.3 +- 2i
    A = ExponentialCurve(M)
    columns = [gauge_transform(PolyField.from_constant(b), A).closed_form.constant
               for b in np.eye(2)]
    for t in np.linspace(-1.0, 1.0, 9):
        got = np.array([[tx.eval_expr(e, float(t)) for e in col] for col in columns]).T
        assert np.max(np.abs(got - mat_exp(t * M))) <= 1e-12
    # one wave each, with the rate and frequency of the eigensolver, which
    # may round them: c exp(0.3 t) cos(2 t) and c exp(0.3 t) sin(2 t)
    number = r"-?\d+(\.\d+)?"
    for col, wave in zip(columns, ("cos", "sin")):
        assert re.fullmatch(rf"-?({number}\*)?\(?exp\({number}\*t\)\*{wave}\({number}\*t\)\)?",
                            tx.format_expr(col[0]))


def test_defective_generator_has_no_closed_form():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])  # defective: one eigenvector
    ev = gauge_transform(p2_field(), ExponentialCurve(M, -1))
    assert ev.closed_form is None
    assert ev.reason == "defective or ill-conditioned generator (cond V > 1e8)"
    assert np.all(np.isfinite(ev(0.5, np.array([0.2, 0.1]))))


def test_validation_names_a_mismatch():
    from gaugekit import gauge
    points = gauge._validation_points(1, (0.0, 1.0))
    with pytest.raises(gauge._Refused, match=r"^validation refused at t = 0\.623266: "
                                             r"mismatch \S+ relative to the direct RHS$"):
        gauge._emit_closed_form(1, {(0, (2,)): tx.Lit(1.0)}, points,
                                [1.001 * y ** 2 for _, y in points])


def test_flow_curve_has_no_closed_form():
    A = solve_gauge_ode([["0", "t"], ["0", "0"]], np.zeros((2, 2)), np.eye(2))
    ev = gauge_transform(p2_field(), A)
    assert ev.closed_form is None and ev.reason == "no symbolic entries in a FlowCurve"
    # but the numeric evaluator still works
    assert np.all(np.isfinite(ev(0.5, np.array([0.3, 0.1]))))


def test_gauge_transform_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        gauge_transform(PolyField.zero(3), identity_curve(2))


# ---------------------------------------------------------------------------
# The zero test and the tables a transform compiles
# ---------------------------------------------------------------------------

def _recording_compiles(monkeypatch) -> list:
    """Every expression list compiled from here on, in call order."""
    compiled = []
    real = tx.compile_table

    def recording(exprs, numbering=None):
        exprs = list(exprs)
        compiled.append(exprs)
        return real(exprs, numbering)

    monkeypatch.setattr(tx, "compile_table", recording)
    return compiled


@pytest.mark.parametrize("kind", ["exp", "closed_form"])
def test_a_transform_compiles_only_the_emitted_systems_table(monkeypatch, kind):
    # one table per transform: the emitted system's, which validation,
    # identification, its T flow and integration reuse
    from gaugekit.identify import identify
    f = random_field(np.random.default_rng(5), 2, [0, 1, 2, 3])
    if kind == "exp":
        A = ExponentialCurve(np.array([[0.5, -0.4], [0.4, 0.1]]), -1)
    else:
        A = rotation_curve("t + 0.5*t^2")
    compiled = _recording_compiles(monkeypatch)
    q = gauge_transform(f, A).closed_form
    assert q is not None and any(e != tx.Lit(0.0) for row in q.linear for e in row)
    assert identify(q).status == "gauge"
    integrate(q, [0.1, -0.2], (0.0, 0.5))
    assert len(compiled) == 1
    system = q._coefficients()
    assert len(compiled[0]) == len(system)
    assert all(a is b for a, b in zip(compiled[0], system))


def _reference_values(exprs: list, ts: list) -> np.ndarray:
    """e(t) for each expression (rows) and each of ts (columns), from one
    compiled table of the candidates (inf where an expression cannot be
    evaluated)."""
    exprs = [tx.as_expr(e) for e in exprs]
    table = tx.compile_table(exprs)
    rows = []
    for t in ts:
        try:
            vals = table(t)
        except (tx.EvalError, OverflowError):
            vals = []
            for e in exprs:
                try:
                    vals.append(tx.eval_expr(e, t))
                except (tx.EvalError, OverflowError):
                    vals.append(math.inf)
        rows.append(vals)
    return np.array(rows, dtype=float).T


def _random_rotation(rng, n: int, cancel: bool):
    """A rotation in the plane of the first two axes by theta = a t + b t^2,
    and, when it turns at a constant rate (b = 0, as with cancel), the
    linear part L whose transform has C(t) = 0 (else None)."""
    a, b = np.round(rng.uniform(-1.5, 1.5, size=2), 6)
    b = 0.0 if cancel else b
    th = tx.parse_expr(f"{a}*t + {b}*t^2")
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    entries = [[tx.Lit(float(i == j)) for j in range(n)] for i in range(n)]
    entries[0][:2], entries[1][:2] = [c, tx.Neg(s)], [s, c]
    L = np.zeros((n, n))
    L[0, 1], L[1, 0] = a, -a  # R' R^-1 = a J
    return ClosedFormCurve(entries), (L if b == 0.0 else None)


def test_zero_test_agrees_with_the_compiled_candidates():
    # the drop decision of every candidate coefficient of a closed-form
    # curve, from the pushforward of the sampled curve, against the
    # candidates' expressions compiled and evaluated at the same 20 times
    # and held against the pushforward of the sampled |S|, |S^-1|, |S'| and
    # |f|; coefficients within a factor 10 of the relative threshold may
    # fall either way in the two arithmetics
    from hypothesis import example, given, settings, strategies as st
    from gaugekit import gauge

    seen = {True: 0, False: 0}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=3),
           st.booleans(), st.floats(min_value=-1.5, max_value=0.5),
           st.floats(min_value=0.3, max_value=2.0))
    @example(seed=0, n=2, cancel=True, t0=-1.0, length=2.0)
    @example(seed=0, n=3, cancel=True, t0=-1.0, length=2.0)
    def run(seed, n, cancel, t0, length):
        rng = np.random.default_rng(seed)
        A, L = _random_rotation(rng, n, cancel)
        degrees = sorted(rng.choice([2, 3, 4], size=int(rng.integers(1, 3)), replace=False))
        f = random_field(rng, n, [0, 1, *degrees], density=0.5 if n == 3 else 0.8)
        f = PolyField(n, {key: c * 10.0 ** rng.uniform(-14.0, 0.0)
                          for key, c in f.terms.items()})
        if L is not None:
            # C(t) cancels to 0, as for four of the six perfbench round trips
            f = PolyField(n, {key: c for key, c in f.terms.items() if sum(key[1]) != 1}) \
                + PolyField.from_linear(L)
        if cancel:
            # and -(x1^2 + x2^2)(x1, x2) is invariant under the rotation
            cubic = {(i, e + (0,) * (n - 2)): c
                     for (i, e), c in cubic_norm_field().terms.items()}
            f = PolyField(n, {key: c for key, c in f.terms.items() if sum(key[1]) != 3}) \
                + PolyField(n, cubic)
        span = (t0, t0 + length)
        ts = gauge._sample_times(span).tolist()
        candidates = gauge.symbolic_pushforward(f, A.entries, A.inverse_entries, A._dentries)
        kept = gauge._closed_form_table(f, A, span)
        assert set(kept) <= set(candidates)
        absf = PolyField(n, {key: abs(c) for key, c in f.terms.items()})
        bounds = gauge.symbolic_pushforward(
            absf, *(np.abs([fn(t) for t in ts]).transpose(1, 2, 0)
                    for fn in (A.value, A._inverse, A.derivative)))
        values = _reference_values(list(candidates.values()), ts)
        m = np.array([np.broadcast_to(bounds.get(key, 0.0), len(ts)) for key in candidates])
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.max(np.where(values == 0.0, 0.0, np.abs(values) / m), axis=1)
        rtol = gauge._ZERO_RTOL
        for key, ratio in zip(candidates, ratios.tolist()):
            if not rtol / 10 <= ratio <= 10 * rtol:
                assert (key in kept) == (ratio > rtol)
                seen[key in kept] += 1

    run()
    assert seen[True] > 0 and seen[False] > 0


def test_a_non_finite_sample_keeps_its_coefficient():
    # A = 1e300 exp(700 t) has A' = 7e302 exp(700 t), which overflows from
    # t ~ 0.018, and A itself from t ~ 0.027 (in a product, so to inf rather
    # than to an OverflowError).  The linear coefficient A'/A - 700 of
    # f = -700 y + y^2 is zero relative to its bound wherever it is finite,
    # and [0, 0.01] drops it.  Its sampled value is inf on [0.018, 0.027],
    # where its bound is inf too, and inf * 0 = NaN beyond: [0, 0.025] and
    # [0, 1] keep it, and the validation then refuses the closed form, as
    # the direct RHS is not finite there either
    from gaugekit import gauge
    f = PolyField(1, {(0, (1,)): -700.0, (0, (2,)): 1.0})
    A = ClosedFormCurve([["1e300*exp(700*t)"]])
    assert (0, (1,)) not in gauge._closed_form_table(f, A, (0.0, 0.01))
    with np.errstate(over="ignore", invalid="ignore"):
        for span in ((0.0, 0.025), (0.0, 1.0)):
            assert not np.all(np.isfinite([A.derivative(t) for t in gauge._sample_times(span)]))
            assert (0, (1,)) in gauge._closed_form_table(f, A, span)
            assert gauge_transform(f, A, span).closed_form is None


def test_a_curve_failing_at_a_sample_time_keeps_every_candidate():
    # the second diagonal entry has its pole at one of the zero test's sample
    # times in [0, 1], so no candidate is dropped there, not even the x1
    # coefficient of e1, which cancels to rounding error and which [0, 0.4]
    # drops; 1e-13 exp(-t) x1^2 is nonzero relative to its bound and kept on
    # both spans
    from gaugekit import gauge
    pole = float(gauge._sample_times((0.0, 1.0))[10])
    A = ClosedFormCurve([["exp(t)", "0"], ["0", f"1/(t - {pole!r})"]])
    f = PolyField(2, {(0, (1, 0)): -1.0, (0, (2, 0)): 1e-13, (1, (0, 2)): 1.0})
    candidates = gauge.symbolic_pushforward(f, A.entries, A.inverse_entries, A._dentries)
    assert list(gauge._closed_form_table(f, A, (0.0, 1.0))) == list(candidates)
    q = gauge_transform(f, A).closed_form
    assert q is not None and (0, (2, 0)) in q.terms and q.linear[0][0] != tx.Lit(0.0)
    q = gauge_transform(f, A, t_span=(0.0, 0.4)).closed_form
    assert (0, (2, 0)) in q.terms and q.linear[0][0] == tx.Lit(0.0)


def test_symbolic_exponential_entries_are_validated_on_the_span(monkeypatch):
    # the emitted system's table is read at the ten validation times, all
    # inside the span
    times = []
    real = tx.compile_table

    def recording(exprs, numbering=None):
        table = real(exprs, numbering)

        def timed(t):
            times.append(t)
            return table(t)

        return timed

    monkeypatch.setattr(tx, "compile_table", recording)
    M = np.array([[0.3, -2.0], [2.0, 0.3]])
    for span in ((2.0, 3.5), (-3.0, -1.0)):
        times.clear()
        assert gauge_transform(p2_field(), ExponentialCurve(M), span).closed_form is not None
        assert len(times) == 10 and all(span[0] <= t <= span[1] for t in times)
    # exp(300 t) overflows on [0, 3]: no closed form is validated there
    with np.errstate(over="ignore", invalid="ignore"):
        assert gauge_transform(p2_field(), ExponentialCurve(1000.0 * M)).closed_form is not None
        assert gauge_transform(p2_field(), ExponentialCurve(1000.0 * M),
                               (0.0, 3.0)).closed_form is None


def test_tiny_nonlinear_coefficients_are_kept():
    # 1e-11 x1^2 e1 and 1e-12 x1 x2 e2 under a rotation are far below an
    # absolute 1e-10, but not zero relative to their own bound: the
    # transform keeps all six of their terms, and it is a gauge transform,
    # whether the rotation is exp(-tJ) or a closed form with a supplied or
    # an adjugate inverse
    from gaugekit.identify import identify
    f = PolyField(2, {(0, (1, 0)): 0.3, (1, (0, 1)): -0.2,
                      (0, (2, 0)): 1e-11, (1, (1, 1)): 1e-12})
    for A in (ExponentialCurve(J, -1), rotation_curve("-t"),
              ClosedFormCurve(rotation_curve("-t").entries)):
        q = gauge_transform(f, A).closed_form
        assert q is not None and q.degrees() == [2] and len(q.terms) == 6
        for t in (0.2, 0.7):
            y = np.array([0.4, -0.9])
            quad = q.degree_part_at(t, 2).eval(y)
            want = A.value(t) @ PolyField(2, {key: c for key, c in f.terms.items()
                                              if sum(key[1]) == 2}).eval(A.inverse(t) @ y)
            assert np.max(np.abs(quad - want)) <= 1e-12 * np.max(np.abs(want))
        assert identify(q).status == "gauge"


def _coefficients_at(q, t: float) -> dict:
    """{(component, exponents): value} of every coefficient of q at t."""
    n = q.dim
    values = q._table(t)
    keys = [(i, (0,) * n) for i in range(n)] \
        + [(i, tuple(int(k == j) for k in range(n))) for i in range(n) for j in range(n)] \
        + list(q.terms)
    return dict(zip(keys, values))


def test_one_rotation_three_spellings_emit_one_system():
    # the rotation by theta = a t in the first plane, as exp(sign t a J) and
    # as a closed form with a supplied and with an adjugate inverse: the one
    # zero rule keeps the same coefficients in all three, tiny ones included,
    # and the systems agree in value and in verdict
    from hypothesis import example, given, settings, strategies as st
    from gaugekit.identify import default_grid, identify

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=3),
           st.sampled_from([1, -1]), st.floats(min_value=-2.0, max_value=-0.1),
           st.floats(min_value=0.3, max_value=2.5))
    @example(seed=0, n=2, sign=-1, t0=-1.0, length=2.0)
    def run(seed, n, sign, t0, length):
        rng = np.random.default_rng(seed)
        a = float(np.round(rng.uniform(-1.5, 1.5), 6))
        G = np.zeros((n, n))
        G[:2, :2] = a * J
        th = tx.parse_expr(f"{sign * a}*t")
        c, s = tx.Fun("cos", th), tx.Fun("sin", th)
        entries = [[tx.Lit(float(i == j)) for j in range(n)] for i in range(n)]
        inverse = [row[:] for row in entries]
        entries[0][:2], entries[1][:2] = [c, tx.Neg(s)], [s, c]
        inverse[0][:2], inverse[1][:2] = [c, s], [tx.Neg(s), c]
        degrees = sorted(rng.choice([2, 3], size=int(rng.integers(1, 3)), replace=False))
        f = random_field(rng, n, degrees, density=0.5 if n == 3 else 0.8)
        f = PolyField(n, {key: c * 10.0 ** rng.uniform(-14.0, 0.0)
                          for key, c in f.terms.items()})
        span = (t0, t0 + length)
        systems = [gauge_transform(f, A, span).closed_form
                   for A in (ExponentialCurve(G, sign), ClosedFormCurve(entries, inverse),
                             ClosedFormCurve(entries))]
        assert all(q is not None for q in systems)
        zero = tx.Lit(0.0)
        nonzero = [{key for key, e in zip(_coefficients_at(q, 0.0), q._coefficients())
                    if e != zero} for q in systems]
        assert nonzero[0] == nonzero[1] == nonzero[2]
        for t in rng.uniform(*span, size=3).tolist():
            want = _coefficients_at(systems[0], t)
            scale = max(abs(v) for v in want.values())
            for q in systems[1:]:
                got = _coefficients_at(q, t)
                for key in nonzero[0]:
                    assert abs(got[key] - want[key]) <= 1e-9 * scale
        grid = default_grid(*span)
        statuses = {identify(q, grid).status for q in systems}
        assert len(statuses) == 1

    run()


def test_a_transform_generates_no_right_hand_side(monkeypatch):
    # validation reads the emitted system through its table; the generated
    # right-hand side comes with the first integration
    real = tx.compile_rhs
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tx, "compile_rhs", recording)
    for A in (ExponentialCurve(np.array([[0.5, -0.4], [0.4, 0.1]]), -1),
              rotation_curve("t + 0.5*t^2")):
        calls.clear()
        q = gauge_transform(p2_field(), A).closed_form
        assert q is not None and calls == []
        integrate(q, [0.1, -0.2], (0.0, 0.5))
        integrate(q, [0.2, 0.1], (0.0, 0.5))
        assert calls == [2]


def test_transform_rhs_evaluates_two_exponentials(monkeypatch):
    # A'A^{-1} of exp(sign t G) is sign G: one call reads exp(sign t G) and
    # exp(-sign t G) only, as one stack of two
    from gaugekit import gauge
    from gaugekit.gauge import transform_rhs
    real = gauge.mat_exp
    shapes = []

    def counting(M):
        shapes.append(np.shape(M))
        return real(M)

    monkeypatch.setattr(gauge, "mat_exp", counting)
    G = np.array([[0.5, -0.4], [0.4, 0.1]])
    rhs = transform_rhs(p2_field(), ExponentialCurve(G, -1))
    y = np.array([0.3, -0.6])
    got = rhs(0.7, y)
    assert shapes == [(2, 2, 2)]
    A, Ainv = real(-0.7 * G), real(0.7 * G)
    want = -G @ y + A @ p2_field().eval(Ainv @ y)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_transform_rhs_on_a_flow_samples_it_once(monkeypatch):
    # a flow reads A(t) from one dense sample and A'(t) from its generated
    # right-hand side at that sample
    from gaugekit import _rk
    from gaugekit.gauge import transform_rhs
    from gaugekit.polyfield import invert_checked
    real, calls = _rk.DenseSolution.sample, []

    def counting(self, ts):
        calls.append(len(ts))
        return real(self, ts)

    A = solve_gauge_ode([["0", "sin(t)"], ["0.2", "0"]],
                        np.array([[0.1, 0.0], [0.0, -0.2]]), np.eye(2))
    monkeypatch.setattr(_rk.DenseSolution, "sample", counting)
    y = np.array([0.3, -0.6])
    got = transform_rhs(p2_field(), A)(0.7, y)
    assert calls == [1]
    At, dA = A.value(0.7), A.derivative(0.7)
    u = invert_checked(At) @ y
    want = dA @ u + At @ p2_field().eval(u)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_validation_reads_one_stacked_exponential(monkeypatch):
    # the ten points' A(t) and A(t)^{-1} come from one mat_exp over a stack
    # of 20 matrices for an exponential curve, and from no mat_exp for a
    # closed form; either way the direct values validation compares against
    # are transform_rhs's at the same points, bit for bit
    from gaugekit import gauge, matcurve
    from gaugekit.gauge import transform_rhs
    real_exp, real_direct = matcurve.mat_exp, gauge._direct_at
    shapes, direct = [], []

    def counting(M):
        shapes.append(np.shape(M))
        return real_exp(M)

    def recording(f, A, points):
        direct.append(real_direct(f, A, points))
        return direct[-1]

    for module in (gauge, matcurve):
        monkeypatch.setattr(module, "mat_exp", counting)
    monkeypatch.setattr(gauge, "_direct_at", recording)
    f3 = random_field(np.random.default_rng(6), 3, [0, 1, 2, 3])
    f2 = random_field(np.random.default_rng(6), 2, [0, 1, 2, 3])
    G = _random_generator(np.random.default_rng(7), 3, "complex")
    for f, A, span, stacks in (
            (f3, ExponentialCurve(G, -1), (0.0, 1.0), [(20, 3, 3)]),
            (f3, ExponentialCurve(G, 1), (-1.5, 0.5), [(20, 3, 3)]),
            (f2, rotation_curve("t + 0.5*t^2"), (-1.0, 1.0), [])):
        shapes.clear()
        direct.clear()
        assert gauge_transform(f, A, span).closed_form is not None
        assert shapes == stacks
        assert len(direct) == 1
        rhs = transform_rhs(f, A)
        points = gauge._validation_points(f.dim, span)
        assert len(direct[0]) == len(points) == 10
        for got, (t, y) in zip(direct[0], points):
            assert got.tobytes() == rhs(t, y).tobytes()


def test_an_overflowing_closed_form_is_refused(tmp_path, capsys):
    # the x1 x2 e2 coefficient is exp(1000 t), which overflows math.exp
    # from t ~ 0.71: validation refuses the closed form instead of raising
    import json
    from gaugekit.cli import main
    f = PolyField(2, {(1, (1, 1)): 1.0})
    G = np.diag([1000.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ev = gauge_transform(f, ExponentialCurve(G, -1))
    assert ev.closed_form is None
    fpath, cpath = tmp_path / "f.json", tmp_path / "A.json"
    fpath.write_text(json.dumps({"dim": 2, "terms": [
        {"component": 1, "exponents": [1, 1], "coeff": 1.0}]}))
    cpath.write_text(json.dumps({"dim": 2, "kind": "exp", "generator": G.tolist(),
                                 "sign": -1}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["transform", "--field", str(fpath), "--curve", str(cpath)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_an_overflowing_direct_rhs_is_no_closed_form():
    # the curve's derivative folds to exp(1000 t), which overflows math.exp
    # from t ~ 0.71: the curve's one table, and with it the direct RHS,
    # cannot be read there during validation
    f = PolyField(1, {(0, (1,)): -1000.0, (0, (2,)): 1.0})
    ev = gauge_transform(f, ClosedFormCurve([["exp(700*t)*exp(300*t)"]]))
    assert ev.closed_form is None
    assert ev.reason == "overflow reading the curve: math range error"


def _random_generator(rng, n: int, spectrum: str) -> np.ndarray:
    """A diagonalizable generator: real eigenvalues, a complex pair plus
    real ones, or a diagonal with a repeated eigenvalue."""
    if spectrum == "repeated":
        a = float(np.round(rng.uniform(-1.0, 1.0), 3))
        return np.diag([a] * min(n, 2) + [rng.uniform(-1.0, 1.0)] * (n - 2))
    V = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    D = np.diag(rng.uniform(-1.0, 1.0, size=n))
    if spectrum == "complex" and n >= 2:
        D[0, 1], D[1, 0] = -1.5, 1.5
        D[1, 1] = D[0, 0]  # eigenvalues D00 +- 1.5i
    return V @ D @ np.linalg.inv(V)


def _exponential_input(rng, n: int, spectrum: str, sign: int, cancel: bool):
    """A seeded field of degrees 0, 1 and one or two of 2-4, and the curve
    exp(sign t G); with cancel, the field's linear part is -sign G."""
    G = _random_generator(rng, n, spectrum)
    degrees = sorted(rng.choice([2, 3, 4], size=int(rng.integers(1, 3)), replace=False))
    f = random_field(rng, n, [0, 1, *degrees], density=0.5 if n == 3 else 0.8)
    if cancel:
        f = PolyField(n, {key: c for key, c in f.terms.items() if sum(key[1]) != 1}) \
            + PolyField.from_linear(-sign * G)
    return f, ExponentialCurve(G, sign)


def test_exponential_closed_forms_equal_the_direct_rhs():
    # the exponential sums equal transform_rhs within 1e-9 relative at
    # random points of the span, negative times included, and a second
    # transform of the same input prints the same bytes; with cancel, the
    # linear part -sign G makes C(t) = 0, which the zero test must find
    from hypothesis import example, given, settings, strategies as st
    from gaugekit.cli import dumps
    from gaugekit.gauge import transform_rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3),
           st.sampled_from(["real", "complex", "repeated"]), st.sampled_from([1, -1]),
           st.booleans(), st.floats(min_value=-2.0, max_value=0.5),
           st.floats(min_value=0.3, max_value=2.0))
    @example(seed=0, n=2, spectrum="repeated", sign=1, cancel=True, t0=-1.0, length=2.0)
    @example(seed=0, n=3, spectrum="complex", sign=-1, cancel=True, t0=-2.0, length=2.0)
    def run(seed, n, spectrum, sign, cancel, t0, length):
        rng = np.random.default_rng(seed)
        f, A = _exponential_input(rng, n, spectrum, sign, cancel)
        span = (t0, t0 + length)
        q = gauge_transform(f, A, span).closed_form
        assert q is not None
        if cancel:
            assert all(e == tx.Lit(0.0) for row in q.linear for e in row)
        rhs = transform_rhs(f, A)
        for t in rng.uniform(*span, size=5).tolist():
            y = rng.uniform(-1.0, 1.0, size=n)
            want = rhs(t, y)
            assert np.max(np.abs(q.eval(t, y) - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))
        again = gauge_transform(f, A, span).closed_form
        assert dumps(again.to_dict()) == dumps(q.to_dict())

    run()


# sha256 of the printed closed form of _exponential_input(default_rng(seed),
# n, spectrum, sign, cancel) over span, in the format 1 layout
_EXPONENTIAL_GOLDEN = [
    (0, 1, "real", -1, False, (-1.0, 1.0), "ce2b3320a2741920a251ad92a240caf92eb870a0affbe569330f9ebbded0fea6"),
    (1, 1, "real", 1, True, (0.0, 1.0), "56d42218aae24c046c40f2093666239e0cff113f363ba342b0007e679946c457"),
    (2, 1, "real", -1, False, (-2.0, 0.0), "1c4c4e5afcad0f664af8537d683027e2f156ecd717629f9b72ef3095b8c9ab18"),
    (3, 1, "real", 1, True, (-0.5, 1.5), "6f9f02c300f33f294b431ee2234747dba49bfa0f857ade96c25fee71527ced0d"),
    (4, 2, "real", -1, False, (-1.5, -0.25), "d6e83c25277e5b907d17ae72b4365a39acf1449f6555d983fe0db8f694800d12"),
    (5, 2, "real", 1, True, (-1.0, 1.0), "41c8da8461d487ec427bee8beeaced40aeebdafd88a34416e5693f8a963f5591"),
    (6, 2, "complex", -1, False, (0.0, 1.0), "8f2d92f742e223cb6f635d75728a21c5c33551e72131d2e004ff07bcd1d9a7c7"),
    (7, 2, "complex", 1, True, (-2.0, 0.0), "642955fe6c23428771a60b80eda0385ecaa52b72aeaf8f16b49c66c70d479e61"),
    (8, 2, "repeated", -1, False, (-0.5, 1.5), "402379e9206b383dd269c7f94d0d5c8d16f8ce92954355776afc3e456adbbb98"),
    (9, 2, "repeated", 1, True, (-1.5, -0.25), "ff181742c9048d173d8da1d106149f50177c43096900104c33af203949ac433c"),
    (10, 3, "real", -1, False, (-1.0, 1.0), "113170348d2e820afd7b06d8586ba989bf696e78766e30852e687ccf2ab4e5ad"),
    (11, 3, "real", 1, True, (0.0, 1.0), "59bafec87c4b75476ae86392fc3b9c5b10d9bf6d06f22756ef3c958d71cf66eb"),
    (12, 3, "complex", -1, False, (-2.0, 0.0), "50c84034cf857497204bc7b5868c2b092d4ace2eed5bee5bd455128cfc9e6ab9"),
    (13, 3, "complex", 1, True, (-0.5, 1.5), "24c0856b4972b624c3482e70c3d5b46577d8e4697df4e70473d9bd64093e5acf"),
    (14, 3, "repeated", -1, False, (-1.5, -0.25), "aba582d9749b32b224e72ce09b5386422fdb341261f8911bc16fa386e578408f"),
    (15, 3, "repeated", 1, True, (-1.0, 1.0), "91747680344cea6933a8f678eb9d6f4f66cc394ebc608239ef6d51175ef18547"),
    (16, 2, "complex", 1, False, (0.0, 1.0), "022f6f4c9155f4f6468283fca77f113249a7bbb359b58ad570bc18d98831b9e2"),
    (17, 3, "complex", -1, True, (-2.0, 0.0), "363a85b175e648c87baa62f77e15eac2b2af488e80bc9178f5f487ece80af646"),
    (18, 3, "real", 1, False, (-0.5, 1.5), "8e7037ad996e3ffc782a26d3cd375272bb3cafa7b7c645d211481004a59cf5b0"),
    (19, 2, "real", -1, True, (-1.5, -0.25), "2daed36348561050bb84a4dd1685c84a93c5694cfc5926de9b42db3e8dad4775"),
]


# the second column, by seed: sha256 of the same closed form as
# NonAutoSystem.to_dict writes it, in format 2
_EXPONENTIAL_GOLDEN_V2 = {
    0: "e7812732754b27e8a8e23b542c02bd9a16e4b55c12f2bd5de38abbc74d41b67e",
    1: "926c537ab1c0d0dae52d9dd11f2cd9a5c8dd1b79c2b41eb97d6af0a853c212df",
    2: "26080add8a0f325ea718bed6b985209d51f8c697804a79dc15acdd33ea119121",
    3: "0754f230908ac2141a5f61d0288703151c8fec892f5c2890f63d194154e3a5df",
    4: "c107e21cf8b243918336c0a93176b5f37b9494aa5c1f86e171f6901cd3368afa",
    5: "a7a368f1e9d882bcef9cf259a067fc5a08d7ee0e05a378c162fba6453c9f1e26",
    6: "b50c5803a139c52c1e1a0dd417acff32d16bd829e573bc92c33d2b1a62326725",
    7: "d74b33aba90d3938c651d9893b7b898250690c0044599b031b2b6e8ffc568d3d",
    8: "d53c995642aecc3d526187fc8736217cd95f43891f356bcddfaee175505cba4b",
    9: "2090cef41e948b9f7314ba8482cefc1071a9a87d2899d485ff7c6fc7e5181564",
    10: "36bbdf066d2ab79d0b9409cc2e0d4dc3addf8b26b0cc88637ae8b01aafb84e7d",
    11: "ed8e7136172d4fc33797cc1c984151cb0f608e0513530d759d2861e5967ff1c4",
    12: "0c77b72f14279c64c554f315e20e306efeb9cd9ceed2263b4211ebf2d28540d6",
    13: "b67699ebe13c4655d40577b774675b342f3520b25757f8846f9f57ee673637b9",
    14: "b175c94c68c5c78d93aabbcfe5e3589234f5195d41083f9d23316dcefc35f653",
    15: "eb35710ef086807d511f33b6ca0387e999be0ce33bd8b5838b62e30962f05b3f",
    16: "0cf48711377f8f2a9993100e030756edbd2c9d4519354a7f495d9a5e8d5f801e",
    17: "d3b09b09e03b4b47ca904232873dcdd9085c30765d0d0d95ca1f51c7e7e6bf0c",
    18: "4e632e14a0e905de70cabe8ff59fe046abf9517238ccb70eb8665a1f0a957ae4",
    19: "aa649b169d26b091795f294df2c5ecd3c3ed3d37b556850bf1c3675e2ede8f55",
}


@pytest.mark.parametrize("seed,n,spectrum,sign,cancel,span,digest", _EXPONENTIAL_GOLDEN)
def test_exponential_closed_forms_print_their_recorded_bytes(seed, n, spectrum, sign,
                                                             cancel, span, digest):
    # the printed system is pinned byte for byte, so a change to how the
    # exponential sums are accumulated or validated cannot move a digit; the
    # format 1 layout is printed from the system read back from format 2
    import hashlib
    import json
    from gaugekit.cli import dumps
    from oracles import v1_layout
    f, A = _exponential_input(np.random.default_rng(seed), n, spectrum, sign, cancel)
    q = gauge_transform(f, A, span).closed_form
    written = dumps(q.to_dict())
    assert hashlib.sha256(written.encode()).hexdigest() == _EXPONENTIAL_GOLDEN_V2[seed]
    loaded = NonAutoSystem.from_dict(json.loads(written))
    assert hashlib.sha256(dumps(v1_layout(loaded)).encode()).hexdigest() == digest


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

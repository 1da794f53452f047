"""The generated right-hand sides and the step loop that calls them."""

import gc
import traceback
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaugekit import timexpr as tx
from gaugekit._rk import _stepper, integrate_dense
from gaugekit.gauge import FlowMap, gauge_transform
from gaugekit.identify import NonAutoSystem, identify
from gaugekit.matcurve import ExponentialCurve, FlowCurve, solve_gauge_ode
from gaugekit.odeint import integrate, verify_correspondence
from gaugekit.polyfield import PolyField


# coefficient sources, several of them exactly 0.0 or -0.0 at some t: "0*t"
# reads -0.0 for t < 0, "-t" at t = 0, "t-0.5" at t = 0.5; "0" and "-0" are
# structural zeros
_SOURCES = ["0", "-0", "0*t", "t", "-t", "sin(t)", "t-0.5", "exp(t)-1", "cos(t)",
            "t^2-0.25", "1/(t+2)", "1.5", "-2"]
_TIMES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                   st.floats(-1.0, 1.0, allow_nan=False))
_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-10.0, 10.0, allow_nan=False))


def _exponents(n: int, lo: int):
    return st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple).filter(
        lambda e: lo <= sum(e) <= 6)


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 3))
    coeff = st.one_of(st.sampled_from(_SOURCES), st.floats(-5.0, 5.0, allow_nan=False))
    constant = [draw(coeff) for _ in range(n)]
    linear = [[draw(coeff) for _ in range(n)] for _ in range(n)]
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        terms[(draw(st.integers(0, n - 1)), draw(_exponents(n, 2)))] = draw(coeff)
    return NonAutoSystem(n, constant, linear, terms)


@st.composite
def _fields(draw):
    n = draw(st.integers(1, 3))
    coeff = st.one_of(st.sampled_from([-0.0, 1e-300, -3.0, 0.5]),
                      st.floats(-5.0, 5.0, allow_nan=False))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        terms[(draw(st.integers(0, n - 1)), draw(_exponents(n, 0)))] = draw(coeff)
    return PolyField(n, terms)


def _system_reference(q: NonAutoSystem, t: float, x: list) -> list:
    """The summation NonAutoSystem.eval has always made: constants set,
    linear terms added, terms added unless their coefficient is 0.0."""
    zero = tx.Lit(0.0)
    out = [0.0] * q.dim
    for i, e in enumerate(q.constant):
        if e != zero:
            out[i] = tx.eval_expr(e, t)
    for i, row in enumerate(q.linear):
        for j, e in enumerate(row):
            if e != zero:
                out[i] += tx.eval_expr(e, t) * x[j]
    for (i, exps), e in q.terms.items():
        m = tx.eval_expr(e, t)
        if m == 0.0:
            continue
        for var, p in enumerate(exps):
            if p:
                m *= x[var] ** p
        out[i] += m
    return out


def _field_reference(f: PolyField, x: list) -> list:
    """PolyField.eval's summation, over Python floats."""
    out = [0.0] * f.dim
    for (i, exps), c in f.terms.items():
        m = c
        for k, p in enumerate(exps):
            if p:
                m = m * x[k] ** p
        out[i] += m
    return out


def _bits(values) -> list:
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(_systems(), _TIMES, st.lists(_COORDS, min_size=3, max_size=3))
# a constant that reads -0.0 stays -0.0 ...
@example(NonAutoSystem(1, ["-t"], [["0"]]), 0.0, [1.0, 0.0, 0.0])
# ... until a linear coefficient that reads 0.0 is added to it
@example(NonAutoSystem(1, ["-t"], [["t"]]), 0.0, [1.0, 0.0, 0.0])
def test_system_rhs_equals_the_summation_bit_for_bit(q, t, x):
    x = x[:q.dim]
    want = _bits(_system_reference(q, t, x))
    assert _bits(q._rhs(t, x)) == want
    assert _bits(q.eval(t, np.array(x))) == want


@settings(max_examples=300, deadline=None)
@given(_fields(), st.lists(_COORDS, min_size=3, max_size=3))
def test_field_rhs_equals_the_summation_bit_for_bit(f, x):
    x = x[:f.dim]
    want = _bits(_field_reference(f, x))
    assert _bits(f.rhs()(0.0, x)) == want
    assert _bits(f.eval(np.array(x))) == want


@st.composite
def _flows(draw):
    """(C, B, flows): an n x n C table, or None, and a B, both with 0.0 and
    -0.0 entries among others, and the flows of C, of C as columns of a
    system's table (None gives the system no linear part), and with no C."""
    n = draw(st.integers(1, 3))
    coeff = st.one_of(st.sampled_from(_SOURCES + [0.0, -0.0]),
                      st.floats(-5.0, 5.0, allow_nan=False))
    C = None if draw(st.booleans()) else [[draw(coeff) for _ in range(n)] for _ in range(n)]
    number = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                       st.floats(-5.0, 5.0, allow_nan=False))
    B = [[draw(number) for _ in range(n)] for _ in range(n)]
    q = NonAutoSystem(n, ["sin(t)"] * n, C, {(0, (2,) + (0,) * (n - 1)): "t"})
    # a span of length zero integrates nothing
    flows = [FlowCurve(C, B, np.eye(n), t_span=(0.0, 0.0)),
             FlowCurve((q._table, n), B, np.eye(n), t_span=(0.0, 0.0))]
    return C, B, flows


def _flow_reference(C, B: list, t: float, y: list) -> list:
    """A' = C A - A B entry by entry: from 0.0, the terms -B[k][j] A[i][k]
    whose B[k][j] is not 0.0, then C[i][k] A[k][j]."""
    n = len(B)
    out = []
    for i in range(n):
        for j in range(n):
            s = 0.0
            for k in range(n):
                if B[k][j] != 0.0:
                    s += -B[k][j] * y[i * n + k]
            for k in range(n if C is not None else 0):
                s += tx.eval_expr(tx.as_expr(C[i][k]), t) * y[k * n + j]
            out.append(s)
    return out


@settings(max_examples=300, deadline=None)
@given(_flows(), _TIMES, st.lists(_COORDS, min_size=9, max_size=9))
def test_flow_rhs_equals_the_summation_bit_for_bit(flow, t, y):
    C, B, flows = flow
    y = y[:len(B) ** 2]
    want = _bits(_flow_reference(C, B, t, y))
    for A in flows:
        assert _bits(A._rhs(t, y)) == want


def test_rhs_raises_the_tables_eval_error():
    q = NonAutoSystem(2, ["sin(t)", "0"], [["1", "0"], ["0", "t"]],
                      {(0, (2, 0)): "1/(t-0.5)"})
    for read in (q._rhs, q.eval):
        with pytest.raises(tx.EvalError, match="near-zero denominator") as err:
            read(0.5, [0.3, 0.4])
        assert tx.format_expr(err.value.subexpr) == "t-0.5"


def test_generated_rhs_and_table_die_with_their_system():
    # the system holds its table and its RHS, the RHS's globals hold the
    # table, and nothing points back: reference counting alone frees them
    gc.disable()
    try:
        q = NonAutoSystem(2, ["sin(t)", "t"], [["1", "cos(t)"], ["0", "t"]],
                          {(1, (1, 2)): "exp(t)"})
        q.eval(0.3, [0.5, -0.2])
        refs = [weakref.ref(q._rhs), weakref.ref(q._table)]
        del q
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_field_generates_its_right_hand_side_once(monkeypatch):
    real = tx.compile_rhs
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tx, "compile_rhs", recording)
    f = PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})
    first = integrate(f, [0.1, -0.2], (0.0, 0.5))
    second = integrate(f, [0.1, -0.2], (0.0, 0.5))
    assert calls == [2]
    assert np.array_equal(first.states, second.states)


def _rejecting_solve(n: int, wrap):
    """A solve that rejects steps, for states of n components, whose RHS
    passes the field's values through `wrap`.  For n = 1 the logistic
    y' = 20 y (1 - y) from 1e-4 over [0, 2]; from n = 2 on van der Pol with
    mu = 5 over [0, 10], which rejects steps at its fast turns, carrying
    y_i' = y_0 y_i along."""
    if n == 1:
        f, y0, t1 = PolyField(1, {(0, (1,)): 20.0, (0, (2,)): -20.0}), [1e-4], 2.0
    else:
        def e(*powers):
            return powers + (0,) * (n - len(powers))
        terms = {(0, e(0, 1)): 1.0, (1, e(0, 1)): 5.0, (1, e(2, 1)): -5.0,
                 (1, e(1, 0)): -1.0}
        terms.update({(i, e(1, *([0] * (i - 1)), 1)): 1.0 for i in range(2, n)})
        f, y0, t1 = PolyField(n, terms), [2.0, 0.0] + [0.1] * (n - 2), 10.0
    rhs = f.rhs()
    return integrate_dense(lambda t, y: wrap(rhs(t, y)), 0.0, t1, y0)


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_step_counters_match_the_rhs_calls(n):
    calls = []

    def counting(values):
        calls.append(values)
        return values

    sol = _rejecting_solve(n, counting)
    assert sol.steps_rejected > 0
    accepted = len(sol.t_starts)
    assert sol.rhs_calls == len(calls) == 2 + 12 * (accepted + sol.steps_rejected) + 3 * accepted


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_a_tuple_list_or_array_rhs_gives_identical_solutions(n):
    sols = [_rejecting_solve(n, kind) for kind in (tuple, list, np.array)]
    for sol in sols[1:]:
        for name in ("t_starts", "hs", "Y", "Q", "y_end"):
            assert np.array_equal(getattr(sol, name), getattr(sols[0], name)), name
        assert (sol.steps_rejected, sol.rhs_calls) == (sols[0].steps_rejected,
                                                       sols[0].rhs_calls)


def test_one_generated_step_per_dimension():
    assert _stepper(2) is _stepper(2)
    assert _stepper(3) is not _stepper(2)
    step, dense_stages = _stepper(2)
    assert (step.__name__, dense_stages.__name__) == ("_step", "_dense_stages")


def test_an_empty_state_or_span_is_refused():
    with pytest.raises(ValueError, match="empty state"):
        integrate_dense(lambda t, y: [], 0.0, 1.0, [])
    with pytest.raises(ValueError, match="empty time span"):
        integrate_dense(lambda t, y: y, 1.0, 1.0, [1.0])


def test_an_error_in_a_generated_step_names_the_step():
    # an RHS must return exactly n values: the step unpacks them
    step, _ = _stepper(2)
    with pytest.raises(ValueError, match="not enough values to unpack") as info:
        step(lambda t, y: [1.0], 0.0, [0.0, 0.0], [1.0, 1.0], 0.1, 0.1)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.name == "_step" and frame.filename.startswith("<gaugekit _step ")


def test_integrate_hands_a_plain_callable_an_array():
    seen = []

    def rhs(t, x):
        seen.append(type(x))
        return -x

    traj = integrate(rhs, [1.0, 2.0], (0.0, 1.0))
    assert seen and set(seen) == {np.ndarray}
    assert np.allclose(traj.states[-1], np.exp(-1.0) * np.array([1.0, 2.0]), atol=1e-9)


def _is_generated(fun) -> bool:
    return fun.__code__.co_filename.startswith("<gaugekit _rhs ")


def test_every_integration_in_the_package_runs_a_generated_rhs(monkeypatch):
    # flows of all three forms of C, FlowMap, and trajectories of a field or
    # a system integrate a compile_rhs function; verify_correspondence's w,
    # the numeric reference, and a user's callable are the exceptions
    import gaugekit
    from gaugekit import _rk
    funs = []

    def recording(fun, *args, **kwargs):
        funs.append(fun)
        return integrate_dense(fun, *args, **kwargs)

    holders = [m for m in vars(gaugekit).values()
               if getattr(m, "integrate_dense", None) is _rk.integrate_dense]
    assert {m.__name__ for m in holders} >= {"gaugekit.gauge", "gaugekit.matcurve",
                                             "gaugekit.odeint"}
    for m in holders:
        monkeypatch.setattr(m, "integrate_dense", recording)
    f = PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})
    A = ExponentialCurve(np.array([[0.3, -0.8], [0.5, 0.1]]), -1)
    q = gauge_transform(f, A).closed_form
    B, x0 = np.array([[0.2, 0.0], [0.1, -0.4]]), np.array([0.3, 0.4])
    runs = [
        lambda: solve_gauge_ode(q.linear, B, np.eye(2), t_span=(-0.5, 0.5)),
        lambda: solve_gauge_ode((q._table, q.dim), B, np.eye(2)),
        lambda: solve_gauge_ode(None, B, np.eye(2)),
        lambda: identify(q),  # the T flow
        lambda: FlowMap(f, 0.3)(x0),
        lambda: integrate(f, x0, (0.0, 0.5)),
        lambda: integrate(q, x0, (0.0, 0.5)),
    ]
    for run in runs:
        funs.clear()
        run()
        assert funs and all(map(_is_generated, funs)), funs
    funs.clear()
    verify_correspondence(f, A, x0, (0.0, 0.5))
    assert [_is_generated(fun) for fun in funs] == [True, False]
    funs.clear()
    integrate(lambda t, x: -x, x0, (0.0, 0.5))
    assert [_is_generated(fun) for fun in funs] == [False]

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit.gauge import gauge_transform
from gaugekit.identify import (
    JetData, NonAutoSystem, _grid_residuals, _GridTables, default_grid,
    extract_jet, find_idempotents, identify, remove_linear_part,
    solve_candidate_B, verify_candidate,
)
from gaugekit.matcurve import ClosedFormCurve, ExponentialCurve, mat_exp, solve_gauge_ode
from gaugekit.odeint import integrate
from gaugekit.polyfield import (
    NearSingularMatrixError, PolyField, check_invertible, lie_bracket, linear_pushforward,
)

from conftest import random_field, random_time_expr
from oracles import frac_candidate_system, frac_solve, satisfies


def p2_field() -> PolyField:
    return PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})


def quadex_system(a1: float, a2: float, a3: float) -> NonAutoSystem:
    """Homogeneous quadratic with coefficients (1 + t a_i) on the p2 monomials."""
    return NonAutoSystem(2, terms={
        (0, (2, 0)): f"1 + {a1}*t",
        (0, (0, 2)): f"-(1 + {a2}*t)",
        (1, (1, 1)): f"2*(1 + {a3}*t)",
    })


def quadex_jet(a1, a2, a3) -> JetData:
    r2 = PolyField(2, {(0, (2, 0)): float(a1), (0, (0, 2)): -float(a2),
                       (1, (1, 1)): 2 * float(a3)})
    return JetData(2, [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))],
                   {2: [p2_field(), r2]})


def exp_quadratic_system() -> NonAutoSystem:
    """The gauge transform of diag(1,2)x + p2(x) by exp(-t diag(1,2))."""
    return NonAutoSystem(2, terms={
        (0, (2, 0)): "exp(t)",
        (0, (0, 2)): "-exp(3*t)",
        (1, (1, 1)): "2*exp(t)",
    })


# the note identify writes when a higher jet order cuts the candidate family
ORDER_NOTE = re.compile(r"minimum-norm candidate failed; order-\d+ conditions at t=0 cut "
                        r"the solution family from \d+ to \d+ dimensions$")


def rotation_curve(theta_src: str) -> ClosedFormCurve:
    th = tx.parse_expr(theta_src)
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    return ClosedFormCurve([[c, tx.Neg(s)], [s, c]], [[c, s], [tx.Neg(s), c]])


# ---------------------------------------------------------------------------
# extract_jet
# ---------------------------------------------------------------------------

def test_jet_of_quadex():
    jet = extract_jet(quadex_system(2.0, 0.5, 2.0))
    assert jet.q[2][0].coeff_distance(p2_field()) == 0.0
    expected_r = PolyField(2, {(0, (2, 0)): 2.0, (0, (0, 2)): -0.5, (1, (1, 1)): 4.0})
    assert jet.q[2][1].coeff_distance(expected_r) == 0.0
    assert np.all(jet.c[0] == 0.0) and np.all(jet.C[0] == 0.0)


def test_jet_of_autonomous_system():
    q = NonAutoSystem(2, constant=["0.5", "0"], linear=[["1", "2"], ["0", "-1"]],
                      terms={(0, (2, 0)): "3"})
    jet = extract_jet(q)
    assert np.all(jet.c[1] == 0.0)
    assert jet.q[2][1].is_zero()
    assert np.allclose(jet.C[0], [[1.0, 2.0], [0.0, -1.0]])


def test_jet_exponential_coefficient():
    q = NonAutoSystem(2, terms={(0, (2, 0)): "exp(3*t)"})
    jet = extract_jet(q)
    assert jet.q[2][0].terms == {(0, (2, 0)): 1.0}
    assert jet.q[2][1].terms == {(0, (2, 0)): 3.0}


def test_jet_pole_at_zero():
    q = NonAutoSystem(2, terms={(0, (2, 0)): "1/t"})
    with pytest.raises(tx.EvalError):
        extract_jet(q)


# ---------------------------------------------------------------------------
# solve_candidate_B
# ---------------------------------------------------------------------------

def test_quadex_solvability_condition():
    # solvable iff a1 = a3, and then B = diag(a1, (a1 + a2)/2).  The B entry
    # is fixed by matching coefficients of [B, p2] against r2; the exact
    # solve below over rationals is the adjudicating oracle.
    rng = np.random.default_rng(0)
    for _ in range(20):
        a1 = Fraction(int(rng.integers(-6, 7)), 2)
        a2 = Fraction(int(rng.integers(-6, 7)), 2)
        a3 = a1 if rng.random() < 0.5 else a1 + Fraction(int(rng.integers(1, 5)), 2)
        cand = solve_candidate_B(quadex_jet(float(a1), float(a2), float(a3)))

        p_terms = {(0, (2, 0)): Fraction(1), (0, (0, 2)): Fraction(-1),
                   (1, (1, 1)): Fraction(2)}
        r_terms = {(0, (2, 0)): a1, (0, (0, 2)): -a2, (1, (1, 1)): 2 * a3}
        rows, rhs = frac_candidate_system(p_terms, r_terms, 2)
        exact = frac_solve(rows, rhs)

        if a1 != a3:
            assert cand is None and exact is None
        else:
            assert cand is not None and exact is not None
            particular, kernel = exact
            assert not kernel and cand.kernel_dim == 0
            expected = np.array([[float(a1), 0.0], [0.0, float((a1 + a2) / 2)]])
            assert np.max(np.abs(cand.B - expected)) <= 1e-12
            assert np.max(np.abs(np.array([float(v) for v in particular])
                                 .reshape(2, 2) - expected)) == 0.0


def test_purely_linear_jet_gives_full_family():
    jet = JetData(2, [np.zeros(2), np.zeros(2)], [np.array([[0.0, 1.0], [0.0, 0.0]])],
                  {})
    cand = solve_candidate_B(jet)
    assert cand.unconstrained and cand.kernel_dim == 4
    assert np.allclose(cand.B, jet.C[0])


def test_image_characterization_excludes():
    # r2 = (0, x1^2) violates the membership conditions for [., p2]
    # (2c1 - c5 = 0 and c2 + 2c4 = 0), so no B exists
    r2 = PolyField(2, {(1, (2, 0)): 1.0})
    jet = JetData(2, [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))],
                  {2: [p2_field(), r2]})
    assert solve_candidate_B(jet) is None
    rows, rhs = frac_candidate_system(
        {(0, (2, 0)): Fraction(1), (0, (0, 2)): Fraction(-1), (1, (1, 1)): Fraction(2)},
        {(1, (2, 0)): Fraction(1)}, 2)
    assert frac_solve(rows, rhs) is None


def test_reconstruction_formula_for_bracket_image():
    # for r2 = (c1 x1^2 + c2 x1 x2 + c3 x2^2, c4 x1^2 + c5 x1 x2 + c6 x2^2)
    # inside the image of M -> [M, p2], membership means 2c1 - c5 = 0 and
    # c2 + 2c4 = 0, and the unique solution is
    #   B = [[c1, (c6 - c4)/2], [c4, (c1 - c3)/2]]
    rng = np.random.default_rng(12)
    for _ in range(20):
        b = rng.integers(-3, 4, size=4).astype(float)
        B = b.reshape(2, 2)
        r2 = lie_bracket(PolyField.from_linear(B), p2_field())
        c1 = r2.terms.get((0, (2, 0)), 0.0)
        c2 = r2.terms.get((0, (1, 1)), 0.0)
        c3 = r2.terms.get((0, (0, 2)), 0.0)
        c4 = r2.terms.get((1, (2, 0)), 0.0)
        c5 = r2.terms.get((1, (1, 1)), 0.0)
        c6 = r2.terms.get((1, (0, 2)), 0.0)
        assert 2 * c1 - c5 == 0.0
        assert c2 + 2 * c4 == 0.0
        rebuilt = np.array([[c1, (c6 - c4) / 2], [c4, (c1 - c3) / 2]])
        assert np.array_equal(rebuilt, B)
        jet = JetData(2, [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))],
                      {2: [p2_field(), r2]})
        cand = solve_candidate_B(jet)
        assert cand is not None and cand.kernel_dim == 0
        assert np.max(np.abs(cand.B - B)) <= 1e-12


def test_constant_part_conditions():
    # M c(0) = -c'(0) rows join the stack
    jet = JetData(2, [np.array([1.0, 0.0]), np.array([0.0, -2.0])],
                  [np.zeros((2, 2))], {})
    cand = solve_candidate_B(jet)
    assert cand is not None
    assert np.allclose(cand.M @ jet.c[0], -jet.c[1])


def test_solve_matches_rational_oracle_on_random_jets():
    from oracles import frac_bracket
    rng = np.random.default_rng(1)
    agree_nonempty = 0
    for trial in range(50):
        n = 2
        p_terms = {}
        for comp in range(n):
            for exps in ((2, 0), (1, 1), (0, 2)):
                if rng.random() < 0.7:
                    v = Fraction(int(rng.integers(-3, 4)))
                    if v != 0:
                        p_terms[(comp, exps)] = v
        c0 = [Fraction(int(rng.integers(-2, 3))), Fraction(int(rng.integers(-2, 3)))]
        if trial % 2 == 0:
            # consistent instance: r in the image of M -> [M, p], c' = -M c
            M0 = [[Fraction(int(rng.integers(-2, 3))) for _ in range(n)]
                  for _ in range(n)]
            r_terms = frac_bracket(M0, p_terms, n)
            cdot0 = [-sum(M0[i][b] * c0[b] for b in range(n)) for i in range(n)]
        else:
            r_terms = {}
            for comp in range(n):
                for exps in ((2, 0), (1, 1), (0, 2)):
                    if rng.random() < 0.7:
                        v = Fraction(int(rng.integers(-3, 4)))
                        if v != 0:
                            r_terms[(comp, exps)] = v
            cdot0 = [Fraction(int(rng.integers(-2, 3))),
                     Fraction(int(rng.integers(-2, 3)))]

        jet = JetData(
            n, [np.array([float(v) for v in c0]), np.array([float(v) for v in cdot0])],
            [np.zeros((n, n))],
            {2: [PolyField(n, {k: float(v) for k, v in p_terms.items()}),
                 PolyField(n, {k: float(v) for k, v in r_terms.items()})]})
        cand = solve_candidate_B(jet)

        rows, rhs = frac_candidate_system(p_terms, r_terms, n, c0, cdot0)
        exact = frac_solve(rows, rhs)

        if exact is None:
            assert cand is None
        else:
            assert cand is not None
            particular, kernel = exact
            assert cand.kernel_dim == len(kernel)
            assert satisfies(rows, rhs, cand.M.ravel())
            if kernel:
                # same kernel space: stacking both bases must not raise the rank
                K_float = np.array([K.ravel() for K in cand.kernel])
                K_exact = np.array([[float(v) for v in vec] for vec in kernel])
                stacked = np.vstack([K_float, K_exact])
                sv = np.linalg.svd(stacked, compute_uv=False)
                rank = int(np.sum(sv > 1e-8 * sv[0]))
                assert rank == len(kernel)
            agree_nonempty += 1
    assert agree_nonempty >= 10  # the sweep covers both branches


# ---------------------------------------------------------------------------
# verify_candidate
# ---------------------------------------------------------------------------

def test_verify_exp_quadratic_fixture():
    q = exp_quadratic_system()
    report = verify_candidate(q, np.diag([1.0, 2.0]))
    assert report.passed
    assert report.residuals["constant"] == 0.0
    assert report.residuals["per_degree"][2] <= 1e-9


def test_verify_wrong_candidate_fails():
    q = exp_quadratic_system()
    report = verify_candidate(q, np.diag([1.0, 1.0]))
    assert not report.passed and report.status == "ok"


def test_verify_autonomous_with_own_linear_part():
    B = np.array([[0.5, 0.2], [-0.1, 0.3]])
    q = NonAutoSystem(2, linear=[[str(B[i, j]) for j in range(2)] for i in range(2)],
                      terms={(0, (2, 0)): "1", (0, (0, 2)): "-1", (1, (1, 1)): "2"})
    report = verify_candidate(q, B)
    assert report.passed
    # A' = CA - AB with C = B keeps A = I, so coefficients must match exactly
    assert report.residuals["per_degree"][2] <= 1e-8


def test_verify_constant_only_system_fails_all_candidates():
    q = NonAutoSystem(2, constant=["t^2", "1"])
    for B in (np.zeros((2, 2)), np.diag([1.0, -1.0]),
              np.array([[0.0, 1.0], [1.0, 0.0]])):
        report = verify_candidate(q, B)
        assert not report.passed


def test_verify_undetermined_on_integration_failure():
    # a coefficient pole strictly between grid points: tables build, the
    # A-curve integration does not; failure is "undetermined", not a verdict
    q = NonAutoSystem(2, linear=[["0", "1/(t-0.505)"], ["0", "0"]])
    report = verify_candidate(q, np.zeros((2, 2)))
    assert report.status == "undetermined" and not report.passed
    assert any("aborted" in d for d in report.diagnostics)
    cert = identify(q)
    assert cert.status == "undetermined"


def test_degree_cap_enforced_at_construction():
    with pytest.raises(ValueError, match="degree cap"):
        NonAutoSystem(2, terms={(0, (7, 0)): "1"})


def test_negative_exponent_rejected_at_construction():
    with pytest.raises(ValueError, match=r"negative exponent in term \(3, -1\)"):
        NonAutoSystem(2, terms={(0, (3, -1)): "1"})
    with pytest.raises(ValueError, match="negative exponent"):
        NonAutoSystem.from_dict({"dim": 2, "terms": [
            {"component": 0, "exponents": [3, -1], "coeff": "1"}]})


def test_refinement_and_certification_measure_the_same_coefficients():
    # A = exp(-tB) pushes x1^2 e1 to (x1 + t x2)^2 e1; its x1 x2 and x2^2
    # coefficients 2t and t^2 are absent from q, so the residual is 2, at t = 1
    q = NonAutoSystem(2, terms={(0, (2, 0)): "1"})
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = verify_candidate(q, B)
    assert report.residuals["per_degree"][2] == 2.0
    ts = default_grid()
    const, per_degree = _grid_residuals(B, extract_jet(q), _GridTables(q, ts))
    assert const.shape == (len(ts), 2) and not const.any()
    assert per_degree[2].shape == (len(ts), 6)  # every (component, monomial) of degree 2
    assert np.max(np.abs(per_degree[2])) == report.residuals["per_degree"][2]


def grid_residuals_per_time(q, B, jet, tables):
    """_grid_residuals one grid time at a time: A(t_k) = T(t_k) exp(-t_k B)
    from mat_exp and, where C != 0, the value(t) of the flow T' = CT, T(0) = I,
    pushed forward matrix by matrix."""
    A_vals = [mat_exp(-t * B) for t in tables.ts]
    if tables.linear_max > 1e-12:
        T = solve_gauge_ode(q.linear, np.zeros((q.dim, q.dim)), np.eye(q.dim),
                            t_span=(float(tables.ts.min()), float(tables.ts.max())))
        A_vals = [T.value(float(t)) @ A_t for t, A_t in zip(tables.ts, A_vals)]
    const = np.array([c_t - A_t @ jet.c[0] for c_t, A_t in zip(tables.c, A_vals)])
    per_degree = {}
    for j, fields in sorted(jet.q.items()):
        pushed = [linear_pushforward(A_t, fields[0]).terms for A_t in A_vals]
        per_degree[j] = tables.q[j] - np.array(
            [[pf.get(key, 0.0) for key in tables.keys[j]] for pf in pushed])
    return const, per_degree


def test_grid_residuals_equal_the_per_time_reference():
    rng = np.random.default_rng(21)
    # n = 2 with a linear symmetry of x1^2 e1: the first-order candidate
    # family has a kernel, so identify raises the jet order
    f2 = PolyField.from_linear(rng.uniform(-1, 1, size=(2, 2))) \
        + PolyField(2, {(0, (2, 0)): 0.8})
    refining = gauge_transform(f2, ExponentialCurve(rng.uniform(-1, 1, size=(2, 2)), -1))
    f3 = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=3)) \
        + PolyField.from_linear(rng.uniform(-0.8, 0.8, size=(3, 3))) \
        + random_field(rng, 3, [2, 3], scale=0.7, density=0.6)
    n3 = gauge_transform(f3, ExponentialCurve(rng.uniform(-0.6, 0.6, size=(3, 3)), -1))
    around_zero = np.concatenate([np.linspace(-0.5, 0.0, 6), np.linspace(0.1, 1.0, 10)])
    cases = [(refining.closed_form, default_grid()), (n3.closed_form, default_grid()),
             (exp_quadratic_system(), default_grid()), (refining.closed_form, around_zero)]
    for q, ts in cases:
        jet = extract_jet(q)
        tables = _GridTables(q, ts)
        cand = solve_candidate_B(jet)
        assert cand is not None
        for B in (cand.B, cand.B + rng.uniform(-0.3, 0.3, size=(q.dim, q.dim))):
            const, per_degree = _grid_residuals(B, jet, tables)
            want_const, want_degree = grid_residuals_per_time(q, B, jet, tables)
            assert np.array_equal(const, want_const)
            assert per_degree.keys() == want_degree.keys()
            for j, res in per_degree.items():
                assert np.array_equal(res, want_degree[j])
    # the cases take both paths: T from a flow where C != 0, none where C == 0
    assert _GridTables(refining.closed_form, around_zero).linear_max > 0.0
    assert solve_candidate_B(extract_jet(refining.closed_form)).kernel_dim > 0


def test_grid_tables_equal_the_per_time_readers():
    # c, C and q[j] are column slices of q's table rows; a -0 literal, a
    # value -0.0 and a key q lacks all read as 0.0
    q = NonAutoSystem(2, constant=["-0", "-t"], linear=[["sin(t)", "-0.0"], ["0", "t^2"]],
                      terms={(0, (2, 0)): "1 + t", (1, (1, 1)): "-0", (0, (1, 2)): "-t"})
    ts = np.linspace(0.0, 1.0, 5)
    tables = _GridTables(q, ts)
    vals = [q._table(t) for t in ts]
    assert np.array_equal(tables.c, [q._constant_of(v) for v in vals])
    assert np.array_equal(tables.C, [q._linear_of(v) for v in vals])
    assert tables.keys.keys() == tables.q.keys() == {2, 3}
    for j, keys in tables.keys.items():
        want = [[q._terms_of(v, j).terms.get(key, 0.0) for key in keys] for v in vals]
        assert np.array_equal(tables.q[j], want)
    for table in (tables.c, tables.C, *tables.q.values()):
        assert not np.signbit(table[table == 0.0]).any()


def test_integration_failure_diagnostic_prints_a_plain_float():
    # C has a pole at t = 0.51, so the T flow underflows its step there
    q = NonAutoSystem(2, linear=[["0", "1/(t - 0.51)"], ["0", "0"]],
                      terms={(0, (2, 0)): "1"})
    cert = identify(q)
    assert cert.status == "undetermined"
    note = cert.diagnostics[-1]
    assert note.startswith("verification aborted: step size underflow at t=0.50999")
    assert "np." not in note
    float(note.rsplit("t=", 1)[1])


def test_a_curved_linear_part_is_gauge_at_tight_tolerances():
    # q = C(t) y + exp(-int_0^t C) y^2 is y' = y^2 transformed by A(t) =
    # exp(int_0^t C), B = 0.  Its grid reads T(t) = A(t) between steps of
    # the flow; a quartic interpolant was 7e-8 off there, and the verdict
    # not_gauge at tol 3e-8 and below
    C = "0.845401*sin(1.628445*t) - 0.705892*t - 0.621631"
    decay = "exp(0.845401/1.628445*(cos(1.628445*t) - 1) + 0.352946*t^2 + 0.621631*t)"
    q = NonAutoSystem(1, linear=[[C]], terms={(0, (2,)): decay})
    for points in (33, 101):
        cert = identify(q, grid=np.linspace(-1.0, 0.0, points), tol=1e-8)
        assert cert.status == "gauge"
        assert cert.B.tolist() == [[0.0]]
        assert cert.f.terms == {(0, (2,)): 1.0}
        assert cert.residuals["per_degree"][2] <= 1e-9


def test_factored_curve_equals_the_direct_flow():
    # A(t) = T(t) exp(-tB), T' = CT, T(0) = I, solves A' = CA - AB, A(0) = I;
    # against the flow of that equation, relative to the curve's size.  Both
    # are read through the 7th-order dense output of a tol-1e-10 solve, whose
    # error between steps the step control does not bound: 7e-11 relative on
    # [-1, 0] at seed 2555, n = 1 (5e-8 under the quartic one of DOPRI5)
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3),
           st.floats(min_value=-1.5, max_value=0.5), st.floats(min_value=0.3, max_value=2.0))
    @example(seed=2555, n=1, t0=-1.0, length=1.0)
    @example(seed=0, n=2, t0=-1.401298464324817e-45, length=1.0)  # a span just below 0
    def run(seed, n, t0, length):
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.uniform(-1, 1, size=(4, n, n))
        linear = [[f"{a[i, j]:.6f}*sin({2 * b[i, j]:.6f}*t) + {c[i, j]:.6f}*t + {d[i, j]:.6f}"
                   for j in range(n)] for i in range(n)]
        q = NonAutoSystem(n, linear=linear)
        ts = default_grid(t0, t0 + length)
        B = rng.uniform(-1.5, 1.5, size=(n, n))
        T = _GridTables(q, ts).fundamental()
        factored = T @ mat_exp(-ts[:, None, None] * B)
        direct = solve_gauge_ode(q.linear, B, np.eye(n), t_span=(ts[0], ts[-1])).sample(ts)
        bound = 1e-7 * (1.0 + np.max(np.abs(direct)))
        assert np.max(np.abs(factored - direct)) <= bound

    run()


def test_identify_integrates_one_flow_whatever_the_refinement(monkeypatch):
    # the candidate of every jet order that cuts the family reuses the one
    # fundamental matrix T
    from gaugekit import matcurve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return integrate_dense(*args, **kwargs)

    integrate_dense = matcurve.integrate_dense
    monkeypatch.setattr(matcurve, "integrate_dense", counting)
    rng = np.random.default_rng(21)
    f2 = PolyField.from_linear(rng.uniform(-1, 1, size=(2, 2))) \
        + PolyField(2, {(0, (2, 0)): 0.8})
    with_C = gauge_transform(f2, ExponentialCurve(rng.uniform(-1, 1, size=(2, 2)), -1))
    without_C = NonAutoSystem(2, constant=["cos(t)", "-sin(t)"])
    for q, flows in ((with_C.closed_form, 1), (without_C, 0)):
        calls.clear()
        cert = identify(q)
        assert cert.status == "gauge"
        assert any(ORDER_NOTE.match(d) for d in cert.diagnostics), cert.diagnostics
        assert len(calls) == flows, calls
    # a grid with negative times: one flow, integrated in each direction
    calls.clear()
    assert identify(with_C.closed_form, grid=np.linspace(-0.5, 1.0, 31)).status == "gauge"
    assert sorted(calls) == [(0.0, -0.5), (0.0, 1.0)]


def test_identify_compiles_the_systems_table_alone(monkeypatch):
    # C(t) of the T flow is read through q's own table: an identify that
    # raises the jet order for a system with C != 0 compiles that one table,
    # and fundamental() none
    rng = np.random.default_rng(21)
    f2 = PolyField.from_linear(rng.uniform(-1, 1, size=(2, 2))) \
        + PolyField(2, {(0, (2, 0)): 0.8})
    src = gauge_transform(f2, ExponentialCurve(rng.uniform(-1, 1, size=(2, 2)), -1))
    compiled = []
    compile_table = tx.compile_table

    def recording(exprs, numbering=None):
        compiled.append(list(exprs))
        return compile_table(compiled[-1], numbering)

    monkeypatch.setattr(tx, "compile_table", recording)
    q = NonAutoSystem.from_dict(src.closed_form.to_dict())
    cert = identify(q)
    assert cert.status == "gauge"
    assert any(ORDER_NOTE.match(d) for d in cert.diagnostics), cert.diagnostics
    assert len(compiled) == 1
    assert all(a is b for a, b in zip(compiled[0], q._coefficients()))
    tables = _GridTables(q, default_grid(-0.5, 1.0))
    compiled.clear()
    assert tables.fundamental() is not None
    assert compiled == []


def test_failing_fundamental_matrix_is_undetermined(monkeypatch):
    # the pole of C(t) at 0.51 lies between grid times: T's flow fails there
    q = NonAutoSystem(2, linear=[["0", "1/(t-0.51)"], ["0", "0"]], terms={(0, (2, 0)): "1"})
    cert = identify(q)
    assert cert.status == "undetermined"
    assert len(cert.diagnostics) == 1
    assert cert.diagnostics[0].startswith("verification aborted: step size underflow at t=")
    # the determinant-sign check of T is the check of every candidate's A
    from gaugekit import matcurve

    def lost(curve):
        raise NearSingularMatrixError("flow curve lost invertibility")

    monkeypatch.setattr(matcurve.FlowCurve, "assert_invertible_on_span", lost)
    q = NonAutoSystem(2, linear=[["0", "t"], ["0", "0"]], terms={(0, (2, 0)): "1"})
    report = verify_candidate(q, np.zeros((2, 2)))
    assert report.diagnostics == ["verification aborted: flow curve lost invertibility"]
    assert identify(q).status == "undetermined"


def test_nonfinite_curve_is_a_failed_check_not_a_pass():
    # exp(-tB) overflows for this B; the residual would be NaN, which no
    # tolerance comparison rejects
    q = NonAutoSystem(2, terms={(0, (2, 0)): "1"})
    B = np.array([[0.0, 1e300], [1e300, 0.0]])
    report = verify_candidate(q, B)
    assert report.status == "undetermined"
    assert report.diagnostics == ["verification aborted: matrix has non-finite entries"]
    q_lin = NonAutoSystem(2, linear=[["0", "t"], ["0", "0"]], terms={(0, (2, 0)): "1"})
    assert verify_candidate(q_lin, B).status == "undetermined"


def test_verification_aborts_at_the_first_singular_grid_time():
    # exp(-tB) for B = diag(40, -40) has sv ratio exp(-80 t), below 1e-12
    # from t = 0.35 on: the abort names the first such grid time's matrix
    q = exp_quadratic_system()
    B = np.diag([40.0, -40.0])
    ts = default_grid()
    messages = []
    for t in ts:
        try:
            check_invertible(mat_exp(-t * B))
        except NearSingularMatrixError as exc:
            messages.append(str(exc))
    assert len(set(messages)) > 1
    report = verify_candidate(q, B, grid=ts)
    assert report.status == "undetermined"
    assert report.diagnostics == [f"verification aborted: {messages[0]}"]
    report = verify_candidate(NonAutoSystem(2, constant=["t", "0"]), B, grid=ts)
    assert report.diagnostics == [f"verification aborted: {messages[0]}"]


# ---------------------------------------------------------------------------
# identify: end-to-end fixtures
# ---------------------------------------------------------------------------

def test_identify_exp_quadratic():
    cert = identify(exp_quadratic_system(), tol=1e-9)
    assert cert.status == "gauge"
    assert np.max(np.abs(cert.B - np.diag([1.0, 2.0]))) <= 1e-9
    assert cert.kernel_dim == 0
    assert cert.residuals["per_degree"][2] <= 1e-9
    expected_f = PolyField.from_linear(np.diag([1.0, 2.0])) + p2_field()
    assert cert.f.coeff_distance(expected_f) <= 1e-9


def test_identify_certificate_feeds_back_through_gauge_transform():
    q = exp_quadratic_system()
    cert = identify(q, tol=1e-9)
    ev = gauge_transform(cert.f, ExponentialCurve(cert.B, -1))
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-1, 1, size=2)
        want = q.eval(t, x)
        assert np.max(np.abs(ev(t, x) - want)) <= 1e-9 * (1 + np.max(np.abs(want)))


def test_identify_linear_family():
    q = NonAutoSystem(2, linear=[["0", "t"], ["0", "0"]])
    cert = identify(q)
    assert cert.status == "linear_family"
    assert cert.kernel_dim == 4
    # any B verifies (Remark-4.5 regime): spot-check three arbitrary choices
    for B in (np.zeros((2, 2)), np.diag([1.0, -2.0]),
              np.array([[0.0, 1.0], [-1.0, 0.5]])):
        report = verify_candidate(q, B)
        assert report.passed
        assert report.residuals["constant"] <= 1e-7


def test_identify_structurally_zero_terms_are_linear_family():
    q = NonAutoSystem(2, linear=[["0", "t"], ["0", "0"]],
                      terms={(0, (2, 0)): "0"})
    cert = identify(q)
    assert cert.status == "linear_family"


def test_identify_constant_only_rejection():
    # with C == 0 the order-2 constant rows read M c_1 = -2 c_2 in Taylor
    # coefficients, and here c_1 = 0 while c_2 = (1, 0)
    cert = identify(NonAutoSystem(2, constant=["t^2", "1"]))
    assert cert.status == "not_gauge"
    assert cert.diagnostics == ["order-2 conditions at t=0 are inconsistent"]


def test_identify_rejection_shortcut_without_integration():
    # degree-2 part vanishes at t=0 but not identically: rejected up front
    q = NonAutoSystem(2, terms={(0, (2, 0)): "t^2"})
    cert = identify(q)
    assert cert.status == "not_gauge"
    assert any("without integration" in d for d in cert.diagnostics)


def test_identify_inconsistent_jet():
    # r2 outside the bracket image: first-order conditions fail
    q = NonAutoSystem(2, terms={(0, (2, 0)): "1", (0, (0, 2)): "-1",
                                (1, (1, 1)): "2", (1, (2, 0)): "t"})
    cert = identify(q)
    assert cert.status == "not_gauge"
    assert any("first-order" in d for d in cert.diagnostics)


def test_certificate_json_shape():
    cert = identify(exp_quadratic_system(), tol=1e-9)
    d = cert.to_dict()
    assert d["status"] == "gauge"
    assert d["kernel_dim"] == 0
    assert d["grid"] == {"t0": 0.0, "t1": 1.0, "points": 33}
    assert set(d["residuals"]) == {"constant", "per_degree"}
    assert d["f"]["dim"] == 2
    assert isinstance(d["diagnostics"], list)


# ---------------------------------------------------------------------------
# identify: round trips
# ---------------------------------------------------------------------------

def test_roundtrip_vanishing_linear_part():
    rng = np.random.default_rng(4)
    done = 0
    for n in (2, 3):
        for _ in range(5):
            B = rng.uniform(-1, 1, size=(n, n))
            f = PolyField.from_constant(rng.uniform(-1, 1, size=n)) \
                + PolyField.from_linear(B) \
                + random_field(rng, n, [2], scale=1.0, density=0.9)
            ev = gauge_transform(f, ExponentialCurve(B, -1))
            assert ev.closed_form is not None
            # the linear parts cancel: C is identically zero
            assert all(e == tx.Lit(0.0) for row in ev.closed_form.linear for e in row)
            cert = identify(ev.closed_form, tol=1e-7)
            assert cert.status == "gauge"
            assert cert.residuals["per_degree"][2] <= 1e-7
            if cert.kernel_dim == 0:
                assert np.max(np.abs(cert.B - B)) <= 1e-7
                assert cert.f.coeff_distance(f) <= 1e-7
            done += 1
    assert done == 10


def test_roundtrip_rotation_curve():
    rng = np.random.default_rng(5)
    for theta in ("t", "t + 0.5*t^2", "0.3 + t", "sin(t)"):
        f = PolyField.from_linear(rng.uniform(-1, 1, size=(2, 2))) \
            + random_field(rng, 2, [2], scale=1.0, density=0.9)
        ev = gauge_transform(f, rotation_curve(theta))
        assert ev.closed_form is not None
        cert = identify(ev.closed_form, tol=1e-6)
        assert cert.status == "gauge", (theta, cert.diagnostics)
        assert cert.residuals["per_degree"][2] <= 1e-6


def test_roundtrip_resimulation():
    # certificate implies trajectories match: integrate f, map by A, compare
    # against integrating q itself
    rng = np.random.default_rng(6)
    B = np.array([[0.6, -0.3], [0.2, 0.1]])
    f = PolyField.from_linear(B) + random_field(rng, 2, [2], scale=0.8, density=1.0)
    ev = gauge_transform(f, ExponentialCurve(B, -1))
    q = ev.closed_form
    cert = identify(q, tol=1e-7)
    assert cert.status == "gauge"
    A = ExponentialCurve(cert.B, -1)
    for _ in range(20):
        x0 = rng.uniform(-0.3, 0.3, size=2)
        z = integrate(cert.f, x0, (0.0, 0.5), tol=1e-11, samples=50)
        w = integrate(q, A.value(0.0) @ x0, (0.0, 0.5), tol=1e-11, samples=50)
        mapped = np.array([A.value(float(t)) @ x for t, x in zip(z.times, z.states)])
        assert np.max(np.abs(w.states - mapped)) <= 1e-5


def test_identify_refinement_over_kernel_family():
    # constant part (cos t, -sin t): the first-order conditions pin only one
    # column of M, the minimum-norm member fails the grid, and the order-2
    # conditions cut the 2-dimensional family to the rotation generator
    q = NonAutoSystem(2, constant=["cos(t)", "-sin(t)"])
    cand = solve_candidate_B(extract_jet(q))
    assert cand.kernel_dim == 2
    report = verify_candidate(q, cand.B)
    assert not report.passed  # min-norm candidate alone is not the answer
    cert = identify(q)
    assert cert.status == "gauge"
    assert np.max(np.abs(cert.B - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-7
    assert cert.residuals["constant"] <= 1e-7
    assert cert.kernel_dim == 0
    assert any(ORDER_NOTE.match(d) and d.endswith("order-2 conditions at t=0 cut the "
                                                  "solution family from 2 to 0 dimensions")
               for d in cert.diagnostics), cert.diagnostics


def test_jet_rows_of_orders_1_to_3_hold_at_the_true_M():
    # for a transform of f by a curve with A(0) = I, B is f's linear part and
    # M = B - C(0); every row of every order holds there, also with C != 0
    # (worst seen over 480 such draws: 4.9e-15 of the scale below)
    from hypothesis import example, given, settings, strategies as st
    from gaugekit.identify import _stack_constraints

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3),
           st.booleans())
    @example(seed=1, n=1, rotation=False)
    @example(seed=2, n=2, rotation=False)
    @example(seed=3, n=2, rotation=True)
    @example(seed=4, n=3, rotation=False)
    def run(seed, n, rotation):
        rng = np.random.default_rng(seed)
        B = rng.uniform(-1, 1, size=(n, n))
        f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=n)) + PolyField.from_linear(B) \
            + random_field(rng, n, [2], scale=0.8, density=0.7)
        if rotation and n == 2:
            w, a = rng.uniform(-1.5, 1.5, size=2)
            curve = rotation_curve(f"{w:.6f}*t + {a:.6f}*sin(t)^2")
        else:
            curve = ExponentialCurve(rng.uniform(-1, 1, size=(n, n)), -1)
        q = gauge_transform(f, curve).closed_form
        jet = extract_jet(q, 3)
        assert jet.order == 3 and len(jet.C) == 3
        assert np.any(jet.C[0] != 0.0)
        G, rhs = _stack_constraints(jet)
        M = (B - jet.C[0]).ravel()
        scale = 1.0 + np.max(np.abs(G), initial=0.0) * np.max(np.abs(M)) + np.max(np.abs(rhs))
        assert np.max(np.abs(G @ M - rhs)) <= 1e-12 * scale

    run()


def test_identify_pins_a_constant_only_family_at_order_3():
    # f = e1 + Mx transformed by exp(-tM): C == 0 and c(t) = exp(-tM) e1, so
    # order k adds the rows M c_(k-1) = -k c_k, and the Krylov vectors
    # e1, M e1, M^2 e1 fix M at order 3
    M = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, 0.0], [0.2, 0.5, -0.4]])
    f = PolyField.from_constant([1.0, 0.0, 0.0]) + PolyField.from_linear(M)
    q = gauge_transform(f, ExponentialCurve(M, -1)).closed_form
    assert solve_candidate_B(extract_jet(q, 2)).kernel_dim == 3
    assert solve_candidate_B(extract_jet(q, 3)).kernel_dim == 0
    cert = identify(q)
    assert cert.status == "gauge", cert.diagnostics
    assert np.max(np.abs(cert.B - M)) <= 1e-12
    assert cert.diagnostics[-1].endswith(
        "order-3 conditions at t=0 cut the solution family from 3 to 0 dimensions")


def test_identify_is_undetermined_when_the_family_outlives_the_order_cap():
    # the t^8 coefficient is invisible to the jet up to order 7; orders
    # 1..5 (n^2 + 1) leave the kernel of [., x1^2 e1], and only the order-8
    # rows would show the system is no gauge transform
    q = NonAutoSystem(2, terms={(0, (2, 0)): "1", (1, (0, 2)): "t^8"})
    cert = identify(q)
    assert cert.status == "undetermined"
    assert cert.kernel_dim == solve_candidate_B(extract_jet(q)).kernel_dim > 0
    assert cert.diagnostics == [
        f"minimum-norm candidate failed and a {cert.kernel_dim}-dimensional "
        "solution family remains after the conditions of order 5"]
    assert solve_candidate_B(extract_jet(q, 7)) is not None
    assert solve_candidate_B(extract_jet(q, 8)) is None


@pytest.mark.parametrize("system, B", [
    # coefficients far below any absolute threshold are still parts of q
    (NonAutoSystem(1, terms={(0, (2,)): "1e-13*exp(t)"}), 1.0),
    (NonAutoSystem(1, constant=["1e-13*exp(-t)"]), 1.0),
])
def test_identify_tiny_coefficients_are_not_zero(system, B):
    cert = identify(system)
    assert cert.status == "gauge", cert.diagnostics
    assert np.max(np.abs(cert.B - B)) <= 1e-12


def test_identify_n3_closed_form_roundtrip():
    # 3x3 closed-form curve with an adjugate-built symbolic inverse
    rng = np.random.default_rng(13)
    entries = [["1", "t", "0"], ["0", "1", "sin(t)"], ["0.5*t", "0", "1"]]
    A = ClosedFormCurve(entries)
    f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=3)) \
        + PolyField.from_linear(rng.uniform(-0.8, 0.8, size=(3, 3))) \
        + random_field(rng, 3, [2], scale=0.7, density=0.8)
    ev = gauge_transform(f, A)
    assert ev.closed_form is not None
    cert = identify(ev.closed_form, tol=1e-6)
    assert cert.status == "gauge", cert.diagnostics
    assert cert.residuals["constant"] <= 1e-6
    assert all(v <= 1e-6 for v in cert.residuals["per_degree"].values())


def test_diff_t_matches_jet_derivatives():
    # the system of the coefficients' t-derivatives, at t = 0
    q = exp_quadratic_system()
    dq = NonAutoSystem(q.dim, terms={key: tx.diff_expr(e) for key, e in q.terms.items()})
    jet = extract_jet(q)
    for j, fields in jet.q.items():
        assert dq.degree_part_at(0.0, j).coeff_distance(fields[1]) == 0.0


# from order 1 on, the Taylor walk and diff_expr-then-eval_expr round
# differently: over 2,971 random depth-5 expressions and times the worst gap
# seen is 3.6e-15 (1 + |reference|) at order 1 and 2.0e-14 at order 2
JET_BOUND = 1e-11


def _reference_series(e, order: int) -> list:
    """e^(k)(0) / k! for k = 0..order, differentiating and evaluating e alone."""
    out = [tx.eval_expr(e, 0.0)]
    for k in range(1, order + 1):
        e = tx.diff_expr(e)
        out.append(tx.eval_expr(e, 0.0) / math.factorial(k))
    return out


def _reference_jet(q, order: int):
    """(c, C, q) series of every coefficient of q, by _reference_series."""
    return ([_reference_series(e, order) for e in q.constant],
            [[_reference_series(e, order - 1) for e in row] for row in q.linear],
            {key: _reference_series(e, order) for key, e in q.terms.items()})


def _assert_jet_matches(jet, want):
    const, linear, terms = want
    # order 0 is read from the compiled table, bit for bit
    assert list(jet.c[0]) == [s[0] for s in const]
    assert jet.C[0].tolist() == [[s[0] for s in row] for row in linear]
    for key, s in terms.items():
        assert jet.q[sum(key[1])][0].terms.get(key, 0.0) == s[0]
    got, ref = [], []
    for k in range(1, jet.order + 1):
        got += list(jet.c[k]) + [jet.q[sum(key[1])][k].terms.get(key, 0.0) for key in terms]
        ref += [s[k] for s in const] + [s[k] for s in terms.values()]
        if k < jet.order:
            got += jet.C[k].ravel().tolist()
            ref += [s[k] for row in linear for s in row]
    got, ref = np.array(got), np.array(ref)
    assert np.all(np.abs(got - ref) <= JET_BOUND * (1.0 + np.abs(ref))), (got, ref)


def test_jet_matches_diff_then_eval_on_transformed_n3_system():
    rng = np.random.default_rng(21)
    B = np.array([[0.2, -0.9, 0.3], [0.8, 0.1, -0.4], [-0.3, 0.5, -0.2]])
    f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=3)) \
        + PolyField.from_linear(B) + random_field(rng, 3, [2, 3], scale=0.8, density=0.9)
    q = gauge_transform(f, ExponentialCurve(B, -1)).closed_form
    assert q is not None
    for order in (1, 2):
        _assert_jet_matches(extract_jet(q, order), _reference_jet(q, order))


def test_jet_matches_diff_then_eval_on_corpus():
    rng = np.random.default_rng(8)
    keys = [(0, (2, 0)), (0, (1, 1)), (1, (0, 2)), (1, (2, 0))]
    checked = 0
    for _ in range(150):
        a, b = random_time_expr(rng, 4), random_time_expr(rng, 3)
        coeffs = [a, tx.Mul(a, b), tx.Add(b, a), tx.Fun("cos", a)]
        q = NonAutoSystem(2, constant=[tx.Sub(a, b), b], linear=[[a, "0"], [b, tx.Mul(a, a)]],
                          terms=dict(zip(keys, coeffs)))
        for order in (1, 2):
            try:
                want = _reference_jet(q, order)
            except (tx.EvalError, OverflowError):
                with pytest.raises((tx.EvalError, OverflowError)):
                    extract_jet(q, order)
                continue
            _assert_jet_matches(extract_jet(q, order), want)
            checked += 1
    assert checked > 200


def _jet_bits(jet):
    """Every number of a jet, as bytes: -0.0 and 0.0 differ."""
    return ([a.tobytes() for a in jet.c], [a.tobytes() for a in jet.C],
            {j: [repr(sorted(f.terms.items())) for f in fields]
             for j, fields in jet.q.items()})


def test_jet_of_a_reparsed_system_is_bit_identical():
    # the transform shares subtrees by identity, the parser repeats them
    # as separate objects: one numbering by structure reads both alike
    rng = np.random.default_rng(21)
    B = np.array([[0.2, -0.9, 0.3], [0.8, 0.1, -0.4], [-0.3, 0.5, -0.2]])
    f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=3)) \
        + PolyField.from_linear(B) + random_field(rng, 3, [2, 3], scale=0.8, density=0.9)
    q = gauge_transform(f, ExponentialCurve(B, -1)).closed_form
    parsed = NonAutoSystem.from_dict(q.to_dict())
    for order in (0, 1, 2, 3):
        assert _jet_bits(extract_jet(parsed, order)) == _jet_bits(extract_jet(q, order))


def test_coefficient_deeper_than_the_recursion_limit_identifies():
    # a parsed 1,200-summand sum nests 1,200 deep; its value is 1 at every t
    src = "+".join(["1"] + ["0*t"] * 1199)
    q = NonAutoSystem.from_dict({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": src}]})
    cert = identify(q)
    assert cert.status == "gauge", cert.diagnostics
    assert cert.f.terms == {(0, (2,)): 1.0}


def test_long_coefficient_loads_and_identifies():
    # a 500-term sum nests 500 deep when parsed
    q = NonAutoSystem.from_dict({"dim": 1, "terms": [
        {"component": 0, "exponents": [2], "coeff": "+".join(["t"] * 500)}]})
    assert q.eval(0.5, [2.0])[0] == 250.0 * 4.0
    cert = identify(q)
    assert cert.status == "not_gauge"


def test_identify_rejects_perturbed_roundtrips():
    # tampering with one coefficient of a genuine gauge transform must break
    # the certificate: with vanishing linear part the coefficient identities
    # are rigid
    rng = np.random.default_rng(14)
    rejected = 0
    for _ in range(10):
        B = rng.uniform(-1, 1, size=(2, 2))
        f = PolyField.from_linear(B) + random_field(rng, 2, [2], density=1.0)
        ev = gauge_transform(f, ExponentialCurve(B, -1))
        q = ev.closed_form
        assert q is not None
        key = list(q.terms)[rng.integers(0, len(q.terms))]
        terms = dict(q.terms)
        terms[key] = tx.emul(terms[key], tx.parse_expr("1 + 0.3*t^2"))
        cert = identify(NonAutoSystem(2, q.constant, q.linear, terms))
        if cert.status == "not_gauge":
            rejected += 1
    assert rejected == 10


def test_spanning_idempotents_imply_unique_candidate():
    # when the idempotents of p span the space, the bracket map M -> [M, p]
    # is injective, so the candidate solve has a zero-dimensional kernel
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 10:
        p = random_field(rng, 2, [2], density=1.0)
        if p.is_zero():
            continue
        res = find_idempotents(p, starts=80, seed=int(rng.integers(0, 10**6)))
        if not (res.conclusive and res.spanning):
            continue
        M0 = rng.uniform(-1, 1, size=(2, 2))
        jet = JetData(2, [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))],
                      {2: [p, lie_bracket(PolyField.from_linear(M0), p)]})
        cand = solve_candidate_B(jet)
        assert cand is not None
        assert cand.kernel_dim == 0
        assert np.max(np.abs(cand.B - M0)) <= 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# remove_linear_part
# ---------------------------------------------------------------------------

def test_remove_linear_part_trivial():
    q = exp_quadratic_system()  # C = 0
    red = remove_linear_part(q)
    for k, t in enumerate(red.grid):
        assert np.allclose(red.constant_samples[k], 0.0)
        assert red.field_samples[2][k].coeff_distance(
            q.degree_part_at(float(t), 2)) <= 1e-9


def test_reduced_jet_formula_exact():
    C0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = NonAutoSystem(2, linear=[["0", "-1"], ["1", "0"]],
                      terms={(0, (2, 0)): "1+t", (0, (0, 2)): "-1",
                             (1, (1, 1)): "2*exp(t)"})
    red = remove_linear_part(q, grid=np.linspace(0, 0.5, 9))
    jet = extract_jet(q)
    want = jet.q[2][1] + lie_bracket(PolyField.from_linear(C0), jet.q[2][0])
    assert red.jet.q[2][1].coeff_distance(want) == 0.0
    assert np.all(red.jet.C[0] == 0.0)
    assert red.jet.q[2][0].coeff_distance(jet.q[2][0]) == 0.0


def test_reduced_solve_agrees_with_direct_pipeline():
    # identification through the reduced jet recovers the same B
    rng = np.random.default_rng(7)
    f = PolyField.from_linear(rng.uniform(-1, 1, size=(2, 2))) \
        + random_field(rng, 2, [2], scale=1.0, density=1.0)
    ev = gauge_transform(f, rotation_curve("t + 0.2*t^2"))
    q = ev.closed_form
    direct = solve_candidate_B(extract_jet(q))
    red = remove_linear_part(q)
    reduced = solve_candidate_B(red.jet)
    assert direct is not None and reduced is not None
    assert np.max(np.abs(direct.B - reduced.B)) <= 1e-7


def test_reduced_samples_match_pushforward_for_rotation():
    # with a known fundamental matrix the samples are checkable directly:
    # C constant = J has T(t) = exp(tJ)
    q = NonAutoSystem(2, linear=[["0", "-1"], ["1", "0"]],
                      terms={(0, (2, 0)): "1"})
    red = remove_linear_part(q, grid=np.linspace(0, 1, 5))
    from gaugekit.polyfield import linear_pushforward
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for k, t in enumerate(red.grid):
        Tinv = mat_exp(-float(t) * J)
        want = linear_pushforward(Tinv, q.degree_part_at(float(t), 2))
        assert red.field_samples[2][k].coeff_distance(want) <= 1e-8


# ---------------------------------------------------------------------------
# find_idempotents
# ---------------------------------------------------------------------------

def test_idempotents_of_p2():
    res = find_idempotents(p2_field(), starts=200, seed=42)
    assert res.conclusive and res.spanning
    assert len(res.points) == 3
    expected = [np.array([0.5, -0.5j]), np.array([0.5, 0.5j]),
                np.array([1.0, 0.0j])]
    for got, want in zip(res.points, expected):
        assert np.max(np.abs(got - want)) <= 1e-8


def test_idempotents_degenerate_continuum():
    p = PolyField(2, {(0, (2, 0)): 1.0, (1, (1, 1)): 1.0})
    res = find_idempotents(p, starts=200, seed=0)
    assert not res.conclusive
    for c in res.points:
        assert abs(c[0] - 1.0) <= 1e-6  # everything sits on the line c1 = 1


def test_idempotents_zero_field():
    res = find_idempotents(PolyField.zero(2), starts=50, seed=0)
    assert res.points == [] and not res.spanning and not res.conclusive


def test_idempotents_validation():
    with pytest.raises(ValueError, match="dim"):
        find_idempotents(PolyField(4, {(0, (2, 0, 0, 0)): 1.0}))
    with pytest.raises(ValueError, match="homogeneous"):
        find_idempotents(p2_field() + PolyField.from_linear(np.eye(2)))


# ---------------------------------------------------------------------------
# system JSON
# ---------------------------------------------------------------------------

def test_system_json_roundtrip():
    q = exp_quadratic_system()
    d = q.to_dict()
    q2 = NonAutoSystem.from_dict(d)
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(-1, 1, size=2)
        assert np.allclose(q.eval(t, x), q2.eval(t, x))


def test_system_json_errors_name_location():
    with pytest.raises(ValueError, match=r"linear\[0\]\[1\]"):
        NonAutoSystem.from_dict({"dim": 2, "linear": [["0", "exp(t"], ["0", "0"]]})
    with pytest.raises(ValueError, match=r"terms\[0\]\.coeff"):
        NonAutoSystem.from_dict({"dim": 2, "terms": [
            {"component": 0, "exponents": [2, 0], "coeff": "foo(t)"}]})
    with pytest.raises(ValueError, match="degree"):
        NonAutoSystem(2, terms={(0, (1, 0)): "1"})


def _table_source(exprs: list) -> str:
    """The source that compile_table generates for `exprs`."""
    sources = []
    real = tx._define

    def recording(src, name, namespace):
        sources.append(src)
        return real(src, name, namespace)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tx, "_define", recording)
        tx.compile_table(exprs)
    return sources[0]


def _in_file_order(q: NonAutoSystem) -> list:
    return q.constant + [e for row in q.linear for e in row] \
        + [q.terms[key] for key in sorted(q.terms)]


def test_written_systems_read_back_to_their_trees():
    # systems of n = 1-3 whose coefficients share subtrees by identity, some
    # of them chains thousands deep: format 2 writes each shared subtree
    # once, and reading it back gives the printed coefficients, the table
    # source and the bytes that were written; format 1 still reads them
    import json
    from hypothesis import given, settings, strategies as st
    from gaugekit.cli import dumps
    from oracles import v1_layout

    chains = [lambda e: tx.Add(e, tx.T), lambda e: tx.Fun("cos", e),
              lambda e: tx.Mul(tx.Lit(0.5), e), lambda e: tx.Neg(e)]
    combine = [tx.eadd, tx.esub, tx.emul, tx.ediv,
               lambda a, b: tx.efun("sin", a), lambda a, b: tx.epow(a, 2)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([0, 1500, 4000]),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99), st.integers(0, 99)),
                    max_size=8))
    def run(n, seed, depth, steps):
        rng = np.random.default_rng(seed)
        pool = [tx.T] + [random_time_expr(rng, 3) for _ in range(4)]
        for op, i, j in steps:
            try:
                pool.append(combine[op](pool[i % len(pool)], pool[j % len(pool)]))
            except (ZeroDivisionError, OverflowError):  # a literal 0 or a huge exp
                pass
        # a link over a literal would not survive the text, which folds it
        chain = tx.eadd(pool[-1], tx.T)
        for k in rng.integers(0, len(chains), size=depth):
            chain = chains[k](chain)
        pool += [chain, tx.emul(chain, pool[1])]

        def pick():
            return pool[int(rng.integers(0, len(pool)))]

        # x_i^2 in component i, and a cubic in the first
        terms = {(i, tuple(2 * int(v == i) for v in range(n))): pick() for i in range(n)}
        terms[(0, (3,) if n == 1 else (1,) + (0,) * (n - 2) + (2,))] = pick()
        q = NonAutoSystem(n, [pick() for _ in range(n)],
                          [[pick() for _ in range(n)] for _ in range(n)], terms)
        written = dumps(q.to_dict())
        back = NonAutoSystem.from_dict(json.loads(written))
        want = _in_file_order(q)
        got = _in_file_order(back)
        assert [tx.format_expr(e) for e in got] == [tx.format_expr(e) for e in want]
        assert _table_source(got) == _table_source(want)
        assert dumps(back.to_dict()) == written
        v1 = NonAutoSystem.from_dict(json.loads(dumps(v1_layout(q))))
        assert _table_source(_in_file_order(v1)) == _table_source(want)

    run()


def test_defs_read_back_as_one_object_each():
    q = NonAutoSystem.from_dict({"format": 2, "dim": 2, "defs": ["exp(t)", "e0*e0+t"],
                                 "constant": ["e1", "-e1"],
                                 "linear": [["e0", "0"], ["0", "e1^2"]]})
    (a, b), row0, row1 = q.constant, q.linear[0], q.linear[1]
    assert a is b.arg is row1[1].base
    assert a.left.left is a.left.right is row0[0]
    assert tx.format_expr(row1[1]) == "(exp(t)*exp(t)+t)^2"
    # a file without "format" reads as format 1, where e0 is no name
    with pytest.raises(ValueError, match=r"constant\[0\]: unknown function 'e0'"):
        NonAutoSystem.from_dict({"dim": 1, "constant": ["e0"]})

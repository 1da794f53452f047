from fractions import Fraction

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit.gauge import gauge_transform
from gaugekit.identify import (
    JetData, NonAutoSystem, extract_jet, find_idempotents,
    identify, remove_linear_part, solve_candidate_B, verify_candidate,
)
from gaugekit.matcurve import ClosedFormCurve, ExponentialCurve, mat_exp
from gaugekit.odeint import integrate
from gaugekit.polyfield import PolyField, lie_bracket

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
    return JetData(2, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                   {2: p2_field()}, {2: r2})


def exp_quadratic_system() -> NonAutoSystem:
    """The gauge transform of diag(1,2)x + p2(x) by exp(-t diag(1,2))."""
    return NonAutoSystem(2, terms={
        (0, (2, 0)): "exp(t)",
        (0, (0, 2)): "-exp(3*t)",
        (1, (1, 1)): "2*exp(t)",
    })


def rotation_curve(theta_src: str) -> ClosedFormCurve:
    th = tx.parse_expr(theta_src)
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    return ClosedFormCurve([[c, tx.Neg(s)], [s, c]], [[c, s], [tx.Neg(s), c]])


# ---------------------------------------------------------------------------
# extract_jet
# ---------------------------------------------------------------------------

def test_jet_of_quadex():
    jet = extract_jet(quadex_system(2.0, 0.5, 2.0))
    assert jet.p[2].coeff_distance(p2_field()) == 0.0
    expected_r = PolyField(2, {(0, (2, 0)): 2.0, (0, (0, 2)): -0.5, (1, (1, 1)): 4.0})
    assert jet.r[2].coeff_distance(expected_r) == 0.0
    assert np.all(jet.c0 == 0.0) and np.all(jet.C0 == 0.0)


def test_jet_of_autonomous_system():
    q = NonAutoSystem(2, constant=["0.5", "0"], linear=[["1", "2"], ["0", "-1"]],
                      terms={(0, (2, 0)): "3"})
    jet = extract_jet(q)
    assert np.all(jet.cdot0 == 0.0)
    assert jet.r[2].is_zero()
    assert np.allclose(jet.C0, [[1.0, 2.0], [0.0, -1.0]])


def test_jet_exponential_coefficient():
    q = NonAutoSystem(2, terms={(0, (2, 0)): "exp(3*t)"})
    jet = extract_jet(q)
    assert jet.p[2].terms == {(0, (2, 0)): 1.0}
    assert jet.r[2].terms == {(0, (2, 0)): 3.0}


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
    jet = JetData(2, np.zeros(2), np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                  {}, {})
    cand = solve_candidate_B(jet)
    assert cand.unconstrained and cand.kernel_dim == 4
    assert np.allclose(cand.B, jet.C0)


def test_image_characterization_excludes():
    # r2 = (0, x1^2) violates the membership conditions for [., p2]
    # (2c1 - c5 = 0 and c2 + 2c4 = 0), so no B exists
    r2 = PolyField(2, {(1, (2, 0)): 1.0})
    jet = JetData(2, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                  {2: p2_field()}, {2: r2})
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
        jet = JetData(2, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                      {2: p2_field()}, {2: r2})
        cand = solve_candidate_B(jet)
        assert cand is not None and cand.kernel_dim == 0
        assert np.max(np.abs(cand.B - B)) <= 1e-12


def test_constant_part_conditions():
    # M c(0) = -c'(0) rows join the stack
    jet = JetData(2, np.array([1.0, 0.0]), np.array([0.0, -2.0]),
                  np.zeros((2, 2)), {}, {})
    cand = solve_candidate_B(jet)
    assert cand is not None
    assert np.allclose(cand.M @ jet.c0, -jet.cdot0)


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
            n, np.array([float(v) for v in c0]), np.array([float(v) for v in cdot0]),
            np.zeros((n, n)),
            {2: PolyField(n, {k: float(v) for k, v in p_terms.items()})},
            {2: PolyField(n, {k: float(v) for k, v in r_terms.items()})})
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
    cert = identify(NonAutoSystem(2, constant=["t^2", "1"]))
    assert cert.status == "not_gauge"


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
    # constant part (cos t, -sin t): the t=0 conditions pin only one column of
    # M, the minimum-norm member fails the grid, and the Gauss-Newton pass
    # over the 2-dimensional family must land on the rotation generator
    q = NonAutoSystem(2, constant=["cos(t)", "-sin(t)"])
    cand = solve_candidate_B(extract_jet(q))
    assert cand.kernel_dim == 2
    report = verify_candidate(q, cand.B)
    assert not report.passed  # min-norm candidate alone is not the answer
    cert = identify(q)
    assert cert.status == "gauge"
    assert np.max(np.abs(cert.B - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-7
    assert cert.residuals["constant"] <= 1e-7
    assert any("refining" in d for d in cert.diagnostics)


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
    q = exp_quadratic_system()
    dq = q.diff_t()
    jet = extract_jet(q)
    for j, r_j in jet.r.items():
        assert dq.degree_part_at(0.0, j).coeff_distance(r_j) == 0.0


def _reference_jet_derivatives(q):
    """cdot0 and r by differentiating and evaluating each coefficient alone."""
    cdot0 = [tx.eval_expr(tx.diff_expr(e), 0.0) for e in q.constant]
    r = {key: tx.eval_expr(tx.diff_expr(e), 0.0) for key, e in q.terms.items()}
    return cdot0, {key: v for key, v in r.items() if v != 0.0}


def _jet_derivatives(jet):
    return jet.cdot0.tolist(), {key: v for f in jet.r.values() for key, v in f.terms.items()}


def test_jet_matches_diff_then_eval_on_transformed_n3_system():
    rng = np.random.default_rng(21)
    B = np.array([[0.2, -0.9, 0.3], [0.8, 0.1, -0.4], [-0.3, 0.5, -0.2]])
    f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=3)) \
        + PolyField.from_linear(B) + random_field(rng, 3, [2, 3], scale=0.8, density=0.9)
    q = gauge_transform(f, ExponentialCurve(B, -1)).closed_form
    assert q is not None
    jet = extract_jet(q)
    assert repr(_jet_derivatives(jet)) == repr(_reference_jet_derivatives(q))
    # the values at t = 0 come from the compiled table, bit for bit as well
    assert list(jet.c0) == [tx.eval_expr(e, 0.0) for e in q.constant]
    assert jet.C0.tolist() == [[tx.eval_expr(e, 0.0) for e in row] for row in q.linear]


def test_jet_matches_diff_then_eval_on_corpus():
    rng = np.random.default_rng(8)
    keys = [(0, (2, 0)), (0, (1, 1)), (1, (0, 2)), (1, (2, 0))]
    checked = 0
    for _ in range(150):
        a, b = random_time_expr(rng, 4), random_time_expr(rng, 3)
        coeffs = [a, tx.Mul(a, b), tx.Add(b, a), tx.Fun("cos", a)]
        q = NonAutoSystem(2, constant=[tx.Sub(a, b), b], terms=dict(zip(keys, coeffs)))
        try:
            want = _reference_jet_derivatives(q)
        except (tx.EvalError, OverflowError):
            with pytest.raises((tx.EvalError, OverflowError)):
                extract_jet(q)
            continue
        assert repr(_jet_derivatives(extract_jet(q))) == repr(want)
        checked += 1
    assert checked > 100


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
        jet = JetData(2, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                      {2: p}, {2: lie_bracket(PolyField.from_linear(M0), p)})
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
    want = jet.r[2] + lie_bracket(PolyField.from_linear(C0), jet.p[2])
    assert red.jet.r[2].coeff_distance(want) == 0.0
    assert np.all(red.jet.C0 == 0.0)
    assert red.jet.p[2].coeff_distance(jet.p[2]) == 0.0


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

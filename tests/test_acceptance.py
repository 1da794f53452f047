"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from gaugekit import timexpr as tx
from gaugekit._rk import rk_fixed_step
from gaugekit.gauge import gauge_transform, mixed_bracket_residual, frozen_transform_field
from gaugekit.identify import (
    JetData, NonAutoSystem, find_idempotents, identify,
    solve_candidate_B, verify_candidate,
)
from gaugekit.matcurve import (
    ClosedFormCurve, ExponentialCurve, mat_exp, solve_gauge_ode,
)
from gaugekit.odeint import integrate, verify_correspondence
from gaugekit.polyfield import PolyField, lie_bracket, linear_pushforward

from conftest import expr_corpus, random_field
from oracles import frac_candidate_system, frac_solve


def _report(number: int, label: str, passed: bool, elapsed: float | None = None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}{stamp}  {label}")
    assert passed, f"criterion {number}: {label}"


def p2_field() -> PolyField:
    return PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})


def rotation_curve(theta_src: str) -> ClosedFormCurve:
    th = tx.parse_expr(theta_src)
    c, s = tx.Fun("cos", th), tx.Fun("sin", th)
    return ClosedFormCurve([[c, tx.Neg(s)], [s, c]], [[c, s], [tx.Neg(s), c]])


def p2_exact_solution(v, t):
    den = (1 - t * v[0]) ** 2 + (t * v[1]) ** 2
    return np.array([v[0] - t * (v[0] ** 2 + v[1] ** 2), v[1]]) / den


def test_criterion_01_bracket_formula():
    # [B, p2] against the displayed expansion, one elementary matrix at a time
    start = time.perf_counter()

    def expected(b1, b2, b3, b4):
        return {
            (0, (2, 0)): b1, (0, (1, 1)): -2.0 * b3, (0, (0, 2)): b1 - 2.0 * b4,
            (1, (2, 0)): b3, (1, (1, 1)): 2.0 * b1, (1, (0, 2)): 2.0 * b2 + b3,
        }

    ok = True
    for b in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        B = np.array(b, dtype=float).reshape(2, 2)
        got = lie_bracket(PolyField.from_linear(B), p2_field()).terms
        want = {k: v for k, v in expected(*map(float, b)).items() if v != 0.0}
        ok = ok and got == want
    elapsed = time.perf_counter() - start
    _report(1, "bracket formula, elementary matrices, exact equality",
            ok and elapsed < 1.0, elapsed)


def test_criterion_02_quadratic_identification():
    start = time.perf_counter()
    q = NonAutoSystem(2, terms={(0, (2, 0)): "exp(t)", (0, (0, 2)): "-exp(3*t)",
                                (1, (1, 1)): "2*exp(t)"})
    cert = identify(q, tol=1e-9)
    ok = (cert.status == "gauge"
          and np.max(np.abs(cert.B - np.diag([1.0, 2.0]))) <= 1e-9
          and cert.kernel_dim == 0
          and cert.residuals["constant"] <= 1e-9
          and all(v <= 1e-9 for v in cert.residuals["per_degree"].values()))
    elapsed = time.perf_counter() - start
    _report(2, "quadratic fixture identified: B=diag(1,2), residuals <= 1e-9",
            ok and elapsed < 5.0, elapsed)


def test_criterion_03_solvability_condition():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    ok = True
    for k in range(20):
        a1 = Fraction(int(rng.integers(-6, 7)), 2)
        a2 = Fraction(int(rng.integers(-6, 7)), 2)
        a3 = a1 if k % 2 == 0 else a1 + Fraction(int(rng.integers(1, 5)), 2)
        r2 = PolyField(2, {(0, (2, 0)): float(a1), (0, (0, 2)): -float(a2),
                           (1, (1, 1)): 2 * float(a3)})
        jet = JetData(2, [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))],
                      {2: [p2_field(), r2]})
        cand = solve_candidate_B(jet)

        # brute-force symbolic oracle over the four unknown entries
        p_terms = {(0, (2, 0)): Fraction(1), (0, (0, 2)): Fraction(-1),
                   (1, (1, 1)): Fraction(2)}
        r_terms = {k2: v for k2, v in [(((0, (2, 0))), a1), ((0, (0, 2)), -a2),
                                       ((1, (1, 1)), 2 * a3)] if v != 0}
        rows, rhs = frac_candidate_system(p_terms, r_terms, 2)
        exact = frac_solve(rows, rhs)

        if a1 != a3:
            ok = ok and cand is None and exact is None
        else:
            # oracle adjudicates the second diagonal entry: (a1 + a2) / 2
            want = np.array([[float(a1), 0.0], [0.0, float((a1 + a2) / 2)]])
            exact_B = np.array([float(v) for v in exact[0]]).reshape(2, 2)
            ok = ok and cand is not None and not exact[1] \
                and cand.kernel_dim == 0 \
                and np.max(np.abs(exact_B - want)) == 0.0 \
                and np.max(np.abs(cand.B - want)) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(3, "solvability iff a1(0)=a3(0); B validated by rational oracle",
            ok, elapsed)


def test_criterion_04_explicit_solution_correspondence():
    start = time.perf_counter()
    lam, mu = 1.0, 2.0
    v = np.array([0.3, 0.4])
    A = ExponentialCurve(np.diag([lam, mu]), -1)
    dev = verify_correspondence(p2_field(), A, v, (0.0, 0.5))
    z = integrate(p2_field(), v, (0.0, 0.5), tol=1e-11)
    worst = 0.0
    for t, x in zip(z.times, z.states):
        w = A.value(float(t)) @ x
        expected = np.diag([math.exp(-lam * t), math.exp(-mu * t)]) \
            @ p2_exact_solution(v, t)
        worst = max(worst, float(np.max(np.abs(w - expected))
                                 / (1.0 + np.max(np.abs(expected)))))
    ok = dev <= 1e-6 and worst <= 1e-6
    elapsed = time.perf_counter() - start
    _report(4, "explicit transformed solution matches to 1e-6 on [0, 0.5]",
            ok and elapsed < 2.0, elapsed)


def test_criterion_05_rotating_frame_cubic_invariance():
    rng = np.random.default_rng(5)
    K = rng.uniform(-1, 1, size=(2, 2))
    cubic = PolyField(2, {(0, (3, 0)): -1.0, (0, (1, 2)): -1.0,
                          (1, (2, 1)): -1.0, (1, (0, 3)): -1.0})
    f = PolyField.from_linear(K) + cubic
    ev = gauge_transform(f, rotation_curve("t + 0.5*t^2"))
    ok = ev.closed_form is not None
    for t in np.linspace(0.0, 1.0, 10):
        part = ev.closed_form.degree_part_at(float(t), 3)
        ok = ok and part.coeff_distance(cubic) <= 1e-12
    _report(5, "rotating frame: cubic part equals -|w|^2 w to 1e-12", ok)


def test_criterion_06_linear_systems_always_gauge():
    rng = np.random.default_rng(6)
    entry_pool = ["t", "sin(t)", "cos(t)", "t^2", "exp(-t)", "0.5", "0", "1-t"]
    ok = True
    for _ in range(5):
        entries = [[entry_pool[rng.integers(0, len(entry_pool))] for _ in range(2)]
                   for _ in range(2)]
        q = NonAutoSystem(2, linear=entries)
        cert = identify(q)
        ok = ok and cert.status == "linear_family" and cert.kernel_dim == 4
        for _ in range(3):
            B = rng.uniform(-1.0, 1.0, size=(2, 2))
            report = verify_candidate(q, B)
            ok = ok and report.passed
            ok = ok and report.residuals["constant"] <= 1e-7
            ok = ok and all(v <= 1e-7 for v in report.residuals["per_degree"].values())
    _report(6, "5 seeded linear systems: linear_family; 3 arbitrary B each verify", ok)


def test_criterion_07_constant_part_rejection():
    start = time.perf_counter()
    cert = identify(NonAutoSystem(2, constant=["t^2", "1"]))
    # recorded oracle: components of exp(-tB) c(0) are exp-polynomials of
    # polynomial degree <= 1 in dimension 2, so t^2 cannot match
    ok = cert.status == "not_gauge"
    elapsed = time.perf_counter() - start
    _report(7, "c(t) = (t^2, 1) rejected as not_gauge",
            ok and elapsed < 2.0, elapsed)


def test_criterion_08_roundtrip_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    count = 0
    thetas = ["t", "t + 0.5*t^2", "sin(t)", "0.2 + 0.8*t"]
    while count < 100:
        n = 2 if count % 3 else 3
        degrees = [2] if count % 2 else [2, 3]
        rotation_case = count % 2 == 1 and n == 2
        f = PolyField.from_constant(rng.uniform(-0.5, 0.5, size=n)) \
            + PolyField.from_linear(rng.uniform(-1, 1, size=(n, n))) \
            + random_field(rng, n, degrees, scale=0.8, density=0.9)
        if rotation_case:
            A = rotation_curve(thetas[count % len(thetas)])
            bound = 1e-6
        else:
            B = rng.uniform(-1, 1, size=(n, n))
            f = f - PolyField.from_linear(f.linear_matrix()) + PolyField.from_linear(B)
            A = ExponentialCurve(B, -1)
            bound = 1e-7
        ev = gauge_transform(f, A)
        if ev.closed_form is None:
            continue  # non-diagonalizable draw; does not count toward the 100
        cert = identify(ev.closed_form, tol=bound)
        inst_ok = cert.status == "gauge" \
            and cert.residuals["constant"] <= bound \
            and all(v <= bound for v in cert.residuals["per_degree"].values())
        # re-simulation correspondence from 2 random starts, mapping by the
        # certified curve (normalized to A(0) = I, which the builder's curve
        # need not be)
        if inst_ok:
            if tables_zero(ev.closed_form):
                Acurve = ExponentialCurve(cert.B, -1)
            else:
                Acurve = solve_gauge_ode(ev.closed_form.linear, cert.B,
                                         np.eye(n), t_span=(0.0, 0.5))
            for _ in range(2):
                x0 = rng.uniform(-0.25, 0.25, size=n)
                z = integrate(cert.f, x0, (0.0, 0.5), tol=1e-11, samples=40)
                w = integrate(ev.closed_form, x0, (0.0, 0.5), tol=1e-11, samples=40)
                mapped = np.array([Acurve.value(float(t)) @ x
                                   for t, x in zip(z.times, z.states)])
                dev = np.max(np.abs(w.states - mapped)
                             / (1.0 + np.max(np.abs(mapped))))
                inst_ok = inst_ok and dev <= 1e-5
        ok = ok and inst_ok
        count += 1
    elapsed = time.perf_counter() - start
    _report(8, f"round-trip suite, {count} instances, residuals and re-simulation",
            ok and elapsed < 180.0, elapsed)


def tables_zero(q: NonAutoSystem) -> bool:
    return all(e == tx.Lit(0.0) for row in q.linear for e in row)


def test_criterion_09_mixed_bracket_identity():
    rng = np.random.default_rng(9)
    curves = [rotation_curve("t"), rotation_curve("t + 0.5*t^2"),
              ExponentialCurve(np.array([[0.2, -0.6], [0.6, 0.2]]), -1)]
    ok = True
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
        ok = ok and mixed_bracket_residual(h, f, A, t, x) <= 1e-8 * (1.0 + scale)
    # commuting specialization: [h, f] = 0 linear/cubic pair
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    h = PolyField.from_linear(J)
    f = PolyField.from_linear(J) + PolyField(2, {
        (0, (3, 0)): -1.0, (0, (1, 2)): -1.0, (1, (2, 1)): -1.0, (1, (0, 3)): -1.0})
    ok = ok and lie_bracket(h, f).is_zero()
    for t in (0.1, 0.6, 0.9):
        ok = ok and mixed_bracket_residual(h, f, rotation_curve("t + 0.5*t^2"),
                                           t, np.array([0.4, -0.3])) <= 1e-8
    _report(9, "mixed bracket identity: 50 seeded tuples + symmetry specialization", ok)


def test_criterion_10_idempotents():
    res = find_idempotents(p2_field(), starts=200, seed=42)
    expected = [np.array([0.5, -0.5j]), np.array([0.5, 0.5j]),
                np.array([1.0, 0.0j])]
    ok = (res.conclusive and res.spanning and len(res.points) == 3
          and all(np.max(np.abs(got - want)) <= 1e-8
                  for got, want in zip(res.points, expected)))
    _report(10, "idempotents of p2: {(1,0), (1/2, +-i/2)}, spanning", ok)


def test_criterion_11_numerics():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    # matrix exponential group law and derivative
    for _ in range(10):
        M = rng.uniform(-1, 1, size=(3, 3))
        s, u = rng.uniform(-1, 1, size=2)
        ok = ok and np.max(np.abs(mat_exp((s + u) * M)
                                  - mat_exp(s * M) @ mat_exp(u * M))) <= 1e-10
        t0, h = rng.uniform(-1, 1), 1e-6
        fd = (mat_exp((t0 + h) * M) - mat_exp((t0 - h) * M)) / (2 * h)
        ok = ok and np.max(np.abs(fd - M @ mat_exp(t0 * M))) <= 1e-6

    # derivative corpus against central differences
    hstep = 1e-5
    for e, times in expr_corpus(seed=20260808, count=1000, depth=6):
        d = tx.diff_expr(e)
        for t in times:
            fd = (tx.eval_expr(e, t + hstep) - tx.eval_expr(e, t - hstep)) / (2 * hstep)
            dv = tx.eval_expr(d, t)
            ok = ok and abs(dv - fd) <= 1e-6 * (1.0 + abs(dv))

    # integrator order: error drops at least 2^7-fold per step halving on
    # average, from 2 steps (at 20 and more it is already at rounding)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    fixtures = [
        (lambda t, x: J @ x, np.array([1.0, 0.0]), 1.0,
         np.array([math.cos(1.0), math.sin(1.0)])),
        (lambda t, x: p2_field().eval(x), np.array([0.3, 0.4]), 0.5,
         p2_exact_solution(np.array([0.3, 0.4]), 0.5)),
    ]
    ratios = []
    for rhs, x0, T, exact in fixtures:
        prev = None
        for nsteps in (2, 4, 8):
            err = np.linalg.norm(rk_fixed_step(rhs, 0.0, T, x0, nsteps) - exact)
            if prev is not None and err > 0:
                ratios.append(prev / err)
            prev = err
    ok = ok and np.mean(ratios) >= 128.0
    elapsed = time.perf_counter() - start
    _report(11, "mat_exp laws, 1000-expression derivative corpus, integrator order",
            ok, elapsed)

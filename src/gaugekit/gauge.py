"""Gauge transforms of autonomous fields by time-dependent invertible matrices.

The transform of x' = f(x) by A(t) is the nonautonomous system
y' = A'(t) A(t)^{-1} y + A(t) f(A(t)^{-1} y).  When the curve admits
symbolic entries, the transform is also emitted as a closed-form
NonAutoSystem with TimeExpr coefficients.  Either kind of closed form is
one table {(component, exponents): coefficient} over every degree, keyed
like PolyField terms:

- A one-parameter exponential exp(tM) with a diagonalizable generator,
  M = V Lambda V^{-1} with cond(V) <= 1e8, gives exact exponential sums.
  The field is pushed through the eigenbasis once, each term's integer
  exponent vector k riding in its key as a tag, so every coefficient comes
  out as plain complex values {k: value}, printed as a sum of
  exp(a t) (p cos(b t) + q sin(b t)) with a + ib = k . Lambda.
- A closed-form curve with a symbolic inverse is pushed forward as
  expression tables.

One rule decides which coefficients are zero: a value is zero when it is
at most _ZERO_RTOL = 1e-12 times the same expansion run on absolute values,
which bounds the terms summed into it (the running error bound of a sum).
Exponential sums expand |V^{-1}|, |V| and |f| once; closed-form curves
expand |S|, |S^{-1}|, |S'| and |f| at 20 sample times in the span, and a
coefficient is zero when it is zero at all of them.  If every coefficient
of a nonzero degree-j part of f, j != 1, is dropped, there is no closed
form: an invertible S never zeroes that part, so its products underflowed.

The table is kept only if its system matches the numeric transform within
1e-9 relative at ten points of the span.  The numeric transform,
transform_rhs and validation alike, is one reader, _direct_at: A(t)^{-1}
is the exact group inverse of an exponential curve, one stacked mat_exp
over all ten points, and invert_checked(A(t)) for any other curve, never
the inverse table.  A closed-form curve's inverse table is checked against
the curve at the same ten times first: a supplied table that fails is an
input error, and a built one that fails leaves no closed form.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import timexpr as tx
from ._rk import BLOWUP_NORM, IntegrationError, integrate_dense
from .identify import NonAutoSystem
from .matcurve import ClosedFormCurve, ExponentialCurve, MatrixCurve, mat_exp
from .polyfield import (
    NearSingularMatrixError, PolyField, invert_checked, lie_bracket, linear_pushforward,
    pushforward_terms,
)

__all__ = [
    "NonAutoEvaluator", "FlowMap", "gauge_transform", "transform_rhs",
    "transform_solution", "conjugate_map", "hat_transform", "mixed_bracket_residual",
]

#: the zero test of every closed-form coefficient: a value is zero when at
#: most this times its bound, the same expansion run on absolute values
_ZERO_RTOL = 1e-12
# closed-form curves' zero test samples these fractions of the caller's span
_SAMPLE_FRACTIONS = np.linspace(0.025, 0.975, 20)


@dataclass
class NonAutoEvaluator:
    """A nonautonomous right-hand side with an optional closed-form
    realization; `reason` says why there is none."""
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    closed_form: NonAutoSystem | None = None
    reason: str | None = None

    def __call__(self, t: float, x) -> np.ndarray:
        return self.rhs(t, x)


# ---------------------------------------------------------------------------
# Closed-form emission over TimeExpr tables
# ---------------------------------------------------------------------------

class _Refused(Exception):
    """Why a transform gets no closed form."""


def _table_product(A: list, B: list) -> list:
    """Product of two n x n tables of floats or TimeExprs."""
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _sample_times(t_span: tuple) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    return t0 + (t1 - t0) * _SAMPLE_FRACTIONS


def symbolic_pushforward(f: PolyField, S: list, Sinv: list, Sdot: list) -> dict:
    """The coefficients of S'(t) S(t)^{-1} y + S(t) f(S(t)^{-1} y) as one
    table {(component, exponents): coefficient} over every degree, keyed
    like PolyField terms, before any coefficient is dropped as zero: every
    constant, the linear table row by row, then the terms of degree >= 2.
    S, Sinv and Sdot are n x n tables of TimeExprs, or of (K,) arrays, one
    slice per sample time; the coefficients come out in the same
    arithmetic."""
    n = f.dim
    b = f.constant_vector().tolist()
    table = {(i, (0,) * n): sum((S[i][j] * b[j] for j in range(n) if b[j] != 0.0), 0.0)
             for i in range(n)}
    linear = _table_product(Sdot, Sinv)
    Bf = f.linear_matrix()
    if np.any(Bf != 0.0):
        conj = _table_product(S, _table_product(Bf.tolist(), Sinv))
        linear = [[linear[i][j] + conj[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            table[(i, tuple(int(k == j) for k in range(n)))] = linear[i][j]
    for j in f.degrees():
        if j >= 2:
            table.update(pushforward_terms(S, Sinv, f.grade(j).terms))
    return table


def _closed_form_table(f: PolyField, A: ClosedFormCurve, t_span: tuple) -> dict:
    """symbolic_pushforward of a closed-form curve's tables, without the
    coefficients that are zero at every sample time in t_span; all are kept
    when the curve cannot be evaluated at one of the times."""
    table = symbolic_pushforward(f, A.entries, A.inverse_entries, A._dentries)
    ts = _sample_times(t_span).tolist()
    try:
        At, Adot = np.array([A.value_and_derivative(t) for t in ts]).transpose(1, 0, 2, 3)
        samples = (At, np.array([A._inverse(t) for t in ts]), Adot)
    except (tx.EvalError, OverflowError):
        return table
    absf = PolyField(f.dim, {key: abs(c) for key, c in f.terms.items()})
    with np.errstate(all="ignore"):
        values = symbolic_pushforward(f, *(s.transpose(1, 2, 0) for s in samples))
        bounds = symbolic_pushforward(absf, *(np.abs(s).transpose(1, 2, 0) for s in samples))
        v, m = (np.array([np.broadcast_to(d.get(key, 0.0), len(ts)) for key in table])
                for d in (values, bounds))
        # a non-finite sample keeps its coefficient
        zero = np.all((np.abs(v) <= _ZERO_RTOL * m) & np.isfinite(v), axis=1)
    return {key: e for (key, e), z in zip(table.items(), zero.tolist()) if not z}


def _validation_points(n: int, t_span: tuple) -> list:
    """Ten seeded (t, y) pairs with t inside t_span."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    rng = np.random.default_rng(0)
    points = []
    for _ in range(10):
        t = t0 + (t1 - t0) * float(rng.uniform(0.05, 0.95))
        points.append((t, rng.uniform(-1.0, 1.0, size=n)))
    return points


def _exponents(lam: np.ndarray):
    """k -> (a, b), the real and imaginary parts of k . lam for an integer
    vector k, or None when a complex eigenvalue has no exact conjugate.
    Conjugate eigenvalues are paired, so that the vector with the entries of
    each pair swapped gets (a, -b) exactly."""
    lam = [complex(v) for v in lam.tolist()]
    n = len(lam)
    real = [k for k in range(n) if lam[k].imag == 0.0]
    pairs: list = []
    for k in range(n):
        if lam[k].imag > 0.0:
            j = next((j for j in range(n) if lam[j] == lam[k].conjugate()
                      and all(j != q for _, q in pairs)), None)
            if j is None:
                return None
            pairs.append((k, j))
    if len(real) + 2 * len(pairs) != n:
        return None
    memo: dict = {}

    def exponent(k: tuple) -> tuple:
        if k not in memo:
            a = sum(k[r] * lam[r].real for r in real) \
                + sum((k[p] + k[q]) * lam[p].real for p, q in pairs)
            b = sum((k[p] - k[q]) * lam[p].imag for p, q in pairs)
            memo[k] = (float(a), float(b))
        return memo[k]

    return exponent


def _combination(pairs) -> tx.TimeExpr:
    """sum of c * e over the (c, e) pairs whose c is nonzero, a negative c
    after the first subtracted."""
    acc = None
    for c, e in pairs:
        if c == 0.0:
            continue
        if acc is None:
            acc = tx.emul(tx.lit(c), e)
        elif c < 0.0:
            acc = tx.esub(acc, tx.emul(tx.lit(-c), e))
        else:
            acc = tx.eadd(acc, tx.emul(tx.lit(c), e))
    return tx.Lit(0.0) if acc is None else acc


def _exponential_sum(triples: list, exponent, wave) -> tx.TimeExpr:
    """A coefficient, the sum of c exp((k . lambda) t) over its (k, c, m)
    triples (m bounds c), as the sum over rates a of exp(a t) times the sum
    over frequencies b >= 0 of p cos(b t) + q sin(b t), both sorted.  The
    vectors of one (a, b), and each vector with its conjugate, are summed
    first (a real field gives conjugate values); p and q are zero when at
    most _ZERO_RTOL times the summed bounds.  wave(name, rate) gives the
    node name(rate t)."""
    merged: dict = {}
    for k, c, m in triples:
        a, b = exponent(k)
        if b < 0.0:
            c, b = c.conjugate(), -b
        slot = merged.setdefault((a, b), [0.0, 0.0])
        slot[0] += c
        slot[1] += m
    by_rate: dict = {}
    for (a, b), (c, m) in sorted(merged.items()):
        tol = _ZERO_RTOL * m
        terms = by_rate.setdefault(a, [])
        if abs(c.real) > tol:
            terms.append((c.real, wave("cos", b)))
        if b > 0.0 and abs(c.imag) > tol:
            terms.append((-c.imag, wave("sin", b)))
    parts = []
    for a, terms in by_rate.items():
        E = wave("exp", a)
        if len(terms) == 1:
            parts.append((terms[0][0], tx.emul(E, terms[0][1])))
        elif terms:
            parts.append((1.0, tx.emul(E, _combination(terms))))
    return _combination(parts)


def _exponential_table(f: PolyField, A: ExponentialCurve) -> dict:
    """The nonzero coefficients of the transform by S(t) = exp(tM),
    M = sign G, as exact exponential sums in one table, sorted by key.
    Refused when M is defective or its eigenvectors are ill-conditioned, or
    a complex eigenvalue has no exact conjugate.

    With M = V Lambda W, W = V^{-1}, S f(S^{-1} y) = V e^{t Lambda}
    g(e^{-t Lambda} W y) for g = W f(V .), so the coefficient of u^m in
    component a of g carries the one exponential exp(((e_a - m) . lambda) t).
    f is pushed forward by (W, V) once, the vector k = e_a - m is appended
    to each key, and the tagged terms are pushed back by (V, W) in one
    expansion, to {(component, exponents, k): value}; S'S^{-1} = M adds M
    to the linear part at k = 0.  The same two pushforwards of |W|, |V| and
    |f| bound every value for the zero test."""
    n = f.dim
    M = A.sign * A.generator
    lam, V = np.linalg.eig(M)
    if not np.all(np.isfinite(V)) or np.linalg.cond(V) > 1e8:
        raise _Refused("defective or ill-conditioned generator (cond V > 1e8)")
    exponent = _exponents(lam)
    if exponent is None:
        raise _Refused("complex eigenvalues without an exact conjugate pair")
    W = np.linalg.inv(V)
    origin = (0,) * n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def expand(W: list, V: list, fterms: dict, M: np.ndarray) -> dict:
        tagged = {(a, m, tuple(int(r == a) - p for r, p in enumerate(m))): c
                  for (a, m), c in pushforward_terms(W, V, fterms).items()}
        table = pushforward_terms(V, W, tagged)
        for (i, j), c in np.ndenumerate(M):
            if c != 0.0:
                key = (i, units[j], origin)
                table[key] = table[key] + float(c) if key in table else float(c)
        return table

    values = expand(W.tolist(), V.tolist(), f.terms, M)
    bounds = expand(np.abs(W).tolist(), np.abs(V).tolist(),
                    {key: abs(c) for key, c in f.terms.items()}, np.abs(M))
    triples: dict = {}
    for (i, e, k), c in values.items():
        triples.setdefault((i, e), []).append((k, c, bounds[i, e, k]))
    # one node per wave, shared by every coefficient
    wave = functools.cache(lambda name, rate: tx.efun(name, tx.emul(tx.lit(rate), tx.T)))
    zero = tx.Lit(0.0)
    coeff = {key: _exponential_sum(triples[key], exponent, wave) for key in sorted(triples)}
    return {key: e for key, e in coeff.items() if e != zero}


def _emit_closed_form(n: int, table: dict, points: list, direct: list) -> NonAutoSystem:
    """The system of a coefficient table, refused unless it matches the
    direct RHS, direct[k] at points[k], within 1e-9 relative at every
    validation point.  It is read through its table, one row per point, so
    no right-hand side is generated for it here."""
    zero = tx.Lit(0.0)
    const, linear, terms = [zero] * n, [[zero] * n for _ in range(n)], {}
    for (i, exps), e in table.items():
        if sum(exps) >= 2:
            terms[(i, exps)] = e
        elif sum(exps) == 1:
            linear[i][exps.index(1)] = e
        else:
            const[i] = e
    system = NonAutoSystem(n, const, linear, terms)
    for (t, x), want in zip(points, direct):
        # an overflow means no closed form, and non-finite values are
        # refused below
        try:
            vals = system._table(t)
        except OverflowError:
            raise _Refused(f"validation refused at t = {t:g}: overflow") from None
        y = x.tolist()
        got = [0.0] * n
        for i, k, powers in system._monomials:
            term = vals[k]
            for j, p in powers:
                term *= y[j] ** p
            got[i] += term
        if not (np.isfinite(want).all() and np.isfinite(got).all()):
            raise _Refused(f"validation refused at t = {t:g}: non-finite value")
        gap = np.max(np.abs(np.subtract(got, want))) / (1.0 + np.max(np.abs(want)))
        if gap > 1e-9:
            raise _Refused(f"validation refused at t = {t:g}: mismatch {gap:.1e} "
                           f"relative to the direct RHS")
    return system


# ---------------------------------------------------------------------------
# The transform and its companions
# ---------------------------------------------------------------------------

def _direct_at(f: PolyField, A: MatrixCurve, points: list) -> list:
    """A'A^{-1} y + A f(A^{-1} y) at every (t, y) of points, each value the
    same bit for bit whatever points come with it.  An exponential curve
    reads A(t) and its exact inverse from one stacked mat_exp over sign t G
    and -sign t G, A'A^{-1} being sign G; any other curve reads A(t) and
    A'(t), one table call per time for a closed form, and inverts the stack
    by one invert_checked, never through an inverse table."""
    ts = np.array([t for t, _ in points], dtype=float)
    M = None
    if isinstance(A, ExponentialCurve):
        M = A.sign * A.generator
        At, Ainv = np.split(mat_exp(np.multiply.outer(np.concatenate([ts, -ts]), M)), 2)
    else:
        At, Adot = np.array([A.value_and_derivative(t) for t in ts.tolist()]).transpose(1, 0, 2, 3)
        Ainv = invert_checked(At)
    out = []
    for k, (_, y) in enumerate(points):
        u = Ainv[k] @ y
        out.append((M @ y if M is not None else Adot[k] @ u) + At[k] @ f.eval(u))
    return out


def transform_rhs(f: PolyField, A: MatrixCurve) -> Callable[[float, np.ndarray], np.ndarray]:
    """The right-hand side y' = A'A^{-1} y + A f(A^{-1} y), evaluated
    numerically through the curve, with A(t)^{-1} the exact group inverse
    or invert_checked(A(t))."""
    if f.dim != A.dim:
        raise ValueError(f"field dim {f.dim} does not match curve dim {A.dim}")
    return lambda t, y: _direct_at(f, A, [(t, np.asarray(y, dtype=float))])[0]


def gauge_transform(f: PolyField, A: MatrixCurve,
                    t_span: tuple = (0.0, 1.0)) -> NonAutoEvaluator:
    """The nonautonomous system y' = A'A^{-1} y + A f(A^{-1} y).

    The evaluator always works numerically through the curve; a closed-form
    NonAutoSystem is attached for an exponential curve with a diagonalizable
    generator, and for a closed-form curve with a symbolic inverse (see the
    module docstring for the zero test).  The closed form is checked
    against the evaluator at times inside t_span.  Without one, the
    evaluator's `reason` names the case.
    """
    rhs = transform_rhs(f, A)
    points = _validation_points(f.dim, t_span)
    if isinstance(A, ClosedFormCurve):
        try:
            A.check_inverse([t for t, _ in points])
        except (ValueError, tx.EvalError) as exc:
            if A._inverse_supplied:
                raise  # the caller's table is wrong or cannot be evaluated
            return NonAutoEvaluator(f.dim, rhs, reason=str(exc))
        except OverflowError as exc:  # math.exp in A or A'
            return NonAutoEvaluator(f.dim, rhs, reason=f"overflow reading the curve: {exc}")
    try:
        if isinstance(A, ExponentialCurve):
            table = _exponential_table(f, A)
        elif isinstance(A, ClosedFormCurve) and A.inverse_entries is not None:
            table = _closed_form_table(f, A, t_span)
        elif isinstance(A, ClosedFormCurve):
            raise _Refused(f"no inverse table for the {A.dim} x {A.dim} curve")
        else:
            raise _Refused(f"no symbolic entries in a {type(A).__name__}")
        for j in f.degrees():
            if j != 1 and not any(sum(exps) == j for _, exps in table):
                raise _Refused(f"underflow: every degree-{j} coefficient was dropped, "
                               f"although f has a degree-{j} part")
        with np.errstate(all="ignore"):
            direct = _direct_at(f, A, points)
        return NonAutoEvaluator(f.dim, rhs, _emit_closed_form(f.dim, table, points, direct))
    except (_Refused, NearSingularMatrixError) as exc:
        return NonAutoEvaluator(f.dim, rhs, reason=str(exc))


def transform_solution(traj, A: MatrixCurve):
    """Pointwise map of a sampled trajectory: w(t_i) = A(t_i) z(t_i)."""
    states = np.array([A.value(float(t)) @ x
                       for t, x in zip(traj.times, traj.states)])
    return dataclasses.replace(traj, states=states)


class FlowMap:
    """Time-s flow of a polynomial field, used as a solution-preserving map."""

    def __init__(self, field: PolyField, s: float):
        self.field = field
        self.s = float(s)
        self._rhs = field.rhs()

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.s == 0.0:
            return x.copy()
        sol = integrate_dense(self._rhs, 0.0, self.s, x, blowup_norm=BLOWUP_NORM)
        if sol.status != "done":
            raise IntegrationError("flow escaped before reaching the requested time")
        return sol.y_end


def conjugate_map(Phi, A: MatrixCurve, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """The solution-preserving map x -> A(t) Phi(A(t)^{-1} x) at fixed t.

    Phi may be a polynomial map (PolyField), a FlowMap, or any callable on
    points.
    """
    phi = Phi.eval if isinstance(Phi, PolyField) else Phi
    At = A.value(t)
    Ainv = A.inverse(t)

    def gamma(x) -> np.ndarray:
        return At @ phi(Ainv @ np.asarray(x, dtype=float))

    return gamma


def hat_transform(h: PolyField, A: MatrixCurve, t: float) -> PolyField:
    """The conjugated field A(t) h(A(t)^{-1} x) at fixed t.

    This is a plain pushforward, with no A'A^{-1} part: it is not a gauge
    transform of h.
    """
    return linear_pushforward(A.value(t), h)


def frozen_transform_field(f: PolyField, A: MatrixCurve, t: float) -> PolyField:
    """The gauge transform at frozen time as a polynomial field in y."""
    return PolyField.from_linear(A.derivative(t) @ A.inverse(t)) \
        + linear_pushforward(A.value(t), f)


def mixed_bracket_residual(h: PolyField, f: PolyField, A: MatrixCurve,
                           t: float, x) -> float:
    """Defect of the mixed bracket identity at (t, x).

    Computes || [h_hat, f_star]_x - D_t h_hat - (widehat [h, f]) ||, where
    the x-bracket freezes t, D_t h_hat uses the exact formula
    A' h(A^{-1}x) - A Dh(A^{-1}x) A^{-1} A' A^{-1} x, and the last term is
    the pushforward of [h, f].  Zero (up to rounding) for all inputs.
    """
    x = np.asarray(x, dtype=float)
    At = A.value(t)
    Adot = A.derivative(t)
    Ainv = A.inverse(t)
    h_hat = linear_pushforward(At, h)
    f_star = frozen_transform_field(f, A, t)
    lhs = lie_bracket(h_hat, f_star).eval(x)
    u = Ainv @ x
    d_t_hat = Adot @ h.eval(u) - At @ (h.jacobian(u) @ (Ainv @ (Adot @ u)))
    rhs = d_t_hat + linear_pushforward(At, lie_bracket(h, f)).eval(x)
    return float(np.linalg.norm(lhs - rhs))

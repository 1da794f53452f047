"""Gauge transforms of autonomous fields by time-dependent invertible matrices.

The transform of x' = f(x) by A(t) is the nonautonomous system
y' = A'(t) A(t)^{-1} y + A(t) f(A(t)^{-1} y).  When the curve admits
symbolic entries (closed form with a symbolic inverse, or a one-parameter
exponential with diagonalizable generator), the transform is also emitted
as a closed-form NonAutoSystem with TimeExpr coefficients.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import timexpr as tx
from ._rk import BLOWUP_NORM, IntegrationError, integrate_dense
from .identify import NonAutoSystem
from .matcurve import ClosedFormCurve, ExponentialCurve, MatrixCurve, mat_exp
from .polyfield import PolyField, lie_bracket, linear_pushforward, pushforward_terms

__all__ = [
    "NonAutoEvaluator", "FlowMap", "gauge_transform", "transform_rhs",
    "transform_solution", "conjugate_map", "hat_transform", "mixed_bracket_residual",
]

_DROP_TOL = 1e-10
# zero tests sample these fractions of the caller's span
_SAMPLE_FRACTIONS = np.linspace(0.025, 0.975, 20)


@dataclass
class NonAutoEvaluator:
    """A nonautonomous right-hand side with an optional closed-form realization."""
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple
    closed_form: NonAutoSystem | None = None

    def __call__(self, t: float, x) -> np.ndarray:
        return self.rhs(t, x)


# ---------------------------------------------------------------------------
# Closed-form emission over TimeExpr tables
# ---------------------------------------------------------------------------

def _table_product(A: list, B: list) -> list:
    """Product of two n x n tables of floats or TimeExprs."""
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _exp_lin(c: float) -> tx.TimeExpr:
    if abs(c) <= 1e-15:
        return tx.Lit(1.0)
    return tx.efun("exp", c * tx.T)


def _sample_times(t_span: tuple) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    return t0 + (t1 - t0) * _SAMPLE_FRACTIONS


def _symbolic_expm_entries(M: np.ndarray, sign: int, t_span: tuple,
                           samples: np.ndarray | None = None) -> list | None:
    """TimeExpr entries of exp(sign * t * M), or None when no reliable
    closed form is available: a defective or ill-conditioned generator, or
    entries off the (K, n, n) samples of mat_exp (computed when not given)
    at the zero test's times in t_span."""
    n = M.shape[0]
    if np.max(np.abs(M - np.diag(np.diag(M)))) == 0.0:
        return [[_exp_lin(sign * M[i, i]) if i == j else tx.Lit(0.0)
                 for j in range(n)] for i in range(n)]
    w, V = np.linalg.eig(M)
    if not np.all(np.isfinite(V)) or np.linalg.cond(V) > 1e8:
        return None
    W = np.linalg.inv(V)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: tx.TimeExpr = tx.Lit(0.0)
            used = set()
            for k in range(n):
                if k in used:
                    continue
                lam = w[k]
                c = V[i, k] * W[k, j]
                if abs(lam.imag) <= 1e-12 * (1.0 + abs(lam)):
                    used.add(k)
                    if abs(c.real) <= 1e-14:
                        continue
                    acc = acc + c.real * _exp_lin(sign * lam.real)
                    continue
                partner = None
                for k2 in range(n):
                    if k2 not in used and k2 != k \
                            and abs(w[k2] - lam.conjugate()) <= 1e-8 * (1.0 + abs(lam)):
                        partner = k2
                        break
                if partner is None:
                    return None
                used.add(k)
                used.add(partner)
                a, b = lam.real, lam.imag
                osc: tx.TimeExpr = tx.Lit(0.0)
                if abs(c.real) > 1e-14:
                    osc = osc + 2.0 * c.real * tx.efun("cos", sign * b * tx.T)
                if abs(c.imag) > 1e-14:
                    osc = osc - 2.0 * c.imag * tx.efun("sin", sign * b * tx.T)
                acc = acc + _exp_lin(sign * a) * osc
            row.append(acc)
        entries.append(row)
    ts = _sample_times(t_span)
    ref = mat_exp(sign * ts[:, None, None] * M) if samples is None else samples
    table = tx.compile_table([e for row in entries for e in row])
    try:
        got = np.array([table(t) for t in ts.tolist()]).reshape(ref.shape)
    except (tx.EvalError, OverflowError):
        return None
    bound = 1e-9 * (1.0 + np.max(np.abs(ref), axis=(1, 2)))
    # NaN fails `<=`: the entries must match a finite mat_exp
    return entries if np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= bound) else None


def _symbolic_entries(A: MatrixCurve, t_span: tuple):
    """(S, S_inv, S_dot) as TimeExpr tables, and as (K, n, n) stacks at the
    zero test's sample times in t_span (None when the curve cannot be
    evaluated at one of them); None when the curve has no closed form."""
    ts = _sample_times(t_span)
    if isinstance(A, ClosedFormCurve):
        if A.inverse_entries is None:
            return None
        try:
            samples = tuple(np.array([fn(t) for t in ts.tolist()])
                            for fn in (A.value, A._inverse, A.derivative))
        except (tx.EvalError, OverflowError):
            samples = None
        return (A.entries, A.inverse_entries, A._dentries), samples
    if isinstance(A, ExponentialCurve):
        G = A.sign * A.generator
        E, Einv = mat_exp(ts[:, None, None] * G), mat_exp(-ts[:, None, None] * G)
        S = _symbolic_expm_entries(A.generator, A.sign, t_span, E)
        Sinv = _symbolic_expm_entries(A.generator, -A.sign, t_span, Einv)
        if S is None or Sinv is None:
            return None
        return (S, Sinv, _table_product(G.tolist(), S)), (E, Einv, G @ E)
    return None


def symbolic_pushforward(f: PolyField, S: list, Sinv: list, Sdot: list) -> tuple:
    """The coefficients of S'(t) S(t)^{-1} y + S(t) f(S(t)^{-1} y) as tables
    (constant, linear, terms of degree >= 2 keyed like PolyField terms),
    before any coefficient is dropped as zero.  S, Sinv and Sdot are n x n
    tables of TimeExprs, or of (K,) arrays, one slice per sample time; the
    coefficients come out in the same arithmetic."""
    n = f.dim
    b = f.constant_vector().tolist()
    const = [sum((S[i][j] * b[j] for j in range(n) if b[j] != 0.0), 0.0)
             for i in range(n)]
    linear = _table_product(Sdot, Sinv)
    Bf = f.linear_matrix()
    if np.any(Bf != 0.0):
        conj = _table_product(S, _table_product(Bf.tolist(), Sinv))
        linear = [[linear[i][j] + conj[i][j] for j in range(n)] for i in range(n)]
    terms: dict = {}
    for j in f.degrees():
        if j >= 2:
            terms.update(pushforward_terms(S, Sinv, f.grade(j)))
    return const, linear, terms


def _validation_points(n: int, t_span: tuple) -> list:
    """Ten seeded (t, y) pairs with t inside t_span."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    rng = np.random.default_rng(0)
    points = []
    for _ in range(10):
        t = t0 + (t1 - t0) * float(rng.uniform(0.05, 0.95))
        points.append((t, rng.uniform(-1.0, 1.0, size=n)))
    return points


def _kept(f: PolyField, samples: tuple | None, terms: dict) -> list:
    """The zero test of the candidates (constant, linear rows, terms): kept
    unless below _DROP_TOL in magnitude at every sample time, from
    symbolic_pushforward of the sampled S, S^{-1} and S'; all kept when the
    curve has no samples."""
    if samples is None:
        return [True] * (f.dim * (f.dim + 1) + len(terms))
    with np.errstate(all="ignore"):  # a non-finite sample keeps its coefficient
        const, linear, values = symbolic_pushforward(
            f, *(s.transpose(1, 2, 0) for s in samples))
        flat = const + [v for row in linear for v in row] \
            + [values.get(key, 0.0) for key in terms]
        return [not np.all(np.abs(v) <= _DROP_TOL) for v in flat]


def _emit_closed_form(f: PolyField, symbolic: tuple, samples: tuple | None,
                      direct_rhs, points: list) -> NonAutoSystem | None:
    n = f.dim
    const, linear, terms = symbolic_pushforward(f, *symbolic)
    keep = iter(_kept(f, samples, terms))
    zero = tx.Lit(0.0)
    const = [e if next(keep) else zero for e in const]
    linear = [[e if next(keep) else zero for e in row] for row in linear]
    terms = {key: e for key, e in terms.items() if next(keep)}
    system = NonAutoSystem(n, const, linear, terms)
    for t, x in points:
        want = direct_rhs(t, x)
        got = system.eval(t, x)
        # NaN fails no comparison: non-finite values refuse the closed form
        if not (np.isfinite(want).all() and np.isfinite(got).all()) \
                or np.max(np.abs(got - want)) > 1e-9 * (1.0 + np.max(np.abs(want))):
            return None
    return system


# ---------------------------------------------------------------------------
# The transform and its companions
# ---------------------------------------------------------------------------

def transform_rhs(f: PolyField, A: MatrixCurve) -> Callable[[float, np.ndarray], np.ndarray]:
    """The right-hand side y' = A'A^{-1} y + A f(A^{-1} y), evaluated
    numerically through the curve."""
    if f.dim != A.dim:
        raise ValueError(f"field dim {f.dim} does not match curve dim {A.dim}")

    def rhs(t: float, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        Ainv = A.inverse(t)
        return A.derivative(t) @ (Ainv @ y) + A.value(t) @ f.eval(Ainv @ y)

    return rhs


def gauge_transform(f: PolyField, A: MatrixCurve,
                    t_span: tuple = (0.0, 1.0)) -> NonAutoEvaluator:
    """The nonautonomous system y' = A'A^{-1} y + A f(A^{-1} y).

    The evaluator always works numerically through the curve; a closed-form
    NonAutoSystem is attached when the curve carries symbolic entries and a
    symbolic inverse.  Coefficients are dropped as zero, and the closed form
    is checked against the evaluator, at sample times inside t_span.
    """
    rhs = transform_rhs(f, A)
    points = _validation_points(f.dim, t_span)
    if isinstance(A, ClosedFormCurve):
        A.check_inverse([t for t, _ in points])
    sym = _symbolic_entries(A, t_span)
    closed = None if sym is None else _emit_closed_form(f, *sym, rhs, points)
    return NonAutoEvaluator(f.dim, rhs, t_span, closed)


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

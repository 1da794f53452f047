"""Invertible matrix curves A(t): closed-form, one-parameter exponential, and ODE flows.

Also provides the matrix exponential and the linear matrix ODE
A' = C(t) A - A B that underpins gauge identification.  A closed-form
curve of n <= 3 inverts by one cofactor rule: A^{-1}[i][j] = cof[j][i] / det,
each cofactor the signed determinant of a minor of at most 2 x 2.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import timexpr as tx
from ._rk import TOL, IntegrationError, check_in_span, integrate_dense
from .polyfield import (
    NearSingularMatrixError, as_index, check_invertible, check_keys, invert_checked, parse_at,
    read_number, read_table,
)

__all__ = [
    "MatrixCurve", "ClosedFormCurve", "ExponentialCurve", "FlowCurve",
    "LiftedCurve", "mat_exp", "solve_gauge_ode", "second_order_lift",
    "curve_to_dict", "curve_from_dict", "IntegrationError",
]


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with diagonal Pade approximants
# ---------------------------------------------------------------------------

_PADE_B = {
    3: [120.0, 60.0, 12.0, 1.0],
    5: [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0],
    7: [17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0],
    9: [17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0],
    13: [64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0],
}

_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}


def _pade_uv(A: np.ndarray, m: int):
    b = _PADE_B[m]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A2 @ A4
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
        return U, V
    powers = {0: eye, 2: A2}
    for k in range(4, m, 2):
        powers[k] = powers[k - 2] @ A2
    U = A @ sum(b[k] * powers[k - 1] for k in range(1, m + 1, 2))
    V = sum(b[k] * powers[k] for k in range(0, m + 1, 2))
    return U, V


def _pade_order(norm: float) -> tuple[int, int]:
    """Pade order m and scaling exponent s for a 1-norm; (13, 0) if not finite."""
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            return m, 0
    if not math.isfinite(norm):
        return 13, 0
    return 13, max(0, int(math.ceil(math.log2(norm / _PADE_THETA[13]))))


def _scaled_pade(A: np.ndarray, m: int, s: int) -> np.ndarray:
    """exp(A) from the order-m Pade approximant of A / 2^s, squared s times."""
    U, V = _pade_uv(A / 2.0 ** s, m)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def mat_exp(M) -> np.ndarray:
    """Matrix exponential by scaling and squaring with Pade approximants.

    M is one (n, n) matrix or a (K, n, n) stack.  The slices of a stack are
    grouped by Pade order and scaling, so each equals its lone call bit for
    bit.  Accurate to ~1e-13 relative in operator norm at desk scale
    (n <= 8, ||M|| <= 50).
    """
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.ndim == 2:
        return _scaled_pade(A, *_pade_order(float(np.linalg.norm(A, 1))))
    groups: dict = {}
    for k, norm in enumerate(np.linalg.norm(A, 1, axis=(-2, -1)).tolist()):
        groups.setdefault(_pade_order(norm), []).append(k)
    out = np.empty_like(A)
    for (m, s), idx in groups.items():
        out[idx] = _scaled_pade(A[idx], m, s)
    return out


# ---------------------------------------------------------------------------
# Matrix curves
# ---------------------------------------------------------------------------

class MatrixCurve:
    """A(t) in GL(n, R).  Subclasses implement value/derivative; inverse and
    second derivative have generic fallbacks."""

    dim: int

    def value(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def second_derivative(self, t: float) -> np.ndarray:
        h = 1e-6
        return (self.derivative(t + h) - self.derivative(t - h)) / (2 * h)

    def inverse(self, t: float) -> np.ndarray:
        return invert_checked(self.value(t))


def _diff_entries(entries):
    return [[tx.diff_expr(e) for e in row] for row in entries]


def _table_of(entries):
    """The entries compiled as one table: t -> n x n array."""
    n = len(entries)
    table = tx.compile_table([e for row in entries for e in row])
    return lambda t: np.array(table(t)).reshape(n, n)


def _small_det(m):
    """The determinant of a matrix of at most 2 x 2: 1 for the empty one."""
    if not m:
        return tx.lit(1.0)
    if len(m) == 1:
        return m[0][0]
    (a, b), (c, d) = m
    return a * d - b * c


def _adjugate_inverse(entries):
    """Symbolic inverse cof^T / det, only for n <= 3; det is _small_det of
    the entries for n <= 2 and their first-row expansion for n = 3."""
    n = len(entries)
    if n > 3:
        raise ValueError("symbolic inverse is only built for n <= 3")

    def cofactor(i, j):
        minor = [[e for c, e in enumerate(row) if c != j]
                 for r, row in enumerate(entries) if r != i]
        return _small_det(minor) if (i + j) % 2 == 0 else -_small_det(minor)

    cof = [[cofactor(i, j) for j in range(n)] for i in range(n)]
    det = sum(entries[0][k] * cof[0][k] for k in range(n)) if n == 3 else _small_det(entries)
    return [[tx.ediv(cof[j][i], det) for j in range(n)] for i in range(n)]


class ClosedFormCurve(MatrixCurve):
    """Curve with TimeExpr entries; derivative is exact.

    If no inverse table is supplied, one is built symbolically for n <= 3:
    entry [i][j] is cofactor [j][i] over the determinant, each cofactor
    (-1)^(i+j) times the determinant of a minor of at most 2 x 2.  Larger
    curves invert numerically per t, and so does a curve whose determinant
    folds to the literal 0 although A(0) passes the singular-value check:
    its products underflowed, as for a diagonal of 1e-162.
    """

    def __init__(self, entries, inverse_entries=None):
        self.entries = [[tx.as_expr(e) for e in row] for row in entries]
        self.dim = len(self.entries)
        if not self.dim or any(len(row) != self.dim for row in self.entries):
            raise ValueError("entries must form a square table")
        self._dentries = _diff_entries(self.entries)
        self._value = _table_of(self.entries)
        self._derivative = _table_of(self._dentries)
        self._inverse_supplied = inverse_entries is not None
        if inverse_entries is not None:
            self.inverse_entries = [[tx.as_expr(e) for e in row] for row in inverse_entries]
            if len(self.inverse_entries) != self.dim or any(
                    len(r) != self.dim for r in self.inverse_entries):
                raise ValueError("inverse table must match the curve dimension")
        check_invertible(self.value(0.0))
        if inverse_entries is None:
            try:
                self.inverse_entries = _adjugate_inverse(self.entries) if self.dim <= 3 else None
            except ZeroDivisionError:  # the determinant underflowed to the literal 0
                self.inverse_entries = None
        self._inverse = (_table_of(self.inverse_entries)
                         if self.inverse_entries is not None else None)
        if inverse_entries is not None:
            # a first check of a supplied inverse table; gauge_transform
            # checks it again over the span it is asked for
            for t in (0.0, 0.5, 1.0):
                try:
                    self.check_inverse([t])
                except tx.EvalError:
                    pass  # a pole here may lie outside the span of any use

    def check_inverse(self, ts) -> None:
        """Raise ValueError at the first t in ts where a supplied inverse
        table fails A(t) A^{-1}(t) = I by more than 1e-8 (EvalError where it
        cannot be evaluated)."""
        if not self._inverse_supplied:
            return
        for t in ts:
            prod = self.value(t) @ self._inverse(t)
            if np.max(np.abs(prod - np.eye(self.dim))) > 1e-8:
                raise ValueError(
                    f"supplied inverse table does not invert the curve at t={t}")

    def value(self, t: float) -> np.ndarray:
        return self._value(t)

    def derivative(self, t: float) -> np.ndarray:
        return self._derivative(t)

    @cached_property
    def _second_derivative(self):
        return _table_of(_diff_entries(self._dentries))

    def second_derivative(self, t: float) -> np.ndarray:
        return self._second_derivative(t)

    def inverse(self, t: float) -> np.ndarray:
        if self._inverse is not None:
            try:
                return self._inverse(t)
            except tx.EvalError as exc:
                raise NearSingularMatrixError(str(exc)) from exc
        return invert_checked(self.value(t))


class ExponentialCurve(MatrixCurve):
    """A(t) = exp(sign * t * M): a one-parameter matrix group."""

    def __init__(self, generator, sign: int = 1):
        self.generator = np.asarray(generator, dtype=float)
        if self.generator.ndim != 2 or self.generator.shape[0] != self.generator.shape[1]:
            raise ValueError("generator must be square")
        if not np.all(np.isfinite(self.generator)):
            raise ValueError("generator entries must be finite")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = int(sign)
        self.dim = self.generator.shape[0]

    def value(self, t: float) -> np.ndarray:
        return mat_exp(self.sign * t * self.generator)

    def derivative(self, t: float) -> np.ndarray:
        return self.sign * self.generator @ self.value(t)

    def second_derivative(self, t: float) -> np.ndarray:
        G = self.sign * self.generator
        return G @ G @ self.value(t)

    def inverse(self, t: float) -> np.ndarray:
        return mat_exp(-self.sign * t * self.generator)


class FlowCurve(MatrixCurve):
    """Solution of A' = C(t) A - A B, A(0) = A0, via dense-output integration.

    C is as for solve_gauge_ode.  The flow integrates its span [min(t0, 0),
    max(t1, 0)] once, on construction: one leg forward from 0 and one
    backward, a leg of length zero skipped.  It never integrates again: a
    read outside that span raises IntegrationError.
    """

    def __init__(self, C, B, A0, t_span=(0.0, 1.0), tol: float = TOL):
        self.C_entries = ([[tx.as_expr(e) for e in row] for row in C]
                          if C is not None and not callable(C) else None)
        self.B = np.asarray(B, dtype=float)
        self.A0 = np.asarray(A0, dtype=float)
        self.dim = self.A0.shape[0]
        if self.B.shape != (self.dim, self.dim) or self.A0.shape != (self.dim, self.dim):
            raise ValueError("B and A0 must be square matrices of the same dimension")
        if self.C_entries is not None and (
                len(self.C_entries) != self.dim
                or any(len(r) != self.dim for r in self.C_entries)):
            raise ValueError("C table must match the curve dimension")
        check_invertible(self.A0)
        self.tol = float(tol)
        self._C = (_table_of(self.C_entries) if self.C_entries is not None
                   else C or (lambda t: None))
        self.span = (float(min(*t_span, 0.0)), float(max(*t_span, 0.0)))
        self.legs = tuple(integrate_dense(self._rhs, 0.0, end, self.A0.ravel(), tol=self.tol)
                          for end in self.span[::-1] if end != 0.0)

    def _rhs(self, t: float, a) -> list:
        A = np.asarray(a).reshape(self.dim, self.dim)
        C = self._C(t)
        dA = -A @ self.B
        if C is not None:
            dA = dA + C @ A
        return dA.ravel().tolist()

    def value(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def sample(self, ts) -> np.ndarray:
        """A(t) for every t of ts, as one (K, n, n) stack: A0 at t = 0, and
        one DenseSolution.sample per leg."""
        ts = np.asarray(ts, dtype=float)
        check_in_span(ts, *self.span)
        out = np.empty((ts.size, self.dim, self.dim))
        # A0 also within 1e-12 past an end of the span at 0, where no leg runs
        out[:] = self.A0
        for leg in self.legs:
            mask = ts * leg.direction > 0.0
            if mask.any():
                out[mask] = leg.sample(ts[mask]).reshape(-1, self.dim, self.dim)
        return out

    def derivative(self, t: float) -> np.ndarray:
        return np.reshape(self._rhs(t, self.value(t).ravel()), (self.dim, self.dim))

    def second_derivative(self, t: float) -> np.ndarray:
        A = self.value(t)
        dA = self.derivative(t)
        out = -dA @ self.B
        C = self._C(t)
        if C is not None:
            if self.C_entries is None:
                raise ValueError("a flow's second derivative needs C(t) as an expression table")
            out = out + C @ dA
            out = out + self._dC(t) @ A
        return out

    @cached_property
    def _dC(self):
        return _table_of(_diff_entries(self.C_entries))

    def assert_invertible_on_span(self):
        """Determinant must keep its sign at every step start and end of each leg."""
        sign0 = math.copysign(1.0, np.linalg.det(self.A0))
        for leg in self.legs:
            dets = np.linalg.det(np.vstack([leg.Y, leg.y_end]).reshape(-1, self.dim, self.dim))
            if np.any((dets == 0.0) | (np.copysign(1.0, dets) != sign0)):
                raise NearSingularMatrixError(
                    "flow curve lost invertibility inside the integrated span")


class LiftedCurve(MatrixCurve):
    """Block curve [[A, 0], [A', A]] used to lift second-order dynamics."""

    def __init__(self, base: MatrixCurve):
        self.base = base
        self.dim = 2 * base.dim

    def value(self, t: float) -> np.ndarray:
        return _lift(self.base.value(t), self.base.derivative(t))

    def derivative(self, t: float) -> np.ndarray:
        return _lift(self.base.derivative(t), self.base.second_derivative(t))

    def inverse(self, t: float) -> np.ndarray:
        Ainv = self.base.inverse(t)
        return _lift(Ainv, -Ainv @ self.base.derivative(t) @ Ainv)


def _lift(X, Y) -> np.ndarray:
    """The block matrix [[X, 0], [Y, X]]."""
    return np.block([[X, np.zeros_like(X)], [Y, X]])


def second_order_lift(A: MatrixCurve) -> LiftedCurve:
    """The 2n x 2n curve [[A, 0], [A', A]]; invertible wherever A is."""
    return LiftedCurve(A)


def solve_gauge_ode(C, B, A0, t_span=(0.0, 1.0), tol: float = TOL) -> FlowCurve:
    """Solve A' = C(t) A - A B with A(0) = A0 over t_span.

    C is an n x n table of TimeExpr (or expression strings), compiled for
    the flow; a callable t -> n x n array, such as a system's linear_at,
    which reads its own compiled table; or None for C identically zero.
    """
    return FlowCurve(C, B, A0, t_span=t_span, tol=tol)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def curve_to_dict(curve: MatrixCurve) -> dict:
    if isinstance(curve, ClosedFormCurve):
        d = {"dim": curve.dim, "kind": "closed_form",
             "entries": [[tx.format_expr(e) for e in row] for row in curve.entries]}
        if curve.inverse_entries is not None:
            d["inverse"] = [[tx.format_expr(e) for e in row]
                            for row in curve.inverse_entries]
        return d
    if isinstance(curve, ExponentialCurve):
        return {"dim": curve.dim, "kind": "exp",
                "generator": [[float(v) for v in row] for row in curve.generator],
                "sign": curve.sign}
    raise ValueError(f"cannot serialize curve of type {type(curve).__name__}")


def _generator_entry(src, where: str) -> float:
    """read_number, its error under the prefix of every generator error."""
    try:
        return read_number(src, where)
    except ValueError as exc:
        raise ValueError(f"bad generator matrix: {exc}") from None


def curve_from_dict(d: dict) -> MatrixCurve:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("curve object must have a 'kind' entry")
    kind = d["kind"]
    if kind == "closed_form":
        check_keys(d, ("dim", "kind", "entries", "inverse"), "closed_form curve")
        entries = d.get("entries")
        if not entries:
            raise ValueError("closed_form curve needs an 'entries' table")
        inverse = d.get("inverse")
        curve = ClosedFormCurve(
            read_table(entries, "entries", parse_at),
            read_table(inverse, "inverse", parse_at) if inverse is not None else None)
    elif kind == "exp":
        check_keys(d, ("dim", "kind", "generator", "sign"), "exp curve")
        if "generator" not in d:
            raise ValueError("exp curve needs a 'generator' matrix")
        gen = read_table(d["generator"], "generator", _generator_entry)
        sign = as_index(d.get("sign", 1), "sign")
        if sign not in (1, -1):
            raise ValueError("'sign' must be 1 or -1")
        try:
            curve = ExponentialCurve(gen, sign)
        except ValueError as exc:
            raise ValueError(f"bad generator matrix: {exc}") from exc
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    if "dim" in d and as_index(d["dim"], "dim") != curve.dim:
        raise ValueError(f"'dim' is {d['dim']}, but the curve is {curve.dim} x {curve.dim}")
    return curve

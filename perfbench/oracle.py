"""Reference computations for the benchmark's correctness checks.

Nothing here calls gaugekit.  Fields are term tables
{(component, exponents): coefficient} evaluated monomial by monomial;
exponential curves use a matrix exponential by eigendecomposition; rotation
frames use their angle and its derivative; and the fields z' = a z^k on
R^2 = C have closed-form solutions.
"""

from __future__ import annotations

from math import comb

import numpy as np


def poly_eval(terms: dict, dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros(dim)
    for (i, exps), c in terms.items():
        m = c
        for xk, p in zip(x, exps):
            m *= xk ** p
        out[i] += m
    return out


class ExpCurve:
    """A(t) = exp(sign t G) through G = V diag(w) V^-1."""

    def __init__(self, G, sign: int):
        self.G = sign * np.asarray(G, dtype=float)
        self.w, self.V = np.linalg.eig(self.G)
        self.Vinv = np.linalg.inv(self.V)

    def _exp(self, s: float) -> np.ndarray:
        return np.real((self.V * np.exp(s * self.w)) @ self.Vinv)

    def value(self, t: float) -> np.ndarray:
        return self._exp(t)

    def inverse(self, t: float) -> np.ndarray:
        return self._exp(-t)

    def derivative(self, t: float) -> np.ndarray:
        return self.G @ self._exp(t)


class RotationCurve:
    """A(t) = rotation by theta(t)."""

    def __init__(self, theta, dtheta):
        self.theta, self.dtheta = theta, dtheta

    def value(self, t: float) -> np.ndarray:
        c, s = np.cos(self.theta(t)), np.sin(self.theta(t))
        return np.array([[c, -s], [s, c]])

    def inverse(self, t: float) -> np.ndarray:
        return self.value(t).T

    def derivative(self, t: float) -> np.ndarray:
        c, s = np.cos(self.theta(t)), np.sin(self.theta(t))
        return self.dtheta(t) * np.array([[-s, -c], [c, -s]])


def direct_rhs(terms: dict, dim: int, curve, t: float, y) -> np.ndarray:
    """A'(t) A(t)^-1 y + A(t) f(A(t)^-1 y)."""
    Ainv_y = curve.inverse(t) @ np.asarray(y, dtype=float)
    return curve.derivative(t) @ Ainv_y + curve.value(t) @ poly_eval(terms, dim, Ainv_y)


def pushforward_eval(terms: dict, dim: int, M, x) -> np.ndarray:
    """M f(M^-1 x)."""
    return M @ poly_eval(terms, dim, np.linalg.solve(M, np.asarray(x, dtype=float)))


def closed_form_mismatch(system, terms: dict, dim: int, curve, points) -> float:
    """Worst relative gap between a system's RHS and the direct RHS."""
    worst = 0.0
    for t, y in points:
        want = direct_rhs(terms, dim, curve, t, y)
        got = system.eval(t, y)
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / (1.0 + np.max(np.abs(want)))))
    return worst


def complex_power_terms(a: complex, k: int) -> dict:
    """a z^k as a real field on (x, y) with z = x + i y."""
    terms: dict = {}
    for m in range(k + 1):
        c = a * comb(k, m) * 1j ** m          # coefficient of x^(k-m) y^m
        for comp, v in ((0, c.real), (1, c.imag)):
            if abs(v) > 1e-15:
                terms[(comp, (k - m, m))] = float(v)
    return terms


def complex_power_solution(a: complex, k: int, z0: complex, t) -> np.ndarray:
    """z(t) for z' = a z^k: z0 (1 - (k-1) a z0^(k-1) t)^(-1/(k-1))."""
    t = np.asarray(t, dtype=float)
    z = z0 * (1.0 - (k - 1) * a * z0 ** (k - 1) * t) ** (-1.0 / (k - 1))
    return np.stack([z.real, z.imag], axis=-1)
